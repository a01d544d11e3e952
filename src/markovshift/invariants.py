"""The complete invariant of irreducible one-sided topological Markov shifts.

For a transition matrix A the invariant is the triple (F, u, s): the
Bowen-Franks group of the transpose, F = Z^N / (id - A^t) Z^N, its
distinguished element u (the class of the all-ones vector), and the sign s
of det(id - A).  Two irreducible shifts whose spaces have no isolated
points are continuously orbit equivalent exactly when their triples match
under a pointed isomorphism; dropping the point and using the plain group
decides flow equivalence of the two-sided shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .groups import (
    FgAbelianGroup,
    GroupElement,
    PointedGroup,
    from_presentation,
    pointed_is_isomorphic,
    tensor_z2,
)
from .shifts import NonNegMatrix, column_amalgamation, relation_matrix, require_classifiable


@dataclass(frozen=True)
class MarkovInvariant:
    """Invariant triple (group, point, sign) plus its derived data."""

    group: FgAbelianGroup
    point: GroupElement
    det_value: int

    def __post_init__(self):
        if (self.det_value == 0) != (not self.group.is_finite):
            raise VerificationError("determinant vanishes exactly for infinite groups")
        order = self.group.order()
        if order is not None and order != abs(self.det_value):
            raise VerificationError("finite group order must equal |det(id - A)|")

    @property
    def sign(self) -> int:
        """Sign of det(id - A): -1, 0 or 1."""
        return (self.det_value > 0) - (self.det_value < 0)

    @property
    def k1_rank(self) -> int:
        """Rank of ker(id - A^t), which is the free rank of the group it presents."""
        return self.group.free_rank

    @property
    def pointed(self) -> PointedGroup:
        return PointedGroup(self.group, self.point)

    def summary(self) -> dict:
        return {
            "group": self.group.describe(),
            "free_rank": self.group.free_rank,
            "torsion_factors": list(self.group.torsion_factors),
            "point_free": list(self.point.free_coords),
            "point_torsion": list(self.point.torsion_coords),
            "determinant": self.det_value,
            "sign": self.sign,
            "k1_rank": self.k1_rank,
        }


def invariant_triple(a: NonNegMatrix) -> MarkovInvariant:
    """Assemble the full invariant of an irreducible, non-permutation matrix.

    The matrix is replaced by its total column amalgamation B, a one-sided
    conjugate with the same invariant: an edge shift shrinks back to the
    matrix it came from.  The conjugacy keeps irreducibility and finiteness,
    so B is checked in place of A.  Merging states sends the all-ones vector
    of A to that of B, so one presentation of id - B^t with B's all-ones
    vector gives all three parts: the group, the point, and
    det(id - A) = det(id - B^t).  The +-1 pivots are cleared first and only
    the block they leave gets a Smith form (none for a trivial group).  The
    point's coordinates depend on the states of B, so points are compared
    with `pointed_is_isomorphic`, never by their coordinates.
    """
    b = column_amalgamation(a)
    require_classifiable(b)
    group, point, det_value = from_presentation(relation_matrix(b), (1,) * b.size)
    return MarkovInvariant(group=group, point=point, det_value=det_value)


def _as_invariant(a) -> MarkovInvariant:
    if isinstance(a, MarkovInvariant):
        return a
    return invariant_triple(a)


def full_group_abelianization(a) -> FgAbelianGroup:
    """Abelianized topological full group: (BF(A^t) tensor Z/2) + Z^k1.

    Accepts a matrix or a precomputed invariant.
    """
    inv = _as_invariant(a)
    return FgAbelianGroup(inv.k1_rank, tensor_z2(inv.group).torsion_factors)


@dataclass(frozen=True)
class EquivalenceDecision:
    """Outcome of an equivalence test with a machine-checkable certificate."""

    equivalent: bool
    reason: str
    left: MarkovInvariant
    right: MarkovInvariant
    checks: tuple[tuple[str, bool], ...]

    def __bool__(self) -> bool:
        return self.equivalent

    def certificate(self) -> dict:
        return {
            "left": self.left.summary(),
            "right": self.right.summary(),
            "checks": {name: ok for name, ok in self.checks},
        }


def decide_coe(a, b) -> EquivalenceDecision:
    """Decide continuous orbit equivalence of two one-sided shifts.

    True exactly when the pointed Bowen-Franks groups of the transposes
    are isomorphic and the determinants of id - A agree: flow equivalence
    plus one pointed check.  Accepts matrices or precomputed invariants.
    """
    flow = decide_flow(a, b)
    pointed_ok = flow.equivalent and pointed_is_isomorphic(flow.left.pointed, flow.right.pointed)
    if not flow.equivalent:
        reason = flow.reason
    elif pointed_ok:
        reason = "pointed Bowen-Franks groups isomorphic and determinants equal"
    else:
        reason = "no group isomorphism carries one distinguished element to the other"
    return EquivalenceDecision(
        equivalent=pointed_ok,
        reason=reason,
        left=flow.left,
        right=flow.right,
        checks=flow.checks + (("pointed_isomorphic", pointed_ok),),
    )


def decide_flow(a, b) -> EquivalenceDecision:
    """Decide flow equivalence of the corresponding two-sided shifts.

    True exactly when the Bowen-Franks groups are isomorphic as plain
    groups and the determinants agree; the distinguished element plays no
    role here.
    """
    left = _as_invariant(a)
    right = _as_invariant(b)
    # canonical forms are complete invariants, so isomorphic groups are equal
    groups_ok = left.group == right.group
    dets_ok = left.det_value == right.det_value
    if not groups_ok:
        reason = "Bowen-Franks groups are not isomorphic"
    elif not dets_ok:
        reason = "determinants of id - A differ"
    else:
        reason = "Bowen-Franks groups isomorphic and determinants equal"
    return EquivalenceDecision(
        equivalent=groups_ok and dets_ok,
        reason=reason,
        left=left,
        right=right,
        checks=(
            ("groups_isomorphic", groups_ok),
            ("determinants_equal", dets_ok),
        ),
    )
