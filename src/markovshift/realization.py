"""Realize any admissible invariant triple as an explicit 0/1 matrix.

The pipeline: pick diagonal parameters whose base matrix presents the
requested group with the requested determinant sign, represent the
requested distinguished element by a nonnegative integer vector, graft
tails of that length onto the states to move the all-ones class onto the
element, and finally recode the nonnegative matrix as a 0/1 edge shift.
The stages only construct; ``realize`` verifies the result once, by
recomputing the invariant of the returned matrix and matching it against
the request, the point with ``pointed_is_isomorphic``.  The returned edge
shift merges back to the tail-extended matrix (``invariant_triple`` takes
its column amalgamation), so that check costs a Smith form of the smaller
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count

from .errors import PreconditionError, ShapeError, VerificationError
from .groups import (
    FgAbelianGroup,
    GroupElement,
    PointedGroup,
    from_presentation,
    pointed_is_isomorphic,
)
from .intmat import _check_ints
from .invariants import MarkovInvariant, invariant_triple
from .shifts import NonNegMatrix, ZeroOneMatrix, edge_shift, identity_minus


@dataclass(frozen=True)
class RealizationPlan:
    """Audit trail of a realization: parameters and every intermediate matrix."""

    d_list: tuple[int, ...]
    c_vector: tuple[int, ...]
    base: NonNegMatrix
    extended: NonNegMatrix
    final: ZeroOneMatrix
    invariant: MarkovInvariant


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for d in chain((2,), count(3, 2)):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def choose_shape(group: FgAbelianGroup, sign: int) -> tuple[int, ...]:
    """Diagonal parameters realizing the group with the requested sign.

    One leading zero is always present; each further zero contributes a
    free generator, each prime-power part of the torsion contributes a
    cyclic factor, and trailing ones only flip the determinant's sign by
    adjusting the matrix size parity.
    """
    _check_ints("sign", (sign,))
    if sign not in (-1, 0, 1):
        raise PreconditionError("sign must be -1, 0 or 1")
    if (sign == 0) != (not group.is_finite):
        if group.is_finite:
            raise PreconditionError("a finite group needs sign -1 or 1")
        raise PreconditionError("an infinite group forces determinant 0, so sign must be 0")
    parts = [p**e for m in group.torsion_factors for p, e in _factorize(m).items()]
    d = [0] * (1 + group.free_rank) + sorted(parts)
    if group.is_finite:
        if len(d) < 2:
            d.append(1)
        if (-1) ** len(d) != sign:
            d.append(1)
    return tuple(d)


def base_matrix(d_list) -> NonNegMatrix:
    """Matrix with diagonal d_i + 2 and ones elsewhere, d_1 = 0.

    Presents Z^(zeros - 1) plus the cyclic factors Z/d_i (d_i >= 2), and
    det(id - A) = (-1)^N * product of d_2..d_N.
    """
    d = tuple(d_list)
    _check_ints("diagonal parameter", d)
    if len(d) < 2:
        raise PreconditionError("base matrix needs at least 2 diagonal parameters")
    if d[0] != 0:
        raise PreconditionError("the first diagonal parameter must be 0")
    if any(x < 0 for x in d):
        raise PreconditionError("diagonal parameters must be nonnegative")
    n = len(d)
    rows = tuple(
        tuple(d[i] + 2 if i == j else 1 for j in range(n)) for i in range(n)
    )
    return NonNegMatrix(rows)


def _base_diagonal_parameters(a: NonNegMatrix) -> tuple[int, ...]:
    n = a.size
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = a.entry(i, j)
            if i != j and x != 1:
                raise PreconditionError("matrix is not a base matrix: off-diagonal entries must be 1")
            if i == j and x < 2:
                raise PreconditionError("matrix is not a base matrix: diagonal entries must be >= 2")
    d = tuple(a.entry(i, i) - 2 for i in range(1, n + 1))
    if d[0] != 0:
        raise PreconditionError("matrix is not a base matrix: first diagonal parameter must be 0")
    return d


def point_vector(base: NonNegMatrix, u: GroupElement) -> tuple[int, ...]:
    """Nonnegative integer vector whose class in BF(base^t) is exactly u.

    Valid because for base matrices the all-ones class vanishes and d_i
    times the i-th unit vector lies in the relation lattice, so a
    representative can be reduced coordinatewise and then shifted by a
    multiple of the all-ones vector without changing its class.
    """
    d = _base_diagonal_parameters(base)
    pres = from_presentation(identity_minus(base, transpose=True))
    v = list(pres.representative(u))
    for i, di in enumerate(d):
        if di >= 1:
            v[i] %= di
    shift = max(0, -min(v))
    c = [x + shift for x in v]
    for i, di in enumerate(d):
        if di >= 1:
            c[i] %= di
    return tuple(c)


def tail_extension(a: NonNegMatrix, c) -> NonNegMatrix:
    """Graft a tail of length c_i onto state i, preserving the invariant.

    State (i, j) with j < c_i steps deterministically to (i, j + 1); state
    (i, c_i) behaves like original state i feeding the tail heads.  This
    moves the all-ones class onto the class of c while keeping the
    determinant.
    """
    c = tuple(c)
    _check_ints("tail length", c)
    if len(c) != a.size:
        raise ShapeError("tail length vector must have one entry per state")
    if any(x < 0 for x in c):
        raise PreconditionError("tail lengths must be nonnegative")
    states = [(i, j) for i in range(1, a.size + 1) for j in range(c[i - 1] + 1)]
    index = {s: k for k, s in enumerate(states)}
    size = len(states)
    rows = [[0] * size for _ in range(size)]
    for (i, j), k in index.items():
        if j == c[i - 1]:
            for t in range(1, a.size + 1):
                rows[k][index[(t, 0)]] = a.entry(i, t)
        else:
            rows[k][index[(i, j + 1)]] = 1
    return NonNegMatrix.from_rows(rows)


def realize(
    group: FgAbelianGroup,
    point: GroupElement,
    sign: int,
) -> tuple[ZeroOneMatrix, RealizationPlan]:
    """Construct an irreducible 0/1 matrix whose invariant triple is given.

    The triple must be admissible: sign 0 exactly for infinite groups.
    The returned matrix has been verified by recomputing its invariant and
    matching it against the request; the point is matched up to a group
    automorphism, since its coordinates depend on the states.
    """
    point = group.element(point.free_coords, point.torsion_coords)
    d = choose_shape(group, sign)
    base = base_matrix(d)
    c = point_vector(base, point)
    extended = tail_extension(base, c)
    final = edge_shift(extended)
    # edge_shift returns a ZeroOneMatrix, so only irreducibility and the
    # permutation property are left to check, and invariant_triple checks both
    try:
        inv = invariant_triple(final)
    except PreconditionError as exc:
        raise VerificationError(f"realized matrix failed validation: {exc}") from exc
    if inv.group != group or inv.sign != sign:
        raise VerificationError("realized matrix has the wrong group or sign")
    if not pointed_is_isomorphic(inv.pointed, PointedGroup(group, point)):
        raise VerificationError("realized matrix does not carry the requested distinguished element")
    plan = RealizationPlan(
        d_list=d, c_vector=c, base=base, extended=extended, final=final, invariant=inv
    )
    return final, plan
