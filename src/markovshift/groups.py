"""Finitely generated abelian groups in invariant-factor form.

A group is written Z^r x Z/m1 x ... x Z/mk with m1 | m2 | ... | mk and
every mi >= 2; this canonical shape is a complete isomorphism invariant.
Elements are integer coordinate tuples, torsion coordinates reduced
modulo their factor.  ``from_presentation`` brings Z^n / M Z^n to this
form, with the class of one vector and det M, from one pass over the +-1
pivots and a Smith form of the block they leave.  The pointed decision
(is there an isomorphism carrying one distinguished element to the
other?) is one comparison in closed form: the content of the free part,
then the height sequences of the least-height element of a coset, one
per element of a coprime base refined by gcds from the factors and both
points.  Per-prime height sequences classify automorphism orbits in
finite abelian p-groups (Hillar & Rhea 2007), and a base element's
sequence fixes those of all its primes, so the decision needs no
factoring.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain

from ._value import frozen
from .errors import DomainError, ShapeError
from .intmat import IntMatrix, _check_ints, _decimal, _is_int, eliminate_unit_pivots, smith_normal_form

INFINITE = math.inf


@frozen
class GroupElement:
    """Coordinates of a group element: free part, then torsion part."""

    free_coords: tuple[int, ...]
    torsion_coords: tuple[int, ...]

    def __init__(self, free_coords: tuple[int, ...] = (), torsion_coords: tuple[int, ...] = ()):
        object.__setattr__(self, "free_coords", free_coords)
        object.__setattr__(self, "torsion_coords", torsion_coords)


@frozen
class FgAbelianGroup:
    """Finitely generated abelian group Z^r x Z/m1 x ... x Z/mk."""

    free_rank: int
    torsion_factors: tuple[int, ...]

    def __init__(self, free_rank: int, torsion_factors: tuple[int, ...] = ()):
        _check_ints("free rank", (free_rank,))
        _check_ints("torsion factor", torsion_factors)
        if free_rank < 0:
            raise DomainError("free rank must be nonnegative")
        prev = 1
        for m in torsion_factors:
            if m < 2:
                raise DomainError(f"torsion factor {_decimal(m)} is not allowed; factors must be >= 2")
            if m % prev != 0:
                raise DomainError(
                    f"torsion factors must form a divisibility chain; {_decimal(prev)} does not divide {_decimal(m)}"
                )
            prev = m
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_factors", torsion_factors)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if not self.is_finite:
            return None
        return math.prod(self.torsion_factors)

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> GroupElement:
        if len(free) != self.free_rank or len(torsion) != len(self.torsion_factors):
            raise ShapeError(
                f"element coordinates ({len(free)} free, {len(torsion)} torsion) do not match "
                f"group with {self.free_rank} free and {len(self.torsion_factors)} torsion factors"
            )
        _check_ints("free coordinate", free)
        _check_ints("torsion coordinate", torsion)
        return GroupElement(
            tuple(free), tuple(x % m for x, m in zip(torsion, self.torsion_factors))
        )

    def zero(self) -> GroupElement:
        return GroupElement((0,) * self.free_rank, (0,) * len(self.torsion_factors))

    def contains(self, x: GroupElement) -> bool:
        """True when x has this group's shape, integer coordinates and reduced torsion."""
        return (
            len(x.free_coords) == self.free_rank
            and len(x.torsion_coords) == len(self.torsion_factors)
            and all(map(_is_int, chain(x.free_coords, x.torsion_coords)))
            and all(0 <= c < m for c, m in zip(x.torsion_coords, self.torsion_factors))
        )

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{_decimal(m)}" for m in self.torsion_factors)
        return " + ".join(parts) if parts else "0"


@frozen
class PointedGroup:
    """A group together with a distinguished element of it."""

    group: FgAbelianGroup
    point: GroupElement

    def __post_init__(self):
        if not self.group.contains(self.point):
            raise ShapeError("distinguished element does not match the group shape")


# ---------------------------------------------------------------------------
# presentations Z^n / M Z^n


def from_presentation(m: IntMatrix, v: Sequence[int]) -> tuple[FgAbelianGroup, GroupElement, int]:
    """The group Z^n modulo the columns of a square m, the class of v in it, and det m.

    One pass clears the +-1 pivots and carries v along
    (``eliminate_unit_pivots``); on relation matrices of 0/1 matrices
    almost every pivot is one.  The block S it leaves has no entry +-1 and
    gets the Smith form, whose recorded row operations are replayed on v's
    tail.  Zero entries of S's diagonal give the free coordinates, entries
    >= 2 the torsion coordinates, and det m is the pass's sign times det S,
    read off the same Smith form.  With no block left the group is trivial.
    Singular and nonsingular m take the same path.
    """
    _check_ints("vector entry", v)
    rest, tail, sign = eliminate_unit_pivots(m, v)
    if rest is None:
        trivial = FgAbelianGroup(0)
        return trivial, trivial.zero(), sign
    snf = smith_normal_form(rest)
    diag = snf.diagonal
    w = snf.u_times(tail)
    group = FgAbelianGroup(diag.count(0), tuple(d for d in diag if d >= 2))
    point = group.element(
        [x for x, d in zip(w, diag) if d == 0], [x for x, d in zip(w, diag) if d >= 2]
    )
    return group, point, sign * snf.determinant


def tensor_z2(g: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor with Z/2: one Z/2 per free generator and per even factor."""
    count = g.free_rank + sum(1 for m in g.torsion_factors if m % 2 == 0)
    return FgAbelianGroup(0, (2,) * count)


# ---------------------------------------------------------------------------
# heights and the pointed decision


def _coprime_base(numbers: Sequence[int]) -> tuple[int, ...]:
    """Pairwise coprime integers > 1 of which every given number is a product.

    Factor refinement (Bach, Driscoll & Shallit 1993): a pair x, y with
    g = gcd(x, y) > 1 is replaced by g, x/g, y/g until no pair shares a
    factor.  Each replacement divides the product of the list by g, so the
    refinement ends, and it takes only gcds, never a factorization.
    """
    base: list[int] = []
    todo = [n for n in numbers if n > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo.extend(n for n in (g, x // g, b // g) if n > 1)
                break
        else:
            base.append(x)
    return tuple(sorted(base))


def _valuation(b: int, x: int) -> int:
    """The exponent of b in x > 0: the largest k with b^k dividing x."""
    v = 0
    while x % b == 0:
        x //= b
        v += 1
    return v


def _heights(pairs: Sequence[tuple[int, int]]):
    """Height sequence of an element of a finite p-group, from its valuation pairs.

    Each pair (v, e) is one coordinate in Z/p^e of valuation v (v = e for a
    zero coordinate).  The height of y is the largest k with y in p^k * G
    (infinite for 0); the sequence lists the heights of x, p*x, p^2*x, ...
    up to its first infinity.  Two elements of one finite p-group lie in
    one automorphism orbit exactly when their sequences agree.  A
    coordinate (v, e) contributes v + k to the height of p^k * x while
    v + k < e and vanishes after that.
    """
    live = [(v, e) for v, e in pairs if v < e]
    seq = []
    k = 0
    while live:
        seq.append(min(v for v, _ in live) + k)
        k += 1
        live = [(v, e) for v, e in live if v + k < e]
    seq.append(INFINITE)
    return tuple(seq)


def _orbit_profile(base: Sequence[int], factors: Sequence[int], coords: Sequence[int], d: int):
    """Orbit invariant of the coset coords + d*T: one height sequence per base element.

    ``base`` is a coprime base of the factors mi, of gcd(ci, mi) and of
    gcd(d, mk).  For a base element b, the pair of coordinate i is
    (Vi, Ei) with Ei = v_b(mi) and Vi = v_b(gcd(ci, mi)) capped at
    K = v_b(gcd(d, mk)).  The cap is the coset: in the p-part d*T is
    p^k*T_p, and setting every coordinate of valuation >= k to p^k (0 once
    k >= e) gives the coset's element of pointwise least heights;
    automorphisms carry cosets to cosets and keep heights.  For d = 0,
    gcd(d, mk) = mk and the cap changes nothing.  The exponents matter: in
    Z/2 x Z/4 with d = 2, (1, 0) and (0, 1) share an orbit of T/2T but not
    modulo 2T.

    This is exact without factoring.  Every number refined into the base is
    a product of powers of its elements, so for a prime p dividing b every
    p-valuation above is v_p(b) times the b-exponent.  The p-sequence of
    pairs scaled by a = v_p(b) is fixed by, and fixes, the b-sequence: as a
    function of real t, the first is a times the second at t / a.  So two
    profiles agree exactly when the per-prime height sequences of
    Hillar & Rhea (2007) agree at every prime.
    """
    profile = []
    for b in base:
        cap = _valuation(b, math.gcd(d, factors[-1]))
        profile.append(_heights([
            (min(_valuation(b, math.gcd(c, m)), cap), _valuation(b, m))
            for c, m in zip(coords, factors)
        ]))
    return tuple(profile)


def pointed_is_isomorphic(a: PointedGroup, b: PointedGroup) -> bool:
    """Decide exactly whether some isomorphism carries a.point to b.point.

    An automorphism of Z^r x T sends (f, t) to (Af, phi(f) + alpha t), with
    A in GL_r(Z), phi: Z^r -> T any map and alpha in Aut(T).  So (f, t) and
    (g, s) share an orbit exactly when f and g have the same content d (gcd
    of the free coordinates, 0 for none) and some alpha puts alpha t in
    s + d*T, which ``_orbit_profile`` decides over one coprime base of both
    points, with gcds only.
    """
    # canonical forms are complete invariants, so isomorphic groups are equal
    if a.group != b.group:
        return False
    d = math.gcd(*a.point.free_coords)
    if d != math.gcd(*b.point.free_coords):
        return False
    factors = a.group.torsion_factors
    if not factors:
        return True
    ta, tb = a.point.torsion_coords, b.point.torsion_coords
    base = _coprime_base((
        *factors,
        *(math.gcd(c, m) for t in (ta, tb) for c, m in zip(t, factors) if c),
        math.gcd(d, factors[-1]),
    ))
    return _orbit_profile(base, factors, ta, d) == _orbit_profile(base, factors, tb, d)
