"""Finitely generated abelian groups in invariant-factor form.

A group is written Z^r x Z/m1 x ... x Z/mk with m1 | m2 | ... | mk and
every mi >= 2; this canonical shape is a complete isomorphism invariant.
Elements are integer coordinate tuples, torsion coordinates reduced
modulo their factor.  The pointed decision (is there an isomorphism
carrying one distinguished element to the other?) is one comparison in
closed form: the content of the free part, then per-prime height
sequences, which classify automorphism orbits in finite abelian p-groups
(Hillar & Rhea 2007), taken of the least-height element of a coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, product
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ShapeError, UnsupportedError
from .intmat import IntMatrix, SnfResult, smith_normal_form

INFINITE = math.inf


def _factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise DomainError(f"cannot factorize {n}")
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


def _check_ints(what: str, values: Iterable) -> None:
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ShapeError(f"{what} {x!r} is not an integer")


def _is_prime(p: int) -> bool:
    return p >= 2 and _factorize(p) == {p: 1}


@dataclass(frozen=True)
class GroupElement:
    """Coordinates of a group element: free part, then torsion part."""

    free_coords: tuple[int, ...] = ()
    torsion_coords: tuple[int, ...] = ()


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group Z^r x Z/m1 x ... x Z/mk."""

    free_rank: int
    torsion_factors: tuple[int, ...] = ()

    def __post_init__(self):
        _check_ints("free rank", (self.free_rank,))
        _check_ints("torsion factor", self.torsion_factors)
        if self.free_rank < 0:
            raise DomainError("free rank must be nonnegative")
        prev = 1
        for m in self.torsion_factors:
            if m < 2:
                raise DomainError(f"torsion factor {m} is not allowed; factors must be >= 2")
            if m % prev != 0:
                raise DomainError(
                    f"torsion factors must form a divisibility chain; {prev} does not divide {m}"
                )
            prev = m

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors

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
        return (
            len(x.free_coords) == self.free_rank
            and len(x.torsion_coords) == len(self.torsion_factors)
            and all(0 <= c < m for c, m in zip(x.torsion_coords, self.torsion_factors))
        )

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return self.element(
            tuple(a + b for a, b in zip(x.free_coords, y.free_coords)),
            tuple(a + b for a, b in zip(x.torsion_coords, y.torsion_coords)),
        )

    def negate(self, x: GroupElement) -> GroupElement:
        return self.element(tuple(-a for a in x.free_coords), tuple(-a for a in x.torsion_coords))

    def scale(self, n: int, x: GroupElement) -> GroupElement:
        return self.element(
            tuple(n * a for a in x.free_coords), tuple(n * a for a in x.torsion_coords)
        )

    def all_elements(self) -> Iterator[GroupElement]:
        """Every element of a finite group, in lexicographic coordinate order."""
        if not self.is_finite:
            raise UnsupportedError("cannot enumerate an infinite group")
        for coords in product(*(range(m) for m in self.torsion_factors)):
            yield GroupElement((), coords)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{m}" for m in self.torsion_factors)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PointedGroup:
    """A group together with a distinguished element of it."""

    group: FgAbelianGroup
    point: GroupElement

    def __post_init__(self):
        if not self.group.contains(self.point):
            raise ShapeError("distinguished element does not match the group shape")


def canonical_group(free_rank: int, cyclic_orders: Iterable[int]) -> FgAbelianGroup:
    """Canonical form of Z^free_rank plus a direct sum of cyclic groups.

    The orders may be arbitrary integers >= 1 in any arrangement; they are
    split into prime powers and remerged into a divisibility chain.
    """
    by_prime: dict[int, list[int]] = {}
    for n in cyclic_orders:
        if n < 1:
            raise DomainError(f"cyclic order {n} is not allowed")
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    factors = []
    for i in range(depth):
        m = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                m *= p ** exps[i]
        factors.append(m)
    factors.reverse()
    return FgAbelianGroup(free_rank, tuple(factors))


# ---------------------------------------------------------------------------
# presentations Z^n / M Z^n


@dataclass(frozen=True)
class Presentation:
    """Quotient Z^n / (column span of snf.matrix) in canonical form.

    The coordinate map sends v to U v and reads canonical coordinates off
    the Smith-diagonal positions: zero entries give free coordinates, the
    entries >= 2 give torsion coordinates.  U and U^-1 are applied by
    replaying the Smith form's recorded operations, so neither is built.
    """

    snf: SnfResult
    group: FgAbelianGroup
    free_positions: tuple[int, ...]
    torsion_positions: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.snf.matrix.rows

    def element_from_vector(self, v: Sequence[int]) -> GroupElement:
        w = self.snf.u_times(tuple(int(x) for x in v))
        free = tuple(w[i] for i in self.free_positions)
        torsion = tuple(w[i] for i in self.torsion_positions)
        return self.group.element(free, torsion)

    def representative(self, x: GroupElement) -> tuple[int, ...]:
        """Some integer vector whose class is x."""
        if not self.group.contains(x):
            x = self.group.element(x.free_coords, x.torsion_coords)
        w = [0] * self.rank
        for coord, pos in zip(x.free_coords, self.free_positions):
            w[pos] = coord
        for coord, pos in zip(x.torsion_coords, self.torsion_positions):
            w[pos] = coord
        return self.snf.u_inv_times(w)


def from_presentation(m: IntMatrix) -> Presentation:
    """Canonical form of Z^n modulo the columns of a square matrix."""
    if not m.is_square:
        raise ShapeError("presentation needs a square relation matrix")
    snf = smith_normal_form(m)
    diag = snf.diagonal
    free_positions = tuple(i for i, d in enumerate(diag) if d == 0)
    torsion_positions = tuple(i for i, d in enumerate(diag) if d >= 2)
    group = FgAbelianGroup(len(free_positions), tuple(diag[i] for i in torsion_positions))
    return Presentation(snf, group, free_positions, torsion_positions)


def is_isomorphic(g: FgAbelianGroup, h: FgAbelianGroup) -> bool:
    """Canonical forms are complete invariants, so this is equality."""
    return g == h


def tensor_z2(g: FgAbelianGroup) -> FgAbelianGroup:
    """Tensor with Z/2: one Z/2 per free generator and per even factor."""
    count = g.free_rank + sum(1 for m in g.torsion_factors if m % 2 == 0)
    return FgAbelianGroup(0, (2,) * count)


# ---------------------------------------------------------------------------
# heights and the pointed decision


def _p_valuation(p: int, x: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def height_sequence(p: int, factors: Sequence[int], coords: Sequence[int]):
    """Heights of x, p*x, p^2*x, ... in a finite abelian p-group.

    The height of y is the largest k with y in p^k * G (infinite for 0).
    The sequence stops at its first infinity.  Two elements of the same
    finite p-group lie in one automorphism orbit exactly when their
    sequences agree.
    """
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    exps = []
    for m in factors:
        f = _factorize(m)
        if set(f) != {p}:
            raise DomainError(f"factor {m} is not a power of {p}")
        exps.append(f[p])
    if len(coords) != len(factors):
        raise ShapeError("coordinate count does not match factor count")
    return _heights(p, exps, [c % m for c, m in zip(coords, factors)])


def _heights(p: int, exps: Sequence[int], coords: Sequence[int]):
    """Height sequence of coords in the sum of Z/p^e over exps, coords reduced.

    A nonzero coordinate of valuation v in Z/p^e contributes v + k to the
    height of p^k * x while v + k < e and vanishes after that.
    """
    live = [(_p_valuation(p, c), e) for c, e in zip(coords, exps) if c != 0]
    seq = []
    k = 0
    while live:
        seq.append(min(v for v, _ in live) + k)
        k += 1
        live = [(v, e) for v, e in live if v + k < e]
    seq.append(INFINITE)
    return tuple(seq)


def _primary_parts(factors: Sequence[int]):
    """For each prime p, the position and p-exponent of every factor p divides.

    Factorizes each factor once; the parts are shared by every element of
    the group whose orbit profile is taken.
    """
    parts: dict[int, list[tuple[int, int]]] = {}
    for k, m in enumerate(factors):
        for p, e in _factorize(m).items():
            parts.setdefault(p, []).append((k, e))
    return tuple((p, tuple(ks)) for p, ks in sorted(parts.items()))


def _orbit_profile(parts, coords: Sequence[int], d: int):
    """Orbit invariant of the coset coords + d*T: per-prime height sequences.

    In the p-part, d*T = p^k*T_p with k = v_p(d) (no coset for d = 0).  The
    coset holds every element that agrees with coords on the coordinates of
    valuation < k and has valuation >= k, or is 0, on the others; setting
    those to p^k (0 once k >= e) gives its element of pointwise least
    heights.  Automorphisms carry cosets of p^k*T to cosets and keep
    heights, so two cosets share an orbit exactly when these agree.  The
    exponents e matter: in Z/2 x Z/4 with d = 2, (1, 0) and (0, 1) share an
    orbit of T/2T but not modulo 2T.
    """
    profile = []
    for p, ks in parts:
        exps = [e for _, e in ks]
        cut = [coords[i] % p**e for i, e in ks]
        if d:
            k = _p_valuation(p, d)
            cut = [c if c and _p_valuation(p, c) < k else p**k % p**e for c, e in zip(cut, exps)]
        profile.append((p, _heights(p, exps, cut)))
    return tuple(profile)


def pointed_is_isomorphic(a: PointedGroup, b: PointedGroup) -> bool:
    """Decide exactly whether some isomorphism carries a.point to b.point.

    An automorphism of Z^r x T sends (f, t) to (Af, phi(f) + alpha t), with
    A in GL_r(Z), phi: Z^r -> T any map and alpha in Aut(T).  So (f, t) and
    (g, s) share an orbit exactly when f and g have the same content d (gcd
    of the free coordinates, 0 for none) and some alpha puts alpha t in
    s + d*T, which ``_orbit_profile`` decides with no search.
    """
    if not is_isomorphic(a.group, b.group):
        return False
    d = math.gcd(*a.point.free_coords)
    if d != math.gcd(*b.point.free_coords):
        return False
    parts = _primary_parts(a.group.torsion_factors)
    ta, tb = a.point.torsion_coords, b.point.torsion_coords
    return _orbit_profile(parts, ta, d) == _orbit_profile(parts, tb, d)
