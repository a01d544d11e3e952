"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import product
from typing import Sequence

from markovshift import (
    DomainError,
    EventuallyPeriodicPoint,
    IntMatrix,
    LocallyConstantFn,
    NonNegMatrix,
    PointedGroup,
    ShapeError,
    UnsupportedError,
    ZeroOneMatrix,
    admissible_words,
    is_irreducible,
    is_isomorphic,
    orbit_sum,
    smith_normal_form,
)


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def cofactor_determinant(m: IntMatrix) -> int:
    """Independent determinant oracle: recursive cofactor expansion."""
    n = m.rows
    rows = [list(r) for r in m.entries]

    def det(sub: list[list[int]]) -> int:
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            if sub[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    return det(rows)


def kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {v : M v = 0}; empty list if trivial.

    The vectors come from the columns of the Smith-form column transform
    and therefore generate the kernel as a lattice.
    """
    snf = smith_normal_form(m)
    rank = snf.rank
    if rank == m.cols:
        return []
    cols = list(zip(*snf.V.entries))
    return [tuple(cols[j]) for j in range(rank, m.cols)]


def solve_linear(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Some integer solution x of M x = b, or None when none exists."""
    if len(b) != m.rows:
        raise ShapeError(f"right-hand side of length {len(b)} does not fit {m.rows} rows")
    snf = smith_normal_form(m)
    y = snf.U.mul_vector(tuple(b))
    diag = snf.diagonal
    w = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % d != 0:
                return None
            if i < m.cols:
                w[i] = y[i] // d
    return snf.V.mul_vector(w)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so that each call appends its first argument to the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_zero_one(rng: random.Random, n: int, density: float = 0.5) -> ZeroOneMatrix:
    """Random irreducible non-permutation 0/1 matrix of size n."""
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if any(sum(r) == 0 for r in rows):
            continue
        if any(sum(rows[i][j] for i in range(n)) == 0 for j in range(n)):
            continue
        if all(sum(r) == 1 for r in rows) and all(
            sum(rows[i][j] for i in range(n)) == 1 for j in range(n)
        ):
            continue
        m = ZeroOneMatrix.from_rows(rows)
        if is_irreducible(m):
            return m


def random_nonneg(rng: random.Random, n: int, max_entry: int = 3) -> NonNegMatrix:
    """Random irreducible non-permutation nonnegative matrix of size n."""
    while True:
        rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
        if any(sum(r) == 0 for r in rows):
            continue
        if any(sum(rows[i][j] for i in range(n)) == 0 for j in range(n)):
            continue
        if sum(x for r in rows for x in r) == n and all(x <= 1 for r in rows for x in r):
            continue
        m = NonNegMatrix.from_rows(rows)
        if is_irreducible(m):
            return m


def invariant_factor_chains(order: int) -> list[tuple[int, ...]]:
    """All invariant-factor chains m1 | m2 | ... with product equal to order."""
    if order == 1:
        return [()]
    out = []

    def extend(remaining: int, prev: int, acc: tuple[int, ...]):
        for m in range(2, remaining + 1):
            if remaining % m == 0 and m % prev == 0:
                if remaining == m:
                    out.append(acc + (m,))
                else:
                    extend(remaining // m, m, acc + (m,))

    extend(order, 1, ())
    return out


def all_shapes_up_to(max_order: int) -> list[tuple[int, ...]]:
    shapes = []
    for n in range(1, max_order + 1):
        shapes.extend(invariant_factor_chains(n))
    return shapes


def _cyclic_pairs_allowed(m, word) -> bool:
    """Cyclic admissibility read straight from the rows of the matrix."""
    n = len(word)
    return n > 0 and all(m.entries[word[i] - 1][word[(i + 1) % n] - 1] >= 1 for i in range(n))


def naive_periodic_orbit_words(m, max_period: int) -> list[tuple[int, ...]]:
    """Brute-force orbit enumeration: filter every word by hand."""
    from markovshift import least_rotation_period, lex_min_rotation

    out = []
    for q in range(1, max_period + 1):
        for word in product(range(1, m.size + 1), repeat=q):
            if (
                _cyclic_pairs_allowed(m, word)
                and lex_min_rotation(word) == word
                and least_rotation_period(word) == q
            ):
                out.append(word)
    return out


def naive_orbit_sum(m, fn, cycle) -> int:
    """Orbit-sum oracle: one table lookup per window, each window built index by index."""
    assert _cyclic_pairs_allowed(m, cycle)
    n = len(cycle)
    return sum(
        fn.values[tuple(cycle[(i + t) % n] for t in range(fn.window))] for i in range(n)
    )


def attracting_weight(
    a: ZeroOneMatrix, fn: LocallyConstantFn, x: EventuallyPeriodicPoint, n: int
) -> int:
    """Weight of winding n times around the periodic tail of x.

    Equals n times the orbit sum of the cycle; this is the value the
    induced cocycle takes on the attracting loop at x.
    """
    if n < 1:
        raise DomainError("winding count must be positive")
    return n * orbit_sum(a, fn, x.cycle.symbols)


def coboundary(a: ZeroOneMatrix, eta: LocallyConstantFn) -> LocallyConstantFn:
    """The function eta - eta o shift, one window wider than eta."""
    k = eta.window
    table = {}
    for w in admissible_words(a, k + 1):
        table[w] = eta.value(w[:k]) - eta.value(w[1:])
    return LocallyConstantFn(k + 1, table)


def literal_automorphism_tuples(factors: tuple[int, ...]):
    """Every automorphism of a small group by raw generator-image search.

    Enumerates all assignments of images to the canonical generators that
    respect the generator orders, and keeps those inducing a bijection.
    Exponential; only for tiny groups inside tests.
    """
    elements = list(product(*(range(m) for m in factors)))
    candidates = []
    for m in factors:
        candidates.append([g for g in elements if all((m * c) % f == 0 for c, f in zip(g, factors))])
    autos = []
    for images in product(*candidates):
        seen = set()
        ok = True
        for coeffs in elements:
            y = tuple(
                sum(c * img[i] for c, img in zip(coeffs, images)) % factors[i]
                for i in range(len(factors))
            )
            if y in seen:
                ok = False
                break
            seen.add(y)
        if ok:
            autos.append(images)
    return autos


def apply_literal_automorphism(images, coords, factors):
    return tuple(
        sum(c * img[i] for c, img in zip(coords, images)) % factors[i]
        for i in range(len(factors))
    )


# ---------------------------------------------------------------------------
# exhaustive orbit oracle for finite groups


@lru_cache(maxsize=None)
def elementary_automorphisms(factors: tuple[int, ...]):
    """Generating family of Aut(Z/m1 x ... x Z/mk) as coordinate maps.

    Emits every unit scaling of a single coordinate, every transvection
    x_j += c * x_i that is well defined (mj must divide c * mi), and every
    swap of equal factors.  Each map is trivially invertible within the
    family, so closures under it are genuine orbit subsets.
    """
    gens = []
    k = len(factors)
    for i, m in enumerate(factors):
        for unit in range(2, m):
            if math.gcd(unit, m) == 1:
                gens.append(("scale", i, unit))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            mi, mj = factors[i], factors[j]
            step = mj // math.gcd(mi, mj)
            for c in range(step, mj, step):
                assert (c * mi) % mj == 0
                gens.append(("shear", i, j, c))
    for i in range(k):
        for j in range(i + 1, k):
            if factors[i] == factors[j]:
                gens.append(("swap", i, j))
    return tuple(gens)


def apply_generator(gen, coords: tuple[int, ...], factors: tuple[int, ...]) -> tuple[int, ...]:
    kind = gen[0]
    out = list(coords)
    if kind == "scale":
        _, i, unit = gen
        out[i] = (unit * out[i]) % factors[i]
    elif kind == "shear":
        _, i, j, c = gen
        out[j] = (out[j] + c * coords[i]) % factors[j]
    else:
        _, i, j = gen
        out[i], out[j] = out[j], out[i]
    return tuple(out)


@lru_cache(maxsize=None)
def aut_orbit(factors: tuple[int, ...], start: tuple[int, ...]) -> frozenset:
    """Orbit of an element under the full automorphism group.

    Computed as the closure of the starting element under the elementary
    automorphism family; every map applied is an automorphism, so the
    result never overshoots the true orbit.
    """
    gens = elementary_automorphisms(factors)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = apply_generator(gen, x, factors)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def orbit_brute_force(a: PointedGroup, b: PointedGroup, bound: int = 512) -> bool:
    """Exhaustive pointed-isomorphism oracle for small finite groups.

    Enumerates the full automorphism orbit of a.point and tests whether
    b.point lies in it.  Only finite groups of order at most ``bound``
    are accepted.
    """
    for pg in (a, b):
        if not pg.group.is_finite:
            raise UnsupportedError("orbit_brute_force requires finite groups")
        order = pg.group.order()
        assert order is not None
        if order > bound:
            raise UnsupportedError(f"group of order {order} exceeds the brute-force bound {bound}")
    if not is_isomorphic(a.group, b.group):
        return False
    orbit = aut_orbit(a.group.torsion_factors, a.point.torsion_coords)
    return b.point.torsion_coords in orbit


def pointed_orbit_brute_force(a: PointedGroup, b: PointedGroup) -> bool:
    """Pointed-isomorphism oracle for Z^r x T with a small torsion part T.

    An automorphism sends (f, t) to (Af, phi(f) + alpha t), so (f, t) and
    (g, s) share an orbit exactly when f and g have the same content d and
    some y in the Aut(T)-orbit of t lies in s + d*T, that is, agrees with s
    modulo gcd(d, mi) in every coordinate.  The orbit is ``aut_orbit``.
    """
    if not is_isomorphic(a.group, b.group):
        return False
    d = math.gcd(*a.point.free_coords)
    if d != math.gcd(*b.point.free_coords):
        return False
    factors = a.group.torsion_factors
    mods = [math.gcd(d, m) for m in factors]
    target = b.point.torsion_coords
    return any(
        all((y - s) % m == 0 for y, s, m in zip(ys, target, mods))
        for ys in aut_orbit(factors, a.point.torsion_coords)
    )
