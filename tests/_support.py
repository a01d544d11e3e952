"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import product
from typing import Sequence

from markovshift import (
    DomainError,
    FgAbelianGroup,
    GroupElement,
    IntMatrix,
    LocallyConstantFn,
    MarkovInvariant,
    NonNegMatrix,
    PointedGroup,
    ShapeError,
    ZeroOneMatrix,
    admissible_words,
    is_irreducible,
    orbit_sum,
    relation_matrix,
    smith_normal_form,
)


class OracleLimitError(Exception):
    """An oracle was asked about an instance outside the size it handles."""


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def identity_minus(a: NonNegMatrix) -> IntMatrix:
    """The integer matrix id - A, untransposed; the library presents id - A^t."""
    return IntMatrix(tuple(tuple(int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(a.entries)))


def mul_vector(m: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """The matrix-vector product M v."""
    assert len(v) == m.cols
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m.entries)


def elements(group: FgAbelianGroup) -> list[GroupElement]:
    """Every element of a finite group, in lexicographic coordinate order."""
    assert group.is_finite
    return [GroupElement((), coords) for coords in product(*(range(m) for m in group.torsion_factors))]


def constant_fn(a: ZeroOneMatrix, value: int, window: int = 1) -> LocallyConstantFn:
    return LocallyConstantFn.over(a, window, {w: value for w in admissible_words(a, window)})


def least_rotation_period(word: Sequence[int]) -> int:
    """Smallest p > 0 with rotate(word, p) == word."""
    ws = tuple(word)
    return next(p for p in range(1, len(ws) + 1) if ws[p:] + ws[:p] == ws)


def int_matrix(rows) -> IntMatrix:
    return IntMatrix(tuple(map(tuple, rows)))


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return int_matrix(
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
    rank = sum(1 for d in snf.diagonal if d != 0)
    if rank == m.cols:
        return []
    cols = list(zip(*snf.V.entries))
    return [tuple(cols[j]) for j in range(rank, m.cols)]


def solve_linear(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """Some integer solution x of M x = b, or None when none exists."""
    if len(b) != m.rows:
        raise ShapeError(f"right-hand side of length {len(b)} does not fit {m.rows} rows")
    snf = smith_normal_form(m)
    y = mul_vector(snf.U, b)
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
    return mul_vector(snf.V, w)


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
    """Random irreducible non-permutation 0/1 matrix of size n >= 2.

    ValueError for n < 2: the one 1-state 0/1 matrix with a nonzero row,
    [[1]], is a permutation matrix, so no draw would ever be returned.
    """
    if n < 2:
        raise ValueError(f"no irreducible non-permutation 0/1 matrix has {n} states")
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
    """Random irreducible non-permutation nonnegative matrix of size n.

    ValueError when no draw could pass: a 1-state matrix needs an entry of
    at least 2, since [[1]] is a permutation matrix.
    """
    if n < 1 or max_entry < (2 if n == 1 else 1):
        raise ValueError(f"no irreducible non-permutation matrix has {n} states and entries <= {max_entry}")
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


def random_out_split(rng: random.Random, a: NonNegMatrix) -> NonNegMatrix:
    """Split one state by dividing its outgoing edges between two copies.

    The copies keep every incoming edge, so their columns are equal; the
    second copy is appended as the last state.
    """
    rows = [list(r) for r in a.entries]
    s = rng.choice([i for i, r in enumerate(rows) if sum(r) >= 2])
    edges = [t for t, count in enumerate(rows[s]) for _ in range(count)]
    rng.shuffle(edges)
    cut = rng.randint(1, len(edges) - 1)
    first, second = [0] * a.size, [0] * a.size
    for t in edges[:cut]:
        first[t] += 1
    for t in edges[cut:]:
        second[t] += 1
    rows[s] = first
    rows.append(second)
    return NonNegMatrix.from_rows(r + [r[s]] for r in rows)


def in_split(rng: random.Random, rows: list[list[int]]) -> None:
    """Split a state v of 0/1 rows in place: a new last state v' takes some of v's incoming edges.

    v is drawn until its column has two 1s or more: rows with more 1s than
    states have one, and both moves keep that.  v' keeps v's row, so a
    self-loop at v goes out of both copies, to the copy that received it.
    An in-split is a conjugacy of the two-sided shift (Lind and Marcus
    1995, section 2.4): it keeps the group and det(id - A), not always the
    point.
    """
    into: list[int] = []
    while len(into) < 2:
        v = rng.randrange(len(rows))
        into = [u for u, row in enumerate(rows) if row[v]]
    for row in rows:
        row.append(0)
    for u in rng.sample(into, rng.randint(1, len(into) - 1)):
        rows[u][v], rows[u][-1] = 0, 1
    rows.append(list(rows[v]))


def symbol_expansion(rng: random.Random, rows: list[list[int]]) -> None:
    """Expand a state v of 0/1 rows in place into the path v -> v', v' a new last state.

    Row v becomes the one edge v -> v', and v' takes v's old row.  A symbol
    expansion is a flow equivalence (Parry and Sullivan 1975): it keeps the
    group and det(id - A), not always the point.
    """
    v = rng.randrange(len(rows))
    for row in rows:
        row.append(0)
    rows.append(rows[v])
    rows[v] = [0] * len(rows)
    rows[v][-1] = 1


def presentation_by_smith_form(m: IntMatrix, v: Sequence[int]) -> tuple[FgAbelianGroup, GroupElement, int]:
    """Oracle for ``from_presentation``: one Smith form of all of m.

    Its recorded row operations are replayed on v, the diagonal positions
    give the coordinates, and the determinant is read off the same record,
    with no unit-pivot pass in front.
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal
    w = snf.u_times(v)
    group = FgAbelianGroup(diag.count(0), tuple(d for d in diag if d >= 2))
    point = group.element([x for x, d in zip(w, diag) if d == 0], [x for x, d in zip(w, diag) if d >= 2])
    return group, point, snf.determinant


def invariant_unmerged(a: NonNegMatrix) -> MarkovInvariant:
    """The invariant from one Smith form of id - A^t on the matrix as given.

    No states are merged and no unit pivots are cleared first, so this is
    an independent check of the column amalgamation and of the pass that
    ``invariant_triple`` runs.
    """
    group, point, det_value = presentation_by_smith_form(relation_matrix(a), (1,) * a.size)
    return MarkovInvariant(group=group, point=point, det_value=det_value)


def cyclic_tails_by_walk(m: int, weights: tuple[int, int], u: int, bound: int) -> tuple[int, int] | None:
    """Oracle for ``cyclic_tails``: walk the tails by sum, c1 ascending within a sum.

    Returns the first (c1, c2) whose class w1 (1 + c1) + w2 (1 + c2) has
    gcd(class, m) = gcd(u, m), or None when no sum below bound has one.
    A sum k costs k + 1 gcds, so keep m small.
    """
    w1, w2 = weights
    g = math.gcd(u, m)
    for k in range(bound):
        for c1 in range(k + 1):
            if math.gcd(w1 * (1 + c1) + w2 * (1 + k - c1), m) == g:
                return c1, k - c1
    return None


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


def allows(m, s: int, t: int) -> bool:
    """True when symbol t may follow symbol s."""
    return m.entries[s - 1][t - 1] >= 1


def pairs_allowed(m, word) -> bool:
    """Admissibility read straight from the rows of the matrix."""
    return all(1 <= s <= m.size for s in word) and all(allows(m, s, t) for s, t in zip(word, word[1:]))


def _cyclic_pairs_allowed(m, word) -> bool:
    """Cyclic admissibility read straight from the rows of the matrix."""
    n = len(word)
    return n > 0 and all(m.entries[word[i] - 1][word[(i + 1) % n] - 1] >= 1 for i in range(n))


def naive_periodic_orbit_words(m, max_period: int) -> list[tuple[int, ...]]:
    """Brute-force orbit enumeration: filter every word by hand."""
    from markovshift import lex_min_rotation

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


def attracting_weight(a: ZeroOneMatrix, fn: LocallyConstantFn, cycle: Sequence[int], n: int) -> int:
    """Weight of winding n times around a cycle, the periodic tail of a point.

    Equals n times the orbit sum of the cycle; this is the value the
    induced cocycle takes on the attracting loop at the point.
    """
    if n < 1:
        raise DomainError("winding count must be positive")
    return n * orbit_sum(a, fn, cycle)


def coboundary(a: ZeroOneMatrix, eta: LocallyConstantFn) -> LocallyConstantFn:
    """The function eta - eta o shift, one window wider than eta."""
    k = eta.window
    table = {}
    for w in admissible_words(a, k + 1):
        table[w] = eta.values[w[:k]] - eta.values[w[1:]]
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
            raise OracleLimitError("orbit_brute_force requires finite groups")
        order = pg.group.order()
        assert order is not None
        if order > bound:
            raise OracleLimitError(f"group of order {order} exceeds the brute-force bound {bound}")
    if a.group != b.group:
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
    if a.group != b.group:
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


# ---------------------------------------------------------------------------
# factoring oracle for the pointed decision


def prime_factorization(n: int) -> dict[int, int]:
    """Prime exponents of n >= 1, by trial division up to sqrt(n)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_valuation(p: int, x: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def p_heights(p: int, exps: Sequence[int], coords: Sequence[int]) -> tuple:
    """Height sequence of coords in the sum of Z/p^e over exps, coords reduced.

    The heights of x, p*x, p^2*x, ... up to the first infinity; a nonzero
    coordinate of valuation v in Z/p^e contributes v + k to the height of
    p^k * x while v + k < e.
    """
    live = [(p_valuation(p, c), e) for c, e in zip(coords, exps) if c != 0]
    seq = []
    k = 0
    while live:
        seq.append(min(v for v, _ in live) + k)
        k += 1
        live = [(v, e) for v, e in live if v + k < e]
    seq.append(math.inf)
    return tuple(seq)


def prime_orbit_profile(factors: Sequence[int], coords: Sequence[int], d: int, factorize=prime_factorization):
    """Orbit invariant of the coset coords + d*T: per-prime height sequences.

    In the p-part, d*T = p^k*T_p with k = v_p(d) (no coset for d = 0).
    Setting every coordinate of valuation >= k to p^k (0 once k >= e)
    gives the coset's element of pointwise least heights, and
    automorphisms carry cosets to cosets and keep heights (Hillar & Rhea
    2007).
    """
    parts: dict[int, list[tuple[int, int]]] = {}
    for i, m in enumerate(factors):
        for p, e in factorize(m).items():
            parts.setdefault(p, []).append((i, e))
    profile = []
    for p, ies in sorted(parts.items()):
        exps = [e for _, e in ies]
        cut = [coords[i] % p**e for i, e in ies]
        if d:
            k = p_valuation(p, d)
            cut = [c if c and p_valuation(p, c) < k else p**k % p**e for c, e in zip(cut, exps)]
        profile.append((p, p_heights(p, exps, cut)))
    return tuple(profile)


def pointed_by_factoring(a: PointedGroup, b: PointedGroup, factorize=prime_factorization) -> bool:
    """Pointed-isomorphism oracle that factors every torsion factor.

    Equal groups, equal content d of the free parts, then equal per-prime
    profiles of the cosets t + d*T and s + d*T.  ``factorize`` maps a
    factor to its prime exponents; trial division by default.
    """
    if a.group != b.group:
        return False
    d = math.gcd(*a.point.free_coords)
    if d != math.gcd(*b.point.free_coords):
        return False
    factors = a.group.torsion_factors
    return prime_orbit_profile(factors, a.point.torsion_coords, d, factorize) == prime_orbit_profile(
        factors, b.point.torsion_coords, d, factorize
    )


def negative_cycle_full_rounds(adj: list[list[int]], weight: list[int]) -> list[int] | None:
    """Negative-cycle oracle: Bellman-Ford that runs all len(adj) + 1 rounds before it reads a cycle.

    Edge u -> v weighs weight[u].  An update that survives len(adj) full
    rounds certifies a negative cycle, read off the predecessor chain of
    the node updated last after walking len(adj) steps back.
    """
    n = len(adj)
    dist = [0] * n
    pred: dict[int, int] = {}
    edges = [(u, v) for u in range(n) for v in adj[u]]
    last_updated = None
    for _ in range(n + 1):
        last_updated = None
        for u, v in edges:
            candidate = dist[u] + weight[u]
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                last_updated = v
        if last_updated is None:
            return None
    node = last_updated
    for _ in range(n):
        node = pred[node]
    cycle = [node]
    walk = pred[node]
    while walk != node:
        cycle.append(walk)
        walk = pred[walk]
    cycle.reverse()
    return cycle


def matrix_product_by_loops(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """Product oracle: the textbook triple loop over rows, columns and the inner index."""
    assert x.cols == y.rows
    out = []
    for i in range(x.rows):
        row = []
        for j in range(y.cols):
            total = 0
            for k in range(x.cols):
                total += x.entries[i][k] * y.entries[k][j]
            row.append(total)
        out.append(tuple(row))
    return IntMatrix(tuple(out))
