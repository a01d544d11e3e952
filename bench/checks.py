"""Independent checkers for the benchmark's outputs.

Nothing here imports the package under test or its test suite: every
expected value is recomputed from the input matrices with plain rational
or modular arithmetic.  Each ``check_*`` function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit) if sieve[p]]


SMALL_PRIMES = _primes_below(1000)


def relation_matrix(rows) -> list[list[int]]:
    """id - A^t, whose cokernel is the Bowen-Franks group carrying [1]."""
    n = len(rows)
    return [[(1 if i == j else 0) - rows[j][i] for j in range(n)] for i in range(n)]


def rational_reduction(m, rhs):
    """Forward elimination of [m | rhs] over Q with sparse rows.

    Returns (rank, det, solution, rhs_in_span): det is 0 unless m is
    square of full rank, solution solves m x = rhs when det != 0, and
    rhs_in_span says whether rhs lies in the rational column span of m.
    """
    n = len(m)
    cols = len(m[0])
    rows = []
    for r, b in zip(m, rhs):
        row = {j: Fraction(x) for j, x in enumerate(r) if x}
        if b:
            row[cols] = Fraction(b)
        rows.append(row)
    free = list(range(n))
    pivots = []  # (column, row dict)
    det = Fraction(1)
    for j in range(cols):
        best = None
        for pos, i in enumerate(free):
            if j in rows[i] and (best is None or len(rows[i]) < len(rows[free[best]])):
                best = pos
        if best is None:
            det = Fraction(0)
            continue
        pi = free.pop(best)
        prow = rows[pi]
        pval = prow[j]
        det *= pval
        for i in free:
            row = rows[i]
            x = row.get(j)
            if x is None:
                continue
            f = x / pval
            for k, y in prow.items():
                v = row.get(k, 0) - f * y
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
        pivots.append((j, prow, pi))
    rank = len(pivots)
    in_span = all(cols not in rows[i] for i in free)
    solution = None
    if rank == n == cols:
        # permutation sign of the pivot row order
        order = [pi for _, _, pi in pivots]
        det *= _permutation_sign(order)
        x = [Fraction(0)] * cols
        for j, prow, _ in reversed(pivots):
            acc = prow.get(cols, Fraction(0))
            for k, y in prow.items():
                if k != j and k != cols:
                    acc -= y * x[k]
            x[j] = acc / prow[j]
        solution = x
    else:
        det = Fraction(0)
    return rank, int(det), solution, in_span


def _permutation_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def rank_mod_p(m, p: int) -> int:
    rows = [[x % p for x in r] for r in m]
    rank = 0
    cols = len(rows[0])
    for j in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[j], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][j]
            if f:
                f = f * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def element_order(factors, coords) -> int:
    """Order of a torsion element of Z/m1 + ... + Z/mk."""
    order = 1
    for m, c in zip(factors, coords):
        order = math.lcm(order, m // math.gcd(c % m, m))
    return order


def is_irreducible(rows) -> bool:
    """Breadth-first reachability from state 0 along and against the edges."""
    n = len(rows)
    for forward in (True, False):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in range(n):
                    edge = rows[v][w] if forward else rows[w][v]
                    if edge and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != n:
            return False
    return True


def is_permutation(rows) -> bool:
    n = len(rows)
    return all(sum(r) == 1 for r in rows) and all(sum(r[j] for r in rows) == 1 for j in range(n))


def rational_invariants(rows) -> dict:
    """det(id - A), the rational rank of id - A^t and data on the [1] class."""
    m = relation_matrix(rows)
    n = len(rows)
    rank, det, solution, in_span = rational_reduction(m, [1] * n)
    unit_order = None
    if solution is not None:
        unit_order = 1
        for x in solution:
            unit_order = math.lcm(unit_order, x.denominator)
    return {"n": n, "rank": rank, "det": det, "unit_order": unit_order, "unit_torsion": in_span}


def check_invariant(rows, summary: dict, facts: dict | None = None) -> list[str]:
    """Compare a reported invariant (as in MarkovInvariant.summary()) with rows."""
    facts = facts or rational_invariants(rows)
    errs = []
    det = facts["det"]
    sign = (det > 0) - (det < 0)
    free_rank = summary["free_rank"]
    torsion = list(summary["torsion_factors"])
    if summary["determinant"] != det:
        errs.append(f"determinant {summary['determinant']} != {det}")
    if summary["sign"] != sign:
        errs.append(f"sign {summary['sign']} != {sign}")
    if free_rank != facts["n"] - facts["rank"]:
        errs.append(f"free rank {free_rank} != corank {facts['n'] - facts['rank']}")
    if any(t < 2 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        errs.append(f"torsion factors {torsion} are not an invariant-factor chain")
        return errs
    order = math.prod(torsion)
    if det and order != abs(det):
        errs.append(f"torsion order {order} != |det| {abs(det)}")
    m = relation_matrix(rows)
    for p in SMALL_PRIMES:
        if p > 3 and order % p:
            continue
        expected = free_rank + sum(1 for t in torsion if t % p == 0)
        if facts["n"] - rank_mod_p(m, p) != expected:
            errs.append(f"rank over F_{p} disagrees with {expected} factors divisible by {p}")
    point_free = list(summary["point_free"])
    point_torsion = list(summary["point_torsion"])
    if len(point_free) != free_rank or len(point_torsion) != len(torsion):
        errs.append("point coordinates do not fit the group")
        return errs
    if facts["unit_order"] is not None:
        got = element_order(torsion, point_torsion)
        if got != facts["unit_order"]:
            errs.append(f"point order {got} != order of [1] {facts['unit_order']}")
    elif facts["unit_torsion"] != (not any(point_free)):
        errs.append("free part of the point disagrees with the rational span of id - A^t")
    return errs


def check_realized(rows, free_rank: int, torsion, point, sign: int) -> list[str]:
    """A realized matrix must be 0/1, irreducible, not a permutation, and
    carry the requested group, point order and determinant sign."""
    n = len(rows)
    if n < 2 or any(len(r) != n for r in rows):
        return ["realized matrix is not square with at least 2 states"]
    if any(x not in (0, 1) for r in rows for x in r):
        return ["realized matrix is not 0/1"]
    if not is_irreducible(rows):
        return ["realized matrix is reducible"]
    if is_permutation(rows):
        return ["realized matrix is a permutation matrix"]
    facts = rational_invariants(rows)
    det = facts["det"]
    errs = []
    if (det > 0) - (det < 0) != sign:
        errs.append(f"det(id - A) = {det} has the wrong sign for {sign}")
    if free_rank != n - facts["rank"]:
        errs.append(f"corank {n - facts['rank']} != requested free rank {free_rank}")
    order = math.prod(torsion)
    if det and abs(det) != order:
        errs.append(f"|det| {abs(det)} != requested torsion order {order}")
    m = relation_matrix(rows)
    for p in SMALL_PRIMES:
        if p > 3 and order % p:
            continue
        expected = free_rank + sum(1 for t in torsion if t % p == 0)
        if n - rank_mod_p(m, p) != expected:
            errs.append(f"rank over F_{p} disagrees with the requested group")
    point_free, point_torsion = point
    if facts["unit_order"] is not None:
        if element_order(torsion, point_torsion) != facts["unit_order"]:
            errs.append("order of [1] differs from the order of the requested point")
    elif facts["unit_torsion"] != (not any(point_free)):
        errs.append("[1] has the wrong free part")
    return errs


def check_pair_verdict(kind: str, left: dict, right: dict, coe, flow: bool) -> list[str]:
    """The paper's chain COE => flow => equal det, plus what each kind forces.

    ``left`` and ``right`` are the independently computed facts of the two
    matrices (see rational_invariants); ``coe`` is None when not decided.
    """
    errs = []
    if coe and not flow:
        errs.append("COE holds but flow equivalence does not")
    if flow and left["det"] != right["det"]:
        errs.append("flow equivalent but det(id - A) differs")
    if flow and left["n"] - left["rank"] != right["n"] - right["rank"]:
        errs.append("flow equivalent but the free ranks differ")
    if kind in ("relabel", "recode", "split") and not (flow and coe is not False):
        errs.append(f"{kind} partners are conjugate, yet equivalence was denied")
    return errs


# ---------------------------------------------------------------------------
# periodic orbits and orbit sums


def power_traces(rows, max_power: int):
    """Yield trace(A^q) for q = 1..max_power, by repeated multiplication."""
    n = len(rows)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    power = [list(r) for r in rows]
    for q in range(1, max_power + 1):
        yield sum(power[i][i] for i in range(n))
        if q < max_power:
            power = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in power]


def cyclic_ok(rows, word) -> bool:
    n = len(word)
    return n > 0 and all(rows[word[i] - 1][word[(i + 1) % n] - 1] for i in range(n))


def own_orbit_sum(table: dict, window: int, word) -> int:
    n = len(word)
    return sum(table[tuple(word[(i + t) % n] for t in range(window))] for i in range(n))


def check_census(rows, max_period, table, window, words, sums, counts) -> list[str]:
    errs = []
    traces = list(power_traces(rows, max_period))
    if list(counts) != traces:
        errs.append("count_period_points differs from trace(A^q)")
    by_length = {}
    seen = set()
    for w in words:
        w = tuple(w)
        if w in seen:
            errs.append(f"orbit {w} listed twice")
        seen.add(w)
        if not cyclic_ok(rows, w):
            errs.append(f"orbit word {w} is not cyclically admissible")
        rotations = [w[i:] + w[:i] for i in range(1, len(w))]
        if any(r <= w for r in rotations):
            errs.append(f"orbit word {w} is not a primitive least rotation")
        by_length[len(w)] = by_length.get(len(w), 0) + 1
    for q in range(1, max_period + 1):
        weighted = sum(d * by_length.get(d, 0) for d in range(1, q + 1) if q % d == 0)
        if weighted != traces[q - 1]:
            errs.append(f"sum over d | {q} of d * #orbits(d) is {weighted}, trace is {traces[q - 1]}")
    if len(sums) != len(words) or any(
        s != own_orbit_sum(table, window, w) for s, w in zip(sums, words)
    ):
        errs.append("orbit_sum differs from the benchmark's own orbit sums")
    return errs


def check_positivity(rows, table, window, expect_positive: bool, positive: bool, witness) -> list[str]:
    if positive != expect_positive:
        return [f"class built {'positive' if expect_positive else 'negative'} was judged otherwise"]
    if positive:
        return [] if witness is None else ["positive verdict carries a witness"]
    if witness is None or not cyclic_ok(rows, witness):
        return ["negative verdict without a cyclically admissible witness"]
    if own_orbit_sum(table, window, witness) >= 0:
        return ["witness orbit sum is not negative"]
    return []
