"""Seeded input generation for the benchmark workloads.

Only the standard library is used.  Every generator takes a
``random.Random`` so a workload's inputs follow from its seed alone.
Matrices are lists of 0/1 rows.
"""

from __future__ import annotations

import math
import random

from checks import is_irreducible, power_traces

DET_PRIME = (1 << 61) - 1


def rng_for(seed: int, label: str) -> random.Random:
    """Independent stream per input family, so resizing one leaves the rest."""
    return random.Random(f"{label}:{seed}")


def random_matrix(rng: random.Random, n: int, density: float) -> list[list[int]]:
    """Random 0/1 matrix, irreducible by a planted Hamiltonian cycle."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for k in range(n):
        rows[order[k]][order[(k + 1) % n]] = 1
    if all(sum(r) == 1 for r in rows):
        rows[order[0]][order[0]] = 1
    return rows


def singular_matrix(rng: random.Random, n: int, density: float) -> list[list[int]]:
    """Irreducible matrix whose id - A has two equal rows, so det(id - A) = 0."""
    while True:
        rows = random_matrix(rng, n, density)
        i, j = rng.sample(range(n), 2)
        rows[j] = list(rows[i])
        rows[i][i] = rows[j][j] = 1
        rows[i][j] = rows[j][i] = 0
        if is_irreducible(rows):
            return rows


def relabel(rng: random.Random, rows) -> list[list[int]]:
    """P A P^t for a random permutation P."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def out_split(rng: random.Random, rows) -> list[list[int]]:
    """Split one state by partitioning its successors; copies share predecessors.

    The split state is read off the next symbol, so the recoding is a
    one-sided conjugacy and the invariant triple is unchanged.
    """
    n = len(rows)
    candidates = [s for s in range(n) if sum(rows[s]) >= 2]
    s = rng.choice(candidates)
    succ = [t for t in range(n) if rows[s][t]]
    rng.shuffle(succ)
    cut = rng.randint(1, len(succ) - 1)
    parts = (set(succ[:cut]), set(succ[cut:]))

    def expand(targets):
        row = [1 if t in targets else 0 for t in range(n)] + [0]
        if s in targets:
            row[n] = 1
        return row

    out = []
    for v in range(n):
        out.append(expand(parts[0]) if v == s else expand({t for t in range(n) if rows[v][t]}))
    out.append(expand(parts[1]))
    return out


def tail_extension_rows(base, c) -> list[list[int]]:
    """The documented tail construction: a tail of length c_i grafted on state i.

    State (i, j) with j < c_i steps to (i, j + 1); state (i, c_i) takes row
    i of the base matrix, pointing at the tail heads (t, 0).
    """
    n = len(base)
    states = [(i, j) for i in range(n) for j in range(c[i] + 1)]
    index = {s: k for k, s in enumerate(states)}
    out = [[0] * len(states) for _ in states]
    for (i, j), k in index.items():
        if j == c[i]:
            for t in range(n):
                out[k][index[(t, 0)]] = base[i][t]
        else:
            out[k][index[(i, j + 1)]] = 1
    return out


def census_period(rows, budget: int, longest: int = 24) -> tuple[int, int]:
    """Largest L with sum_{q <= L} trace(A^q) <= budget, and that sum.

    The sum counts the periodic points a census up to period L visits.
    """
    total = period = 0
    for q, points in enumerate(power_traces(rows, longest), start=1):
        if total + points > budget:
            break
        total, period = total + points, q
    return period, total


def census_matrix(rng: random.Random, n: int, density: float, budget: int, draws: int = 40):
    """(rows, period, points) of the draw whose census comes closest to ``budget`` points.

    Draws stop early at 95 % of the budget, so every census does nearly
    the same work whatever the seed.
    """
    best = (0, 0, None)
    for _ in range(draws):
        rows = random_matrix(rng, n, density)
        period, points = census_period(rows, budget)
        best = max(best, (points, period, rows), key=lambda b: b[0])
        if points >= 0.95 * budget:
            break
    points, period, rows = best
    return rows, period, points


def det_mod(rows, p: int = DET_PRIME) -> int:
    """det(id - A) modulo a prime, by elimination."""
    n = len(rows)
    m = [[((1 if i == j else 0) - rows[i][j]) % p for j in range(n)] for i in range(n)]
    det = 1
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        pr = m[j]
        det = det * pr[j] % p
        inv = pow(pr[j], -1, p)
        for i in range(j + 1, n):
            f = m[i][j]
            if f:
                f = f * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], pr)]
    return det % p


def exact_det(rows) -> int:
    """det(id - A) by fraction-free (Bareiss) elimination."""
    n = len(rows)
    a = [[(1 if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            row, head = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * piv - head * a[k][j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def prime_factors(n: int) -> list[int]:
    """Prime factors with multiplicity (Pollard rho), ascending."""
    n = abs(n)
    out = []
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        d = _rho(m)
        stack.extend((d, m // d))
    return sorted(out)
