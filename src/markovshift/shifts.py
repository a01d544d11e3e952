"""Transition matrices as symbolic dynamical systems.

Matrices act on the alphabet {1, ..., N}; a word is admissible when every
consecutive pair is allowed by the matrix.  This module covers structural
validation (zero rows, irreducibility, whether the shift space has
isolated points), periodic-orbit enumeration, the edge-shift conversion of
a nonnegative matrix, and higher-block recodings.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, compress
from operator import mul

from ._value import frozen
from .errors import DomainError, PreconditionError, ShapeError
from .intmat import IntMatrix, _check_ints, _is_int, _product


@frozen
class NonNegMatrix:
    """Square matrix over the nonnegative integers, no zero row or column."""

    entries: tuple[tuple[int, ...], ...]

    MIN_SIZE = 1
    ZERO_ONE = False

    def __post_init__(self):
        entries = self.entries
        n = len(entries)
        if n < self.MIN_SIZE:
            raise ShapeError(f"matrix must have size at least {self.MIN_SIZE}")
        if any(len(row) != n for row in entries):
            raise ShapeError("transition matrix must be square")
        # whole-matrix passes; only a failed one walks the entries, to name the first bad one
        if (
            set(map(type, chain.from_iterable(entries))) != {int}
            or min(map(min, entries)) < 0
            or (self.ZERO_ONE and max(map(max, entries)) > 1)
        ):
            self._check_each_entry()
        if not all(map(any, entries)):
            i = next(i for i, row in enumerate(entries) if not any(row))
            raise DomainError(f"row {i + 1} is identically zero")
        if not all(map(any, zip(*entries))):
            j = next(j for j, col in enumerate(zip(*entries)) if not any(col))
            raise DomainError(f"column {j + 1} is identically zero")

    def _check_each_entry(self):
        """Raise for the first bad entry in row-major order.

        Every entry is checked to be a nonnegative integer before, in a 0/1
        matrix, any entry is checked to be at most 1.
        """
        for i, row in enumerate(self.entries):
            for x in row:
                _check_ints("entry", (x,))
                if x < 0:
                    raise DomainError(f"negative entry {x} in row {i + 1}")
        if self.ZERO_ONE:
            for x in chain.from_iterable(self.entries):
                if x > 1:
                    raise DomainError(f"entry {x} is not in {{0, 1}}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]):
        return cls(tuple(map(tuple, rows)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, s: int, t: int) -> int:
        """Entry for the symbol pair (s, t); symbols are 1-based."""
        return self.entries[s - 1][t - 1]

    def as_int_matrix(self) -> IntMatrix:
        return IntMatrix(self.entries)


@frozen
class ZeroOneMatrix(NonNegMatrix):
    """Transition matrix with entries in {0, 1} and at least two states."""

    MIN_SIZE = 2
    ZERO_ONE = True


def _check_count(what: str, k) -> None:
    """Raise ShapeError unless k is an integer, then DomainError unless k >= 1."""
    _check_ints(what, (k,))
    if k < 1:
        raise DomainError(f"{what} must be at least 1")


def relation_matrix(a: NonNegMatrix) -> IntMatrix:
    """The integer matrix id - A^t, whose columns present BF(A^t)."""
    rows = []
    for i, row in enumerate(zip(*a.entries)):
        negated = [-x for x in row]
        negated[i] += 1
        rows.append(tuple(negated))
    return IntMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# words


def _follows(a: NonNegMatrix, row: tuple[int, ...], ws: tuple[int, ...]) -> bool:
    """True when ws[0] has a nonzero entry in row, and each later symbol one
    in the row of the symbol before it.

    Entries are nonnegative, so a nonzero entry is exactly an allowed pair.
    The symbols must already be known to lie in the alphabet.
    """
    rows = a.entries
    for s in ws:
        if not row[s - 1]:
            return False
        row = rows[s - 1]
    return True


def is_cyclically_admissible(a: NonNegMatrix, word) -> bool:
    ws = tuple(word)
    if not ws or min(ws) < 1 or max(ws) > a.size:
        return False
    return _follows(a, a.entries[ws[-1] - 1], ws)


def lex_min_rotation(word) -> tuple[int, ...]:
    ws = tuple(word)
    return min(ws[i:] + ws[:i] for i in range(len(ws)))


# ---------------------------------------------------------------------------
# structural checks


def _adjacency(a: NonNegMatrix) -> list[list[int]]:
    # entries are nonnegative, so a nonzero entry is exactly an edge
    states = range(a.size)
    return [list(compress(states, row)) for row in a.entries]


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_irreducible(a: NonNegMatrix) -> bool:
    """True when the directed graph of the matrix is strongly connected."""
    n = a.size
    adj = _adjacency(a)
    if len(_reachable(adj, 0)) != n:
        return False
    radj: list[list[int]] = [[] for _ in range(n)]
    for v, outs in enumerate(adj):
        for w in outs:
            radj[w].append(v)
    return len(_reachable(radj, 0)) == n


def is_permutation_matrix(a: NonNegMatrix) -> bool:
    # entries are nonnegative integers, so a sum of 1 is a single entry 1
    return all(sum(row) == 1 for row in a.entries) and all(sum(col) == 1 for col in zip(*a.entries))


@frozen
class Issue:
    code: str
    message: str


@frozen
class Diagnostics:
    issues: tuple[Issue, ...]

    @property
    def classifiable(self) -> bool:
        return not self.issues


_TOO_SMALL = Issue("too_small", "a 0/1 transition matrix needs at least 2 states")


def _row_issues(rows: tuple[tuple, ...]) -> tuple[Issue, ...]:
    """The structural issues of rows that ``NonNegMatrix`` refuses, in report order."""
    n = len(rows)
    if n == 0:
        return (Issue("empty", "matrix has no rows"),)
    if any(len(r) != n for r in rows):
        return (Issue("not_square", "matrix is not square"),)
    if not all(map(_is_int, chain.from_iterable(rows))):
        return (Issue("bad_entry", "entries must be integers"),)
    if min(map(min, rows)) < 0:
        return (Issue("negative_entry", "entries must be nonnegative"),)
    issues = [Issue("zero_row", f"row {i + 1} is identically zero") for i, r in enumerate(rows) if not any(r)]
    issues += [
        Issue("zero_column", f"column {j + 1} is identically zero") for j, c in enumerate(zip(*rows)) if not any(c)
    ]
    # what is left is a zero row or column, so a single entry is 0
    if n == 1:
        issues.append(_TOO_SMALL)
    return tuple(issues)


def classifiability_issue(a: NonNegMatrix) -> Issue | None:
    """The first issue of a built matrix: too small, reducible or a permutation (not condition (I))."""
    if a.size == 1 and a.entries[0][0] == 1:
        return _TOO_SMALL
    if not is_irreducible(a):
        return Issue("reducible", "the transition graph is not strongly connected")
    if is_permutation_matrix(a):
        return Issue("condition_I", "permutation matrix: the shift space is finite, so every point is isolated")
    return None


def require_classifiable(a: NonNegMatrix) -> None:
    """Raise PreconditionError naming the first issue of ``classifiability_issue``."""
    issue = classifiability_issue(a)
    if issue is not None:
        raise PreconditionError(f"matrix is not classifiable: {issue.message}")


def validate(matrix) -> Diagnostics:
    """Structural and dynamical diagnostics for a transition matrix.

    Accepts a matrix object or raw rows; problems are reported, never
    raised.  A matrix with no issues is safe for every decision procedure
    in this package.  A matrix object has passed the entry, row and column
    checks when it was built, and raw rows are built into one; only rows
    that it refuses are walked, to name every structural issue.
    """
    if not isinstance(matrix, NonNegMatrix):
        rows = tuple(map(tuple, matrix))
        try:
            matrix = NonNegMatrix(rows)
        except (ShapeError, DomainError):
            return Diagnostics(_row_issues(rows))
    issue = classifiability_issue(matrix)
    return Diagnostics(() if issue is None else (issue,))


# ---------------------------------------------------------------------------
# periodic orbits


def periodic_orbit_words(a: ZeroOneMatrix, max_period: int) -> list[tuple[int, ...]]:
    """One representative word per periodic orbit of least period <= max_period.

    Representatives are the lexicographically least rotations of primitive
    cyclically admissible words, listed by increasing length and then
    lexicographically.  The search walks admissible pre-necklaces, keeping
    the period of the prefix: extending by the anchor symbol keeps the
    period, a larger symbol resets it to the new length, a smaller one
    cannot lead to a minimal rotation.  A word is a primitive minimal
    rotation exactly when its period equals its length.  Successors are
    pushed largest first, so words leave the stack in lexicographic order
    within each length and a stable sort by length finishes the listing.
    """
    _check_count("period bound", max_period)
    n = a.size
    rows = a.entries
    descending_successors = [()] + [
        tuple(t for t in range(n, 0, -1) if row[t - 1]) for row in rows
    ]
    out: list[tuple[int, ...]] = []
    for first in range(1, n + 1):
        closing = {s for s in range(1, n + 1) if rows[s - 1][first - 1]}
        stack: list[tuple[tuple[int, ...], int]] = [((first,), 1)]
        while stack:
            w, p = stack.pop()
            q = len(w)
            if p == q and w[-1] in closing:
                out.append(w)
            if q == max_period:
                continue
            anchor = w[q % p]
            for s in descending_successors[w[-1]]:
                if s < anchor:
                    break
                stack.append((w + (s,), p if s == anchor else q + 1))
    out.sort(key=len)
    return out


def count_period_points(a: ZeroOneMatrix, p: int) -> int:
    """Number of points fixed by the p-th shift power: trace of A^p, by repeated squaring.

    A^p is the product of the squares A^(2^i) over the set bits i of p.  The
    powers stay plain entry tuples, multiplied by ``intmat._product``, and
    the last product X Y is never built: its trace is the sum over i and k
    of X[i][k] Y[k][i].
    """
    _check_count("period", p)
    square = a.entries
    power = None
    while p > 1:
        if p & 1:
            power = square if power is None else _product(power, square)
        p >>= 1
        if p == 1 and power is None:
            # p is a power of two, and A^p is the square times itself
            power = square
        else:
            square = _product(square, square)
    if power is None:
        return sum(row[i] for i, row in enumerate(square))
    return sum(sum(map(mul, row, col)) for row, col in zip(power, zip(*square)))


# ---------------------------------------------------------------------------
# recodings


def edge_shift(a: NonNegMatrix) -> ZeroOneMatrix:
    """Recode a nonnegative matrix as the 0/1 matrix of its edge graph.

    Each unit of A(i, j) becomes one edge; edges are ordered by (source,
    target, copy index) so the output is reproducible.  Edge e may be
    followed by edge f exactly when e ends where f starts.  The resulting
    shift is conjugate to the original one, so every invariant computed
    downstream agrees.
    """
    edges = [(i, j) for i, row in enumerate(a.entries) for j, count in enumerate(row) for _ in range(count)]
    if len(edges) < 2:
        raise DomainError("edge shift would have fewer than 2 states")
    # one row per state, with a 1 at each edge starting there; each edge takes its target's row
    starts = [tuple(int(source == i) for source, _ in edges) for i in range(a.size)]
    rows = tuple(starts[target] for _, target in edges)
    return ZeroOneMatrix(rows)


def column_amalgamation(a: NonNegMatrix) -> NonNegMatrix:
    """Merge states with equal columns, pass after pass, until all columns differ.

    States with equal columns have the same predecessors.  Merging them
    keeps the first and adds the others' rows to it, which undoes an
    out-splitting: a conjugacy of the one-sided shift, so the result has
    the same invariant (Williams 1973).  Each pass merges every class of
    equal columns at once; the result may have entries > 1.  A matrix
    whose columns already differ is returned as it is.
    """
    # work on columns: they are what each pass hashes, and only the kept ones
    # are rebuilt; the first pass reads them straight off the rows
    columns = zip(*a.entries)
    size = a.size
    while True:
        classes: dict[tuple[int, ...], list[int]] = {}
        for j, column in enumerate(columns):
            classes.setdefault(column, []).append(j)
        if len(classes) == size:
            break
        # classes are in order of their first states, which are the states kept
        kept = [False] * size
        others = []
        for r, (first, *rest) in enumerate(classes.values()):
            kept[first] = True
            others += [(i, r) for i in rest]
        merged = []
        for column in classes:
            entries = list(compress(column, kept))
            for i, r in others:
                entries[r] += column[i]
            merged.append(tuple(entries))
        columns = merged
        size = len(merged)
    if size == a.size:
        return a
    return NonNegMatrix(tuple(zip(*columns)))


def admissible_words(a: ZeroOneMatrix, k: int) -> list[tuple[int, ...]]:
    """All admissible words of length k, in lexicographic order."""
    _check_count("word length", k)
    adj = _adjacency(a)
    words: list[tuple[int, ...]] = [(s,) for s in range(1, a.size + 1)]
    for _ in range(k - 1):
        words = [w + (t + 1,) for w in words for t in adj[w[-1] - 1]]
    return words


def block_graph(a: ZeroOneMatrix, k: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The k-block graph: its nodes and, for each node, its successors.

    Nodes are the admissible k-words in lexicographic order.  Word w can be
    followed by w' when they overlap in k - 1 symbols and the joined
    (k + 1)-word is admissible; the successors of each word are listed as
    ascending indices into the word list.
    """
    if k == 1:
        return [(s,) for s in range(1, a.size + 1)], _adjacency(a)
    words = admissible_words(a, k)
    # indices are appended in word order, so each successor list ascends
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(words):
        by_prefix.setdefault(w[:-1], []).append(i)
    return words, [by_prefix[w[1:]] for w in words]


def higher_block(a: ZeroOneMatrix, k: int) -> ZeroOneMatrix:
    """Recode on overlapping k-blocks; k = 1 returns the matrix itself.

    States are the admissible k-words in lexicographic order, with the
    transitions of their k-block graph (`block_graph`).
    """
    _check_count("word length", k)
    if k == 1:
        return a if isinstance(a, ZeroOneMatrix) else ZeroOneMatrix(a.entries)
    words, successors = block_graph(a, k)
    if len(words) < 2:
        raise DomainError("higher block recoding needs at least 2 admissible words")
    rows = []
    for targets in successors:
        row = [0] * len(words)
        for j in targets:
            row[j] = 1
        rows.append(tuple(row))
    return ZeroOneMatrix(tuple(rows))
