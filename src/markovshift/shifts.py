"""Transition matrices as symbolic dynamical systems.

Matrices act on the alphabet {1, ..., N}; a word is admissible when every
consecutive pair is allowed by the matrix.  This module covers structural
validation (zero rows, irreducibility, whether the shift space has
isolated points), periodic-orbit enumeration, the edge-shift and
out-splitting conversions of a nonnegative matrix to a 0/1 one, and
higher-block recodings.  It is the one module that walks the transition
graph, built once by ``_graph``: irreducibility, the census, the words of
a length (one lexicographic walk), their number and the k-block graph
all read that table.  The periodic-point counts take powers of the
matrix, and a matrix keeps the power of its last count, so counting
periods 1, 2, 3, ... in turn takes one product a period.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, compress
from operator import itemgetter, mul

from ._value import _store, frozen
from .errors import DomainError, PreconditionError, ShapeError
from .intmat import IntMatrix, _check_ints, _decimal, _is_int, _product


@frozen
class NonNegMatrix:
    """Square matrix over the nonnegative integers, no zero row or column.

    A matrix is checked once, where it enters the library: by this
    constructor (and ``from_rows``, ``fileio.matrix_from_rows`` and
    ``validate``, which call it).  The constructor stores the rows as
    tuples, so a checked matrix cannot change afterwards.  The recodings
    and realization stages build their results from checked matrices with
    ``_built``, which runs no check; each says why its result passes them.
    """

    entries: tuple[tuple[int, ...], ...]

    MIN_SIZE = 1
    ZERO_ONE = False

    # the period count_period_points last counted and A^(p - 1) for it, or
    # None when that count did not build it; an instance stores its own pair
    # with _store, so it holds one power at a time, and equality, hash and
    # repr read the entries only
    _last_count = (0, None)

    def __init__(self, entries: Iterable[Iterable[int]]):
        _store(self, "entries", tuple(map(tuple, entries)))
        self.__post_init__()

    @classmethod
    def _built(cls, entries: tuple[tuple[int, ...], ...]):
        """A matrix of row tuples that passes this class's checks by construction; none runs."""
        matrix = object.__new__(cls)
        _store(matrix, "entries", entries)
        return matrix

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
        if not (all(map(any, entries)) and all(map(any, zip(*entries)))):
            raise DomainError(next(_zero_issues(entries)).message)

    def _check_each_entry(self):
        """Raise for the first bad entry in row-major order.

        Every entry is checked to be a nonnegative integer before, in a 0/1
        matrix, any entry is checked to be at most 1.
        """
        for i, row in enumerate(self.entries):
            for x in row:
                _check_ints("entry", (x,))
                if x < 0:
                    raise DomainError(f"negative entry {_decimal(x)} in row {i + 1}")
        if self.ZERO_ONE:
            _check_zero_one(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]):
        return cls(rows)

    @property
    def size(self) -> int:
        return len(self.entries)


# not decorated with @frozen, which would give it an __init__ of its own; it
# inherits the constructor, the value methods and the refusal to assign
class ZeroOneMatrix(NonNegMatrix):
    """Transition matrix with entries in {0, 1} and at least two states."""

    MIN_SIZE = 2
    ZERO_ONE = True


def _check_zero_one(entries) -> None:
    """Raise DomainError naming the first entry above 1, in row-major order."""
    for x in chain.from_iterable(entries):
        if x > 1:
            raise DomainError(f"entry {_decimal(x)} is not in {{0, 1}}")


def _check_matrix(a) -> None:
    """Raise ShapeError unless a is a ``NonNegMatrix``, whose checks the recodings rely on."""
    if not isinstance(a, NonNegMatrix):
        raise ShapeError(f"expected a NonNegMatrix, got {type(a).__name__}")


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
        rows.append(negated)
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# words


def is_cyclically_admissible(a: NonNegMatrix, word) -> bool:
    ws = tuple(word)
    # a symbol that is not an int is refused, not read as the int it equals;
    # a bool is an int here, True read as 1
    if not ws or not all(isinstance(s, int) for s in ws) or min(ws) < 1 or max(ws) > a.size:
        return False
    # each symbol needs a nonzero entry in the row of the one before it, the
    # first in the row of the last; entries are nonnegative, so a nonzero
    # entry is exactly an allowed pair
    rows = a.entries
    row = rows[ws[-1] - 1]
    for s in ws:
        if not row[s - 1]:
            return False
        row = rows[s - 1]
    return True


def lex_min_rotation(word) -> tuple[int, ...]:
    ws = tuple(word)
    return min(ws[i:] + ws[:i] for i in range(len(ws)))


# ---------------------------------------------------------------------------
# structural checks


def _graph(a: NonNegMatrix) -> tuple[list, list[list[int]]]:
    """Each state's successors and predecessors, ascending, on the states 1..n.

    A nonzero entry is a transition: a word of any nonnegative matrix is a
    path of its 0/1 pattern (Lind and Marcus 1995, section 2.2).  Entry 0
    of the successors is a start that every state may follow, where walks
    and counts of words begin; entry 0 of the predecessors is empty.
    """
    states = range(1, a.size + 1)
    successors = [states] + [tuple(compress(states, row)) for row in a.entries]
    predecessors: list[list[int]] = [[] for _ in successors]
    for s in states:
        for t in successors[s]:
            predecessors[t].append(s)
    return successors, predecessors


def _reachable(adj, start: int) -> set[int]:
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
    """True when state 1 reaches every state along ``_graph``'s successors and its predecessors."""
    return all(len(_reachable(adj, 1)) == a.size for adj in _graph(a))


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


def _zero_issues(rows) -> Iterator[Issue]:
    """An issue for each zero row of square rows, then for each zero column."""
    for kind, lines in (("row", rows), ("column", zip(*rows))):
        yield from (Issue(f"zero_{kind}", f"{kind} {i} is identically zero") for i, r in enumerate(lines, 1) if not any(r))


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
    issues = list(_zero_issues(rows))
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
    lexicographically.  The search walks admissible pre-necklaces (Ruskey,
    Savage and Wang 1992), one first symbol at a time, keeping the period
    of each prefix: extending by the anchor symbol keeps the period, a
    larger symbol resets it to the new length, a smaller one cannot lead
    to a minimal rotation.  A word is a primitive minimal rotation exactly
    when its period equals its length and its last symbol leads back to
    its first.

    Every symbol of such a word is at least its first, so one reverse
    breadth-first search over those states gives each state's fewest
    steps back to the first symbol.  A prefix keeps only the successors
    that can still close the cycle within max_period; as the prefix
    grows, the states whose return is too far leave the successor lists,
    one ring of the search at a time, and a first symbol that cannot
    return at all is skipped.  The prefixes grow one length at a time,
    with no recursion, and each length's prefixes stay in lexicographic
    order, so a stable sort by length finishes the listing.  Besides the
    words returned, the walk holds the prefixes of one first symbol at
    two lengths at most, and the last length builds only the words it
    returns.
    """
    _check_matrix(a)
    _check_count("period bound", max_period)
    successors, predecessors = _graph(a)
    out: list[tuple[int, ...]] = []
    for first in successors[0]:
        # steps[s]: the fewest symbols after s that close the cycle through
        # states >= first; max_period stands for "too many"
        steps = [max_period] * len(successors)
        rings: list[set[int]] = []
        ring = {s for s in predecessors[first] if s >= first}
        while ring and len(rings) < max_period:
            for s in ring:
                steps[s] = len(rings)
            rings.append(ring)
            ring = {s for t in ring for s in predecessors[t] if s >= first and steps[s] == max_period}
        if steps[first] == max_period:
            continue
        succ = [[t for t in ts if steps[t] < max_period] for ts in successors]
        if not steps[first]:
            out.append((first,))
        layer = [((first,), 1)]
        for q in range(1, max_period):
            # the next symbol ends a prefix of q + 1 symbols and may need at
            # most max_period - q - 1 more: the ring max_period - q leaves now
            if max_period - q < len(rings):
                for s in {s for t in rings[max_period - q] for s in predecessors[t]}:
                    succ[s] = [t for t in succ[s] if steps[t] < max_period - q]
            if q + 1 == max_period:
                # every successor left closes the cycle, and a word of full
                # length is returned exactly when its last symbol sets a new period
                out += [w + (s,) for w, p in layer for anchor in [w[q % p]] for s in succ[w[-1]] if s > anchor]
                break
            layer = [
                (w + (s,), p if s == anchor else q + 1)
                for w, p in layer
                for anchor in [w[q % p]]
                for s in succ[w[-1]]
                if s >= anchor
            ]
            if not layer:
                break
            out += [w for w, p in layer if p > q and not steps[w[-1]]]
    out.sort(key=len)
    return out


def _power_factors(a: NonNegMatrix, p: int) -> tuple:
    """Entry tuples X and Y with X Y = A^p, for p >= 1, by repeated squaring.

    A^p is the product of the squares A^(2^i) over the set bits i of p,
    multiplied by ``intmat._product``.  The last product X Y is left to the
    caller, who needs only its trace or its entry sum.  X is None when p is
    1, and both are A when p is 2, so neither takes a product.
    """
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
    return power, square


def count_period_points(a: NonNegMatrix, p: int) -> int:
    """Number of points fixed by the p-th shift power: the trace of A^p.

    For a matrix with entries > 1 these are the points of its edge shift,
    so a total column amalgamation counts those of the 0/1 matrix it
    merges.  Callers count periods 1, 2, 3, ... in turn, so the matrix
    keeps one slot: the period q it last counted and A^(q - 1) when that
    count built it, one n x n power, replaced on every call.  A count of
    p = q + 1 takes one product, A^(p - 1) = A^(q - 1) A, and p = 2 takes
    none (A^1 is A), so periods 1..P cost P - 2 products.  Any other p
    squares as if nothing were kept: A^p = X Y comes from
    ``_power_factors``.  The last product, A^(p - 1) A or X Y, is never
    built: its trace is the sum over i and k of X[i][k] Y[k][i].
    """
    _check_matrix(a)
    _check_count("period", p)
    q, power = a._last_count
    if p == 2:
        power = a.entries
    elif p == q + 1 and power is not None:
        power = _product(power, a.entries)
    else:
        power = None
    _store(a, "_last_count", (p, power))
    square = a.entries
    if power is None:
        power, square = _power_factors(a, p)
    if power is None:
        return sum(row[i] for i, row in enumerate(square))
    return sum(sum(map(mul, row, col)) for row, col in zip(power, zip(*square)))


def _word_count(a: NonNegMatrix, k: int) -> int:
    """The number of admissible k-words, the words ``_word_walk`` lists: paths of k - 1 steps.

    Stepping a vector of path counts over ``_graph``'s successors costs an
    addition per transition a step; squaring the graph's 0/1 pattern costs
    n^3 multiplications a bit of k - 1.  The count takes whichever costs
    fewer operations, so a wide window over a few states costs time
    logarithmic in it, and a narrow one over many sparse states builds no
    n x n product.
    """
    successors = _graph(a)[0]
    steps = k - 1
    if a.size**3 * steps.bit_length() < steps * (sum(map(len, successors)) - a.size):
        # steps exceeds n here, so it is at least 2
        return _paths_by_squaring(a, steps)
    # paths[s]: the words of the length reached so far that may follow s, any state at entry 0
    paths = [1] * len(successors)
    for _ in range(k):
        paths = [sum(map(paths.__getitem__, succ)) for succ in successors]
    return paths[0]


def _paths_by_squaring(a: NonNegMatrix, steps: int) -> int:
    """The entry sum of P^steps, P the 0/1 pattern of a, for steps >= 2: X's column sums times Y's row sums."""
    pattern = NonNegMatrix._built(tuple(tuple(int(x > 0) for x in row) for row in a.entries))
    power, square = _power_factors(pattern, steps)
    return sum(map(mul, map(sum, zip(*power)), map(sum, square)))


# ---------------------------------------------------------------------------
# recodings


def edge_shift(a: NonNegMatrix) -> ZeroOneMatrix:
    """Recode a nonnegative matrix as the 0/1 matrix of its edge graph.

    Each unit of A(i, j) becomes one edge; edges are ordered by (source,
    target, copy index) so the output is reproducible.  Edge e may be
    followed by edge f exactly when e ends where f starts.  The resulting
    shift is conjugate to the original one, so every invariant computed
    downstream agrees.  It has one state per unit of an entry;
    ``out_split`` recodes with one per unit of each row's largest entry.
    The result passes the checks unrun: its rows and columns are nonzero
    because every state of A has an edge out and an edge in.
    """
    _check_matrix(a)
    edges = [(i, j) for i, row in enumerate(a.entries) for j, count in enumerate(row) for _ in range(count)]
    if len(edges) < 2:
        raise DomainError("edge shift would have fewer than 2 states")
    # one row per state, with a 1 at each edge starting there; each edge takes its target's row
    starts = [tuple(int(source == i) for source, _ in edges) for i in range(a.size)]
    rows = tuple(starts[target] for _, target in edges)
    return ZeroOneMatrix._built(rows)


def out_split(a: NonNegMatrix) -> ZeroOneMatrix:
    """Recode a nonnegative matrix as a 0/1 matrix by splitting each state.

    State x becomes k_x = max_y A(x, y) copies, ordered by (state, copy
    index).  Copy j of x has a 1 at every copy of each y with A(x, y) > j,
    so the copies of y share y's column, and over the copies of x that
    column holds A(x, y) ones.  This out-splitting is a conjugacy of the
    one-sided shift (Williams 1973; Lind and Marcus 1995, section 2.4) that
    ``column_amalgamation`` undoes.  It has sum_x k_x states, never more
    than the edge shift's sum of all entries.  The result passes the checks
    unrun: copy j < k_x of x has a 1 wherever A(x, y) > j, and the column
    of a copy of y holds the sum of column y of A, which is nonzero.
    """
    _check_matrix(a)
    counts = list(map(max, a.entries))
    if sum(counts) < 2:
        raise DomainError("out-splitting would have fewer than 2 states")
    # a thresholded row of A becomes a row of the split by repeating its entry y k_y times
    spread = itemgetter(*[y for y, k in enumerate(counts) for _ in range(k)])
    rows = tuple(spread([int(x > j) for x in row]) for row, k in zip(a.entries, counts) for j in range(k))
    return ZeroOneMatrix._built(rows)


def column_amalgamation(a: NonNegMatrix) -> NonNegMatrix:
    """Merge states with equal columns, pass after pass, until all columns differ.

    States with equal columns have the same predecessors.  Merging them
    keeps the first and adds the others' rows to it, which undoes an
    out-splitting: a conjugacy of the one-sided shift, so the result has
    the same invariant (Williams 1973).  Each pass merges every class of
    equal columns at once; the result may have entries > 1.  A matrix
    whose columns already differ is returned as it is.  The result passes
    the checks unrun: its entries are sums of entries of A, each merged row
    sums rows of A and each merged column keeps the sum of a column of A.
    """
    _check_matrix(a)
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
    return NonNegMatrix._built(tuple(zip(*columns)))


def _word_walk(a: NonNegMatrix, k: int) -> Iterator[tuple[int, ...]]:
    """The admissible k-words, for k >= 1, in lexicographic order, one at a time.

    A depth-first walk over the first k - 2 symbols that keeps one prefix
    and one iterator of successors per symbol of it.  No row of a is zero,
    so every prefix it takes extends to a k-word.  The words that share
    their first k - 2 symbols are built in one comprehension over two
    steps from the last of them, so besides the O(k) walk it holds one
    block of at most d^2 words, d the largest number of successors of a
    state, however many words it passes.
    """
    successors = _graph(a)[0]
    if k == 1:
        yield from ((s,) for s in successors[0])
        return
    # the walk starts at entry 0 of the successors, left out of the words
    word: list[int] = []
    branches = [iter((0,))]
    while branches:
        s = next(branches[-1], None)
        if s is None:
            branches.pop()
            if word:
                word.pop()
        elif len(word) + 2 < k:
            word.append(s)
            branches.append(iter(successors[s]))
        else:
            # s is the word's symbol k - 2 (the 0 when k is 2)
            prefix = (*word, s)[1:]
            yield from [prefix + (u, t) for u in successors[s] for t in successors[u]]


def admissible_words(a: ZeroOneMatrix, k: int) -> list[tuple[int, ...]]:
    """All admissible words of length k, in lexicographic order (``_word_walk``)."""
    _check_count("word length", k)
    return list(_word_walk(a, k))


def block_graph(a: ZeroOneMatrix, k: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The k-block graph: its nodes and, for each node, its successors.

    Nodes are the admissible k-words in lexicographic order.  Word w can be
    followed by w' when they overlap in k - 1 symbols and the joined
    (k + 1)-word is admissible; the successors of each word are listed as
    ascending indices into the word list.
    """
    if k == 1:
        return [(s,) for s in range(1, a.size + 1)], [[t - 1 for t in ts] for ts in _graph(a)[0][1:]]
    words = admissible_words(a, k)
    # indices are appended in word order, so each successor list ascends
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(words):
        by_prefix.setdefault(w[:-1], []).append(i)
    return words, [by_prefix[w[1:]] for w in words]


def higher_block(a: ZeroOneMatrix, k: int) -> ZeroOneMatrix:
    """Recode on overlapping k-blocks; k = 1 returns the matrix itself.

    States are the admissible k-words in lexicographic order, with the
    transitions of their k-block graph (`block_graph`).  An entry above 1
    is refused at every k before any word is listed: the words are those
    of the 0/1 pattern, whose recoding is not conjugate to the edge shift.
    For k >= 2 the result passes the checks unrun: a word w is followed by
    w[1:] and an edge out of its last symbol, and follows an edge into its
    first symbol and w[:-1].  At k = 1 the result is typed ``ZeroOneMatrix``.
    """
    _check_matrix(a)
    _check_count("word length", k)
    if not isinstance(a, ZeroOneMatrix):
        _check_zero_one(a.entries)
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
    return ZeroOneMatrix._built(tuple(rows))
