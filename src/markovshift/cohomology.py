"""Locally constant integer functions and the positive-cone decision.

A function with window k assigns an integer to every admissible k-word.
Its cohomology class is positive exactly when every periodic orbit has a
nonnegative total, which reduces to the absence of a negative-weight cycle
in the k-block graph.  The matrix is irreducible, so that graph is
strongly connected and one negative-cycle search over all of it decides
the class; the search returns a violating cyclic word as a witness.

An orbit sum looks each window of the cycle up in a table of the
function's values keyed by exactly the windows that admissible cycles of
the matrix show, kept on the function for the last matrix it was read
over.  A cycle whose windows all hit is cyclically admissible, so the
lookups are the whole check; a miss falls back to the explicit
admissibility check and the lookups in ``values``, which name the error.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from itertools import islice
from types import MappingProxyType

from ._value import frozen
from .errors import DomainError, InadmissibleWordError, VerificationError
from .intmat import _check_ints
from .shifts import (
    ZeroOneMatrix,
    _adjacency,
    _check_count,
    admissible_words,
    block_graph,
    is_cyclically_admissible,
    lex_min_rotation,
    require_classifiable,
)


@frozen
class LocallyConstantFn:
    """Integer function on the shift space depending on a fixed window.

    ``values`` is a read-only view of a private copy of the table given, so
    neither the caller's dict nor the view can change the function or the
    window table ``orbit_sum`` keeps for it.  Equality and ``repr`` read the
    window and the values only; ``repr`` shows the values as a dict.
    """

    window: int
    values: Mapping[tuple[int, ...], int]

    # the matrix orbit_sum last read the function over, and the window table
    # for it; an instance stores its own pair in its __dict__, as
    # cached_property does, so it holds one table at a time
    _table_over = (None, None)

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        _check_count("window", self.window)
        for w in self.values:
            if len(w) != self.window:
                raise DomainError(f"table key {w} does not have window length {self.window}")
        _check_ints("function value", self.values.values())

    def __repr__(self):
        return f"{type(self).__qualname__}(window={self.window!r}, values={dict(self.values)!r})"

    @staticmethod
    def over(a: ZeroOneMatrix, window: int, table: Mapping[Sequence[int], int]) -> "LocallyConstantFn":
        """Build a function and check its table covers exactly the admissible words.

        The table is read from its keys and a count of the admissible words
        (``_word_count``), so no list of them is built: a key is admissible
        when it has the window's width, starts at a state and takes a
        transition at each step.  Only a table that misses some word walks
        to the first three it misses.
        """
        _check_count("window", window)
        normalized = {tuple(w): v for w, v in table.items()}
        for w in normalized:
            _check_ints("word symbol", w)
        allowed = set(admissible_words(a, 2))
        states = range(1, a.size + 1)
        extra = sorted(w for w in normalized if not (len(w) == window and w[0] in states and _is_path(allowed, w)))
        # len(normalized) - len(extra) keys are admissible words; the rest of the count is missing
        absent = _word_count(a, window) - len(normalized) + len(extra)
        missing = list(islice(_words_missing_from(a, window, normalized), 3)) if absent else []
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {_decimal(absent)} admissible words, e.g. {missing}")
            if extra:
                detail.append(f"{len(extra)} keys are not admissible words, e.g. {extra[:3]}")
            raise DomainError("function table does not match the admissible words: " + "; ".join(detail))
        return LocallyConstantFn(window, normalized)


def _is_path(allowed: set[tuple[int, int]], w: tuple[int, ...]) -> bool:
    """Whether each consecutive pair of w is a transition, one of the set allowed."""
    return allowed.issuperset(zip(w, w[1:]))


def _word_count(a: ZeroOneMatrix, k: int) -> int:
    """The number of admissible k-words: paths of k - 1 steps, one vector step per symbol."""
    adj = _adjacency(a)
    # paths[s]: the admissible words of the length reached so far that start at state s
    paths = [1] * a.size
    for _ in range(k - 1):
        paths = [sum(map(paths.__getitem__, row)) for row in adj]
    return sum(paths)


def _words_missing_from(a: ZeroOneMatrix, k: int, given: Mapping) -> Iterator[tuple[int, ...]]:
    """The admissible k-words not in given, in lexicographic order.

    A depth-first walk that keeps one word and one iterator of successors
    per symbol of it, so its memory is O(k) however many words it passes.
    No row of a is zero, so every prefix it takes extends to a k-word.
    """
    successors = [[t + 1 for t in row] for row in _adjacency(a)]
    word: list[int] = []
    branches = [iter(range(1, a.size + 1))]
    while branches:
        s = next(branches[-1], None)
        if s is None:
            branches.pop()
            if word:
                word.pop()
        elif len(word) + 1 == k:
            w = (*word, s)
            if w not in given:
                yield w
        else:
            word.append(s)
            branches.append(iter(successors[s - 1]))


def _decimal(n: int) -> str:
    """n >= 0 in decimal, 4,000 digits at a time: Python 3.11's str() refuses more than 4,300."""
    head, tail = divmod(n, 10**4000)
    return f"{_decimal(head)}{tail:04000}" if head else str(tail)


def _window_table(a: ZeroOneMatrix, fn: LocallyConstantFn) -> dict[tuple[int, ...], int]:
    """The values of fn keyed by exactly the windows an admissible cycle of a shows.

    The allowed transitions come from ``admissible_words(a, 2)``.  Window 1
    is keyed by each transition (previous symbol, symbol) and takes the
    value at the symbol; a wider window keeps the keys of fn whose
    consecutive pairs are all transitions, so the table costs the keys and
    the transitions, not the admissible words of the window's width.
    Either way each key holds an allowed transition, its first, and window
    i of a cycle holds the cyclic transition from symbol i, so a cycle all
    of whose windows are keys is cyclically admissible.
    """
    values = fn.values
    pairs = admissible_words(a, 2)
    if fn.window == 1:
        return {(s, t): values[(t,)] for s, t in pairs if (t,) in values}
    allowed = set(pairs)
    return {w: v for w, v in values.items() if _is_path(allowed, w)}


def _windows(c: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """The n windows of width k of the nonempty cycle c, first to last.

    Window i is (c[i], ..., c[i + k - 1]), indices taken mod n.  Zipping c
    with the slices of the extended cycle that start at 1, ..., k - 1 lists
    them in order.
    """
    n = len(c)
    # enough copies of the cycle that each of the k slices holds n symbols
    ext = c * ((n + k - 2) // n + 1)
    return zip(c, *[ext[j : j + n] for j in range(1, k)])


def orbit_sum(a: ZeroOneMatrix, fn: LocallyConstantFn, cycle: Sequence[int]) -> int:
    """Sum of the function over one period of the periodic point cycle^inf.

    One ``map`` looks up the n windows of the cycle in the function's window
    table over a (``_window_table``), built on the first call with a and
    kept on the function until it is read over another matrix.  A window 1
    is looked up as the pair of symbols that ends at it.  When every window
    is a key, the cycle is cyclically admissible and in range, so no other
    check runs.  On a miss the cycle takes the checked path: an
    inadmissible cycle, a symbol that is not an int and the empty cycle
    raise ``InadmissibleWordError``, and otherwise the first window missing
    from ``fn.values`` is named in a ``DomainError``.
    """
    c = tuple(cycle)
    k = fn.window
    if c:
        over, table = fn._table_over
        if over is not a:
            table = _window_table(a, fn)
            object.__setattr__(fn, "_table_over", (a, table))
        # windows 1 and 2 are both read as the cyclic pairs; zipped without
        # _windows, since on short cycles its slices cost as much as the lookups
        windows = zip(c, c[1:] + c[:1]) if k <= 2 else _windows(c, k)
        try:
            total = sum(map(table.__getitem__, windows))
        except (KeyError, TypeError):  # a missing window, or an unhashable symbol
            pass
        else:
            # a hash lookup reads 1.0, Fraction(1) or Decimal(1) as the key 1;
            # the sum of ints and bools is an int, and one such symbol makes it
            # a float, Fraction or Decimal.  On the census words of the orbits
            # workload this test keeps the lookups at 0.65 of the time of the
            # checked path, against 0.75 when testing the type of each symbol
            # and 0.61 with no test
            if type(sum(c)) is int:
                return total
    if not is_cyclically_admissible(a, c):
        raise InadmissibleWordError(f"cycle {c} is not cyclically admissible")
    try:
        return sum(map(fn.values.__getitem__, _windows(c, k)))
    except KeyError as exc:
        raise DomainError(f"function is not defined on word {exc.args[0]}") from None


@frozen
class PositivityResult:
    positive: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.positive


def _negative_cycle(adj: list[list[int]], weight: list[int]) -> list[int] | None:
    """A negative-total cycle of the graph, or None when there is none.

    Bellman-Ford relaxation from an all-zero potential, where edge u -> v
    weighs weight[u].  A round with no update certifies that no cycle is
    negative.  After each round that updates, the predecessor links of the
    updated nodes are walked, and the first cycle among them is returned:
    each link was set when it lowered its node's distance, so around a
    cycle of links the weights sum below zero (Cherkassky & Goldberg 1999).
    A negative cycle keeps every round updating, and after at most
    len(adj) + 1 rounds the links hold a cycle, so the search ends.
    """
    n = len(adj)
    dist = [0] * n
    pred = [-1] * n
    # seen[v] is the number of the last walk that passed v; walks of earlier rounds are stale
    seen = [-1] * n
    walks = 0
    edges = [(u, v) for u in range(n) for v in adj[u]]
    for _ in range(n + 1):
        updated = []
        for u, v in edges:
            candidate = dist[u] + weight[u]
            if candidate < dist[v]:
                dist[v] = candidate
                pred[v] = u
                updated.append(v)
        if not updated:
            return None
        first_walk = walks
        for start in updated:
            walk = walks
            walks += 1
            node = start
            # stop at a node without a link, or one an earlier walk of this round passed
            while node >= 0 and seen[node] < first_walk:
                seen[node] = walk
                node = pred[node]
            if node >= 0 and seen[node] == walk:
                cycle = [node]
                back = pred[node]
                while back != node:
                    cycle.append(back)
                    back = pred[back]
                cycle.reverse()
                return cycle
    raise VerificationError("relaxation reported a negative cycle but left no trail")


_MISMATCH = "function table does not match the admissible words of the matrix"


def is_positive_class(a: ZeroOneMatrix, fn: LocallyConstantFn) -> PositivityResult:
    """Decide whether the class of the function lies in the positive cone.

    Positivity holds exactly when every finite invariant set, equivalently
    every periodic orbit, has nonnegative total.  Orbits are cycles of the
    k-block graph whose edges are weighted by the value at the source
    block, so the decision is one negative-cycle search over that graph.
    One search is enough: A is irreducible, so its k-block graph is
    strongly connected and holds every cycle in one component.  The search
    stops at the first cycle among its predecessor links, which is negative
    (``_negative_cycle``).  A negative verdict returns the least rotation of
    that cycle's word as a witness, after ``orbit_sum`` has recomputed its
    total as negative.
    """
    require_classifiable(a)
    values = fn.values
    # the count lists no words; a table of that size holding each word holds no other
    if len(values) != _word_count(a, fn.window):
        raise DomainError(_MISMATCH)
    words, successors = block_graph(a, fn.window)
    # subscripts, not the view's bound methods: through a MappingProxyType
    # those cost twice as much per word
    try:
        weight = [values[w] for w in words]
    except KeyError:
        raise DomainError(_MISMATCH) from None
    # A is irreducible, so the k-block graph is strongly connected: one search reaches every cycle
    cycle = _negative_cycle(successors, weight)
    if cycle is None:
        return PositivityResult(True, None)
    witness = lex_min_rotation(tuple(words[v][0] for v in cycle))
    if orbit_sum(a, fn, witness) >= 0:
        raise VerificationError("negative-cycle witness failed its recomputation")
    return PositivityResult(False, witness)
