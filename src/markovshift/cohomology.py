"""Locally constant integer functions and the positive-cone decision.

A function with window k assigns an integer to every admissible k-word.
Its cohomology class is positive exactly when every periodic orbit has a
nonnegative total, which reduces to the absence of a negative-weight cycle
in the k-block graph.  The matrix is irreducible, so that graph is
strongly connected and one negative-cycle search over all of it decides
the class; the search returns a violating cyclic word as a witness.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ._value import frozen
from .errors import DomainError, InadmissibleWordError, VerificationError
from .intmat import _check_ints
from .shifts import (
    ZeroOneMatrix,
    _check_count,
    admissible_words,
    block_graph,
    is_cyclically_admissible,
    lex_min_rotation,
    require_classifiable,
)


@frozen
class LocallyConstantFn:
    """Integer function on the shift space depending on a fixed window."""

    window: int
    values: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        _check_count("window", self.window)
        for w in self.values:
            if len(w) != self.window:
                raise DomainError(f"table key {w} does not have window length {self.window}")
        _check_ints("function value", self.values.values())

    @staticmethod
    def over(a: ZeroOneMatrix, window: int, table: Mapping[Sequence[int], int]) -> "LocallyConstantFn":
        """Build a function and check its table covers exactly the admissible words."""
        _check_count("window", window)
        normalized = {tuple(w): v for w, v in table.items()}
        for w in normalized:
            _check_ints("word symbol", w)
        expected = set(admissible_words(a, window))
        given = set(normalized)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            detail = []
            if missing:
                detail.append(f"missing {len(missing)} admissible words, e.g. {missing[:3]}")
            if extra:
                detail.append(f"{len(extra)} keys are not admissible words, e.g. {extra[:3]}")
            raise DomainError("function table does not match the admissible words: " + "; ".join(detail))
        return LocallyConstantFn(window, normalized)

    def value(self, word: Sequence[int]) -> int:
        key = tuple(word)
        try:
            return self.values[key]
        except KeyError:
            raise DomainError(f"function is not defined on word {key}") from None


def orbit_sum(a: ZeroOneMatrix, fn: LocallyConstantFn, cycle: Sequence[int]) -> int:
    """Sum of the function over one period of the periodic point cycle^inf.

    Window i of the cycle c is (c[i], ..., c[i + k - 1]), indices taken mod
    n.  Zipping c with the slices of the extended cycle that start at
    1, ..., k - 1 lists the n windows in order, so one ``map`` looks them
    all up, and a missing window is reported first to last.
    """
    c = tuple(cycle)
    if not is_cyclically_admissible(a, c):
        raise InadmissibleWordError(f"cycle {c} is not cyclically admissible")
    n = len(c)
    k = fn.window
    # enough copies of the cycle that each of the k slices holds n symbols
    ext = c * ((n + k - 2) // n + 1)
    # on short cycles a comprehension costs as much as the lookups, so the
    # usual windows 1 and 2 are zipped without one
    if k == 1:
        windows = zip(c)
    elif k == 2:
        windows = zip(c, ext[1 : n + 1])
    else:
        windows = zip(c, *[ext[j : j + n] for j in range(1, k)])
    try:
        return sum(map(fn.values.__getitem__, windows))
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
    words, successors = block_graph(a, fn.window)
    if set(fn.values) != set(words):
        raise DomainError("function table does not match the admissible words of the matrix")
    weight = [fn.value(w) for w in words]
    # A is irreducible, so the k-block graph is strongly connected: one search reaches every cycle
    cycle = _negative_cycle(successors, weight)
    if cycle is None:
        return PositivityResult(True, None)
    witness = lex_min_rotation(tuple(words[v][0] for v in cycle))
    if orbit_sum(a, fn, witness) >= 0:
        raise VerificationError("negative-cycle witness failed its recomputation")
    return PositivityResult(False, witness)
