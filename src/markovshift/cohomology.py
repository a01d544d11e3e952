"""Locally constant integer functions and the positive-cone decision.

A function with window k assigns an integer to every admissible k-word.
Its cohomology class is positive exactly when every periodic orbit has a
nonnegative total, which reduces to the absence of a negative-weight cycle
in the k-block graph.  The matrix is irreducible, so that graph is
strongly connected and one negative-cycle search over all of it decides
the class; the search returns a violating cyclic word as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
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
    """Sum of the function over one period of the periodic point cycle^inf."""
    c = tuple(cycle)
    if not is_cyclically_admissible(a, c):
        raise InadmissibleWordError(f"cycle {c} is not cyclically admissible")
    n = len(c)
    k = fn.window
    # enough copies of the cycle that each of its n windows is one slice
    ext = c * ((n + k - 2) // n + 1)
    values = fn.values
    total = 0
    try:
        for i in range(n):
            total += values[ext[i : i + k]]
    except KeyError as exc:
        raise DomainError(f"function is not defined on word {exc.args[0]}") from None
    return total


@dataclass(frozen=True)
class PositivityResult:
    positive: bool
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.positive


def _negative_cycle(adj: list[list[int]], weight: list[int]) -> list[int] | None:
    """A negative-total cycle of the graph, or None when there is none.

    Bellman-Ford style relaxation from an all-zero potential; an update
    surviving len(adj) full rounds certifies a negative cycle, which is
    then read off the predecessor chain.
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
    try:
        node = last_updated
        for _ in range(n):
            node = pred[node]
        cycle = [node]
        walk = pred[node]
        while walk != node:
            cycle.append(walk)
            walk = pred[walk]
    except KeyError:
        raise VerificationError("relaxation reported a negative cycle but left no trail") from None
    cycle.reverse()
    return cycle


def is_positive_class(a: ZeroOneMatrix, fn: LocallyConstantFn) -> PositivityResult:
    """Decide whether the class of the function lies in the positive cone.

    Positivity holds exactly when every finite invariant set, equivalently
    every periodic orbit, has nonnegative total.  Orbits are cycles of the
    k-block graph whose edges are weighted by the value at the source
    block, so the decision is one negative-cycle search over that graph.
    One search is enough: A is irreducible, so its k-block graph is
    strongly connected and holds every cycle in one component.  A negative
    verdict returns a witness cyclic word.
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
