"""A transition matrix is checked once, where it enters the library.

The public constructors (and ``from_rows``, ``fileio.matrix_from_rows``
and ``validate``, which call them) check every matrix.  The recodings and
the realization stages build their results from checked matrices without
checking them again.  These tests are the oracle for that: every matrix
the library builds is rebuilt through the public constructor and must come
out the same, and the builders refuse anything that is not a checked
matrix.  A design pin counts the checks, so a stage that starts checking
again fails here.
"""

import random
from fractions import Fraction

import pytest

from markovshift import (
    DomainError,
    FgAbelianGroup,
    IntMatrix,
    NonNegMatrix,
    ShapeError,
    ZeroOneMatrix,
    edge_shift,
    higher_block,
    invariant_triple,
    out_split,
    realize,
    tail_extension,
    validate,
)
from markovshift.fileio import matrix_from_rows
from markovshift.shifts import column_amalgamation

from _support import all_shapes_up_to, count_calls, random_out_split
from test_small_classes import SIZES


def assert_passes_the_checks(matrix, cls):
    """The matrix is a cls, and the public constructor rebuilds it unchanged."""
    assert type(matrix) is cls
    assert cls(matrix.entries) == matrix


def assert_stages_pass_the_checks(group, point, sign):
    final, plan = realize(group, point, sign)
    assert_passes_the_checks(plan.base, NonNegMatrix)
    assert_passes_the_checks(plan.extended, NonNegMatrix)
    assert_passes_the_checks(final, ZeroOneMatrix)
    # the matrix invariant_triple merges back to
    assert_passes_the_checks(column_amalgamation(final), NonNegMatrix)


def random_rows(rng, n, max_entry):
    """Rows of a random n-state matrix with no zero row or column, reducible or not."""
    while True:
        rows = [[rng.randint(0, max_entry) * (rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        if all(map(any, rows)) and all(map(any, zip(*rows))):
            return rows


@pytest.mark.parametrize("key", list(SIZES), ids=str)
def test_small_class_realizations_pass_the_checks(key):
    free_rank, torsion, det, free, tors = key
    group = FgAbelianGroup(free_rank, torsion)
    assert_stages_pass_the_checks(group, group.element(free, tors), (det > 0) - (det < 0))


def test_benchmark_like_realizations_pass_the_checks():
    """Triples like the ``realize`` workload's: finite groups, large primes, free parts."""
    rng = random.Random(27)
    for chain in all_shapes_up_to(20):
        group = FgAbelianGroup(0, chain)
        for _ in range(2):
            torsion = tuple(rng.randrange(m) for m in chain)
            for sign in (-1, 1):
                assert_stages_pass_the_checks(group, group.element((), torsion), sign)
    for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109):
        group = FgAbelianGroup(0, (p,))
        assert_stages_pass_the_checks(group, group.element((), (p - 1,)), -1)
    for chain in ((), (2,), (5,), (2, 2), (3, 3), (2, 8), (4, 4, 4), (2,) * 6, (4,) * 4, (8, 8, 8)):
        for rank in (1, 2):
            group = FgAbelianGroup(rank, chain)
            free = tuple(rng.randint(-2, 2) for _ in range(rank))
            torsion = tuple(rng.randrange(m) for m in chain)
            assert_stages_pass_the_checks(group, group.element(free, torsion), 0)


def test_random_recodings_pass_the_checks():
    rng = random.Random(2027)
    merged = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = NonNegMatrix.from_rows(random_rows(rng, n, rng.choice((1, 2, 3))))
        if sum(map(max, a.entries)) >= 2:
            assert_passes_the_checks(out_split(a), ZeroOneMatrix)
        if sum(map(sum, a.entries)) >= 2:
            assert_passes_the_checks(edge_shift(a), ZeroOneMatrix)
            for k in (2, 3):
                try:
                    blocks = higher_block(a, k)
                except DomainError:
                    continue
                assert_passes_the_checks(blocks, ZeroOneMatrix)
        tails = [rng.randint(0, 3) for _ in range(n)]
        assert_passes_the_checks(tail_extension(a, tails), NonNegMatrix)
        amalgamation = column_amalgamation(a)
        assert_passes_the_checks(amalgamation, NonNegMatrix)
        if any(sum(row) >= 2 for row in a.entries):
            split = random_out_split(rng, a)
            amalgamation = column_amalgamation(split)
            assert_passes_the_checks(amalgamation, NonNegMatrix)
            merged += amalgamation.size < split.size
    assert merged > 100


NOT_MATRICES = [
    IntMatrix(((1, -1), (1, 1))),
    ((1, 1), (1, 1)),
    [[1, 1], [1, 1]],
]
BUILDERS = {
    "out_split": out_split,
    "edge_shift": edge_shift,
    "column_amalgamation": column_amalgamation,
    "higher_block": lambda a: higher_block(a, 2),
    "higher_block_1": lambda a: higher_block(a, 1),
    "tail_extension": lambda a: tail_extension(a, (0, 1)),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("argument", NOT_MATRICES, ids=["IntMatrix", "tuples", "lists"])
def test_builders_refuse_what_is_not_a_matrix(build, argument):
    with pytest.raises(ShapeError, match=f"expected a NonNegMatrix, got {type(argument).__name__}"):
        build(argument)


REFUSED = [
    (NonNegMatrix, ((1, 1.0), (1, 1)), ShapeError),
    (NonNegMatrix, ((1, Fraction(1)), (1, 1)), ShapeError),
    (NonNegMatrix, ((1, -1), (1, 1)), DomainError),
    (ZeroOneMatrix, ((1, 2), (1, 1)), DomainError),
    (NonNegMatrix, ((1, 1), (0, 0)), DomainError),
    (ZeroOneMatrix, ((1, 0), (1, 0)), DomainError),
]


def test_checks_run_only_where_a_matrix_enters(monkeypatch):
    prebuilt = [edge_shift(NonNegMatrix(((2, 1), (1, 0)))), ZeroOneMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))]
    checks = count_calls(monkeypatch, NonNegMatrix, "__post_init__")
    triples = [
        (FgAbelianGroup(0, (2, 4)), (), (1, 2), 1),
        (FgAbelianGroup(0, (1009,)), (), (1008,), -1),
        (FgAbelianGroup(2, (2, 12)), (3, -6), (1, 5), 0),
        (FgAbelianGroup(0), (), (), 1),
    ]
    for group, free, torsion, sign in triples:
        realize(group, group.element(free, torsion), sign)
    for matrix in prebuilt:
        invariant_triple(matrix)
    assert checks == []

    rows = [[1, 1], [1, 0]]
    entered = [ZeroOneMatrix(rows), NonNegMatrix.from_rows(rows), matrix_from_rows(rows)]
    validate(rows)
    assert len(checks) == 4 and checks[:3] == entered
    for cls, entries, error in REFUSED:
        with pytest.raises(error):
            cls(entries)
    assert len(checks) == 4 + len(REFUSED)
