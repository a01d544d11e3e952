import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from markovshift import (
    DomainError,
    IntMatrix,
    NonNegMatrix,
    PreconditionError,
    ShapeError,
    ZeroOneMatrix,
    admissible_words,
    count_period_points,
    edge_shift,
    higher_block,
    invariant_triple,
    is_cyclically_admissible,
    is_irreducible,
    lex_min_rotation,
    out_split,
    periodic_orbit_words,
    pointed_is_isomorphic,
    relation_matrix,
    validate,
)
from markovshift import shifts
from markovshift.shifts import classifiability_issue, column_amalgamation, require_classifiable

from _support import (
    allows,
    count_calls,
    identity_minus,
    least_rotation_period,
    pairs_allowed,
    random_nonneg,
    random_zero_one,
)

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
GOLDEN = ZeroOneMatrix.from_rows([[1, 1], [1, 0]])
PERM = [[0, 1], [1, 0]]


class TestMatrixTypes:
    def test_zero_one_requires_two_states(self):
        with pytest.raises(ShapeError):
            ZeroOneMatrix.from_rows([[1]])

    def test_zero_one_rejects_large_entries(self):
        with pytest.raises(DomainError):
            ZeroOneMatrix.from_rows([[1, 2], [1, 1]])

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError):
            ZeroOneMatrix.from_rows([[0, 0], [1, 1]])

    def test_zero_column_rejected(self):
        with pytest.raises(DomainError):
            NonNegMatrix.from_rows([[0, 1], [0, 1]])

    def test_nonneg_allows_single_state(self):
        assert NonNegMatrix.from_rows([[2]]).size == 1

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            NonNegMatrix.from_rows([[1, -1], [1, 1]])

    @pytest.mark.parametrize(
        "cls, entries, error, message",
        [
            (NonNegMatrix, ((1, 1), (1,)), ShapeError, "transition matrix must be square"),
            (ZeroOneMatrix, ((1,),), ShapeError, "matrix must have size at least 2"),
            (NonNegMatrix, ((1, True), (1, 1)), ShapeError, "entry True is not an integer"),
            (NonNegMatrix, ((1, 1), (1.0, 1)), ShapeError, "entry 1.0 is not an integer"),
            (NonNegMatrix, ((1, 1), (1, -3)), DomainError, "negative entry -3 in row 2"),
            (ZeroOneMatrix, ((1, 2), (1, 1)), DomainError, "entry 2 is not in {0, 1}"),
            (ZeroOneMatrix, ((2, 1), (1, -1)), DomainError, "negative entry -1 in row 2"),
            (NonNegMatrix, ((1, 1), (0, 0)), DomainError, "row 2 is identically zero"),
            (NonNegMatrix, ((1, 0), (1, 0)), DomainError, "column 2 is identically zero"),
            (NonNegMatrix, ((1, 1), (-2, True)), DomainError, "negative entry -2 in row 2"),
            (NonNegMatrix, ((1, False), (-2, 1)), ShapeError, "entry False is not an integer"),
            (ZeroOneMatrix, ((1.9, 1), (1, 0.5)), ShapeError, "entry 1.9 is not an integer"),
            (NonNegMatrix, (("2", 1), (1, 1)), ShapeError, "entry '2' is not an integer"),
        ],
    )
    def test_first_bad_entry_is_named(self, cls, entries, error, message):
        for build in (cls, cls.from_rows):
            with pytest.raises(error) as info:
                build(entries)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, entry, message",
        [
            (NonNegMatrix, -(10**5000), "negative entry -1{} in row 1"),
            (ZeroOneMatrix, 10**5000, "entry 1{} is not in {{0, 1}}"),
        ],
        ids=["negative", "above_one"],
    )
    def test_an_entry_past_the_str_digit_limit_is_named(self, cls, entry, message):
        # 10^5000 has 5,001 digits, more than Python 3.11's str() converts
        with pytest.raises(DomainError) as info:
            cls([[entry, 1], [1, 1]])
        assert str(info.value) == message.format("0" * 5000)

    def test_int_subclass_entries_accepted(self):
        class Count(int):
            pass

        assert ZeroOneMatrix(((Count(1), 1), (1, Count(0)))).size == 2


class TestIdentityMinus:
    def test_entries_in_both_orientations(self):
        # the library's id - A^t and the tests' id - A
        rng = random.Random(87)
        for _ in range(20):
            a = random_nonneg(rng, rng.randint(1, 6))
            n = a.size
            for transpose, got in ((True, relation_matrix(a)), (False, identity_minus(a))):
                assert got.entries == tuple(
                    tuple(int(i == j) - (a.entries[j][i] if transpose else a.entries[i][j]) for j in range(n))
                    for i in range(n)
                )


class TestValidate:
    def test_full_two_shift_classifiable(self):
        assert validate(FULL2).classifiable

    def test_zero_column_reported(self):
        diagnostics = validate([[0, 1], [0, 1]])
        assert [i.code for i in diagnostics.issues] == ["zero_column"]

    def test_permutation_fails_condition_I(self):
        diagnostics = validate(PERM)
        assert [i.code for i in diagnostics.issues] == ["condition_I"]

    def test_reducible_reported(self):
        diagnostics = validate([[1, 1], [0, 1]])
        assert [i.code for i in diagnostics.issues] == ["reducible"]

    def test_too_small_binary(self):
        assert "too_small" in [i.code for i in validate([[1]]).issues]

    def test_single_state_nonneg_is_fine(self):
        assert validate([[2]]).classifiable

    def test_not_square(self):
        assert "not_square" in [i.code for i in validate([[1, 1]]).issues]

    @pytest.mark.parametrize(
        "rows, issues",
        [
            ([], [("empty", "matrix has no rows")]),
            ([[1, 1]], [("not_square", "matrix is not square")]),
            ([[1, 1], [1]], [("not_square", "matrix is not square")]),
            ([[1, 1.0], [1, 1]], [("bad_entry", "entries must be integers")]),
            ([[True, 1], [1, 1]], [("bad_entry", "entries must be integers")]),
            ([["2", 1], [1, 1]], [("bad_entry", "entries must be integers")]),
            ([[-1, 1.5], [1, 1]], [("bad_entry", "entries must be integers")]),
            ([[1, 1], [-1, 1]], [("negative_entry", "entries must be nonnegative")]),
            (
                [[0, 0, 0], [1, 0, 1], [0, 0, 0]],
                [
                    ("zero_row", "row 1 is identically zero"),
                    ("zero_row", "row 3 is identically zero"),
                    ("zero_column", "column 2 is identically zero"),
                ],
            ),
            (
                [[1, 0, 0], [1, 0, 0], [1, 0, 0]],
                [
                    ("zero_column", "column 2 is identically zero"),
                    ("zero_column", "column 3 is identically zero"),
                ],
            ),
            (
                [[0]],
                [
                    ("zero_row", "row 1 is identically zero"),
                    ("zero_column", "column 1 is identically zero"),
                    ("too_small", "a 0/1 transition matrix needs at least 2 states"),
                ],
            ),
            ([[1]], [("too_small", "a 0/1 transition matrix needs at least 2 states")]),
            ([[2]], []),
            ([[1, 1], [0, 1]], [("reducible", "the transition graph is not strongly connected")]),
            (
                PERM,
                [("condition_I", "permutation matrix: the shift space is finite, so every point is isolated")],
            ),
            ([[1, 1], [1, 0]], []),
        ],
    )
    def test_issues_pinned(self, rows, issues):
        # codes, messages and their order, for each kind of bad input
        assert [(i.code, i.message) for i in validate(rows).issues] == issues
        assert [(i.code, i.message) for i in validate(iter(map(iter, rows))).issues] == issues

    def test_int_subclass_entries_validate(self):
        class Count(int):
            pass

        assert validate([[Count(1), 1], [1, Count(0)]]).classifiable

    def test_matrix_object_agrees_with_its_rows(self):
        rng = random.Random(88)
        matrices = [NonNegMatrix(((1,),)), NonNegMatrix(((3,),)), ZeroOneMatrix.from_rows(PERM)]
        for _ in range(150):
            n = rng.randint(1, 7)
            cls = ZeroOneMatrix if n > 1 and rng.random() < 0.5 else NonNegMatrix
            rows = [[rng.randint(0, 1 if cls is ZeroOneMatrix else 2) for _ in range(n)] for _ in range(n)]
            perm = rng.sample(range(n), n)
            if rng.random() < 0.2:
                rows = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
            if all(map(any, rows)) and all(map(any, zip(*rows))):
                matrices.append(cls.from_rows(rows))
        codes = set()
        for m in matrices:
            diagnostics = validate(m)
            assert diagnostics == validate(m.entries)
            codes.update([i.code for i in diagnostics.issues] or ["classifiable"])
        assert codes == {"classifiable", "too_small", "reducible", "condition_I"}


class TestIrreducibility:
    def test_full_shift(self):
        assert is_irreducible(FULL2)

    def test_upper_triangular(self):
        assert not is_irreducible(NonNegMatrix.from_rows([[1, 1], [0, 1]]))

    def test_golden_mean(self):
        assert is_irreducible(GOLDEN)

    def test_matches_reachability_by_matrix_powers(self):
        # entries up to 2, reducible draws kept: the graph is strongly
        # connected exactly when (id + P)^n has no zero entry, P the 0/1 pattern
        rng = random.Random(2031)
        seen = Counter()
        while len(seen) < 2 or min(seen.values()) < 100:
            n = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            if not all(map(any, rows)) or not all(map(any, zip(*rows))):
                continue
            reach = [[i == j or x > 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
            power = reach
            for _ in range(n - 1):
                power = [[any(p and r[j] for p, r in zip(row, reach)) for j in range(n)] for row in power]
            connected = all(map(all, power))
            assert is_irreducible(NonNegMatrix(rows)) == connected
            seen[connected] += 1


class TestConditionI:
    def test_full_shift(self):
        assert validate(FULL2).classifiable

    def test_two_cycle(self):
        assert not validate(ZeroOneMatrix.from_rows(PERM)).classifiable

    def test_golden_mean(self):
        assert validate(GOLDEN).classifiable

    def test_agrees_with_forced_path_oracle(self):
        # an isolated point exists iff some 12-step forward path is forced;
        # for an irreducible graph that happens exactly on permutations
        def forced_path_exists(m: ZeroOneMatrix, steps: int = 12) -> bool:
            for start in range(1, m.size + 1):
                symbol = start
                forced = True
                for _ in range(steps):
                    nexts = [t for t in range(1, m.size + 1) if allows(m, symbol, t)]
                    if len(nexts) != 1:
                        forced = False
                        break
                    symbol = nexts[0]
                if forced:
                    return True
            return False

        from itertools import product as iproduct

        for n in (2, 3):
            for bits in iproduct((0, 1), repeat=n * n):
                rows = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
                if any(sum(r) == 0 for r in rows):
                    continue
                if any(sum(rows[i][j] for i in range(n)) == 0 for j in range(n)):
                    continue
                m = ZeroOneMatrix.from_rows(rows)
                if not is_irreducible(m):
                    continue
                assert validate(m).classifiable == (not forced_path_exists(m))
        rng = random.Random(2)
        for _ in range(20):
            m = random_zero_one(rng, 4)
            assert validate(m).classifiable == (not forced_path_exists(m))


class TestClassifiability:
    def test_issues_in_order(self):
        cases = [
            ([[1]], "too_small"),
            ([[1, 1], [0, 1]], "reducible"),
            ([[1, 0], [0, 1]], "reducible"),
            (PERM, "condition_I"),
            ([[2]], None),
            ([[1, 1], [1, 0]], None),
        ]
        for rows, code in cases:
            issue = classifiability_issue(NonNegMatrix.from_rows(rows))
            assert (issue and issue.code) == code
            assert [i.code for i in validate(rows).issues] == ([code] if code else [])

    def test_require_classifiable_raises_the_issue(self):
        for rows in ([[1]], [[1, 1], [0, 1]], PERM):
            issue = classifiability_issue(NonNegMatrix.from_rows(rows))
            with pytest.raises(PreconditionError) as raised:
                require_classifiable(NonNegMatrix.from_rows(rows))
            assert str(raised.value) == f"matrix is not classifiable: {issue.message}"
        require_classifiable(GOLDEN)

    def test_amalgamation_keeps_the_issue(self):
        # merging equal columns is a conjugacy of matrices without zero rows or
        # columns, so the issue is decided as well on the merged matrix
        rng = random.Random(1973)
        codes = Counter()
        merged = 0
        while sum(codes.values()) < 2400:
            n = rng.randint(1, 7)
            kind = rng.randrange(4)
            if kind == 0:
                # a permutation, irreducible only when it is one cycle
                perm = rng.sample(range(n), n)
                rows = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
            else:
                top = rng.choice((1, 1, 3))
                density = rng.uniform(0.15, 0.6)
                rows = [[rng.randint(1, top) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
                if kind == 2 and n > 1:
                    i, j = rng.sample(range(n), 2)
                    for row in rows:
                        row[i] = row[j]
            if not (all(map(any, rows)) and all(map(any, zip(*rows)))):
                continue
            a = NonNegMatrix.from_rows(rows)
            if kind == 3 and 2 <= sum(map(sum, rows)) <= 30:
                a = edge_shift(a)
            b = column_amalgamation(a)
            issue_a, issue_b = classifiability_issue(a), classifiability_issue(b)
            assert (issue_a and issue_a.code) == (issue_b and issue_b.code), rows
            codes[issue_a and issue_a.code] += 1
            merged += b.size < a.size
        assert min(codes[code] for code in ("reducible", "condition_I", None)) >= 200
        assert codes["too_small"] > 0
        assert merged >= 600


class TestIntegerArguments:
    # a bool is not read as 1 and a float is refused, never truncated

    def test_period_bound(self):
        for bad in (2.0, True):
            with pytest.raises(ShapeError, match=f"period bound {bad!r} is not an integer"):
                periodic_orbit_words(FULL2, bad)

    def test_period(self):
        for bad in (2.0, True):
            with pytest.raises(ShapeError, match=f"period {bad!r} is not an integer"):
                count_period_points(FULL2, bad)

    def test_word_length(self):
        for bad in (2.0, True):
            with pytest.raises(ShapeError, match=f"word length {bad!r} is not an integer"):
                admissible_words(FULL2, bad)

    def test_block_length(self):
        for bad in (2.0, True):
            with pytest.raises(ShapeError, match=f"word length {bad!r} is not an integer"):
                higher_block(FULL2, bad)


class TestMatrixArguments:
    # the census and the counts read a checked transition matrix, never
    # rows or an integer matrix that is not a shift
    @pytest.mark.parametrize("bad", [[[1, 1], [1, 1]], IntMatrix([[1, 1], [1, 1]])], ids=["list", "IntMatrix"])
    def test_period_counts_and_orbits_refuse_a_non_matrix(self, bad):
        name = type(bad).__name__
        with pytest.raises(ShapeError, match=f"^expected a NonNegMatrix, got {name}$"):
            count_period_points(bad, 2)
        with pytest.raises(ShapeError, match=f"^expected a NonNegMatrix, got {name}$"):
            periodic_orbit_words(bad, 2)


class TestRandomMatrices:
    def test_impossible_sizes_raise(self):
        rng = random.Random(5)
        for n in (0, 1):
            with pytest.raises(ValueError):
                random_zero_one(rng, n)
        with pytest.raises(ValueError):
            random_nonneg(rng, 1, max_entry=1)
        with pytest.raises(ValueError):
            random_nonneg(rng, 0)
        assert random_nonneg(rng, 1, max_entry=2).entries == ((2,),)
        assert random_zero_one(rng, 2).size == 2


class TestWords:
    def test_admissibility(self):
        assert is_cyclically_admissible(GOLDEN, (1, 2))
        assert not is_cyclically_admissible(GOLDEN, (2, 1, 2))

    def test_multiple_edges_agree_with_allows(self):
        rng = random.Random(77)
        cases = [NonNegMatrix.from_rows([[2, 0, 1], [0, 3, 1], [1, 1, 0]])]
        cases += [random_nonneg(rng, rng.randint(1, 3)) for _ in range(5)]
        for m in cases:
            for length in range(1, 5):
                for word in product(range(1, m.size + 1), repeat=length):
                    pairs = list(zip(word, word[1:]))
                    assert is_cyclically_admissible(m, word) == all(
                        allows(m, s, t) for s, t in pairs + [(word[-1], word[0])]
                    )
        assert not is_cyclically_admissible(cases[0], (1, 4))
        assert not is_cyclically_admissible(cases[0], ())

    def test_non_integer_symbols_are_not_admissible(self):
        # each of these equals or sorts with an int, and used to raise a bare TypeError
        for word in ((1.0,), (1, 2.0), ("1",), (Fraction(1),), (Decimal(2), 1), ([1],)):
            assert not is_cyclically_admissible(FULL2, word)
        # a bool is an int, True read as 1
        assert is_cyclically_admissible(FULL2, (True,))
        assert is_cyclically_admissible(GOLDEN, (True, 2))
        assert not is_cyclically_admissible(GOLDEN, (2, True, 2))
        assert not is_cyclically_admissible(FULL2, (False,))

    def test_admissible_words_against_brute_force(self):
        rng = random.Random(79)
        cases = [FULL2, GOLDEN]
        cases += [random_zero_one(rng, rng.randint(2, 5), rng.choice((0.3, 0.5))) for _ in range(30)]
        for m in cases:
            for k in range(1, 7):
                expected = [w for w in product(range(1, m.size + 1), repeat=k) if pairs_allowed(m, w)]
                assert admissible_words(m, k) == expected

    def test_rotation_helpers(self):
        assert least_rotation_period((1, 2, 1, 2)) == 2
        assert least_rotation_period((1, 2, 1, 2, 1)) == 5
        assert lex_min_rotation((2, 1, 1)) == (1, 1, 2)


class TestPeriodicOrbits:
    def test_full_two_shift_fixed_points(self):
        assert periodic_orbit_words(FULL2, 1) == [(1,), (2,)]

    def test_golden_mean_up_to_two(self):
        assert periodic_orbit_words(GOLDEN, 2) == [(1,), (1, 2)]

    def test_full_two_shift_up_to_two(self):
        assert periodic_orbit_words(FULL2, 2) == [(1,), (2,), (1, 2)]

    def test_matches_naive_enumeration(self):
        from _support import naive_periodic_orbit_words

        rng = random.Random(404)
        cases = [FULL2, GOLDEN] + [random_zero_one(rng, rng.randint(2, 3)) for _ in range(10)]
        for m in cases:
            assert periodic_orbit_words(m, 7) == naive_periodic_orbit_words(m, 7)
        for _ in range(5):
            m = random_zero_one(rng, 4)
            assert periodic_orbit_words(m, 6) == naive_periodic_orbit_words(m, 6)

    def test_representatives_are_canonical(self):
        rng = random.Random(17)
        for _ in range(10):
            m = random_zero_one(rng, 4)
            reps = periodic_orbit_words(m, 6)
            assert len(set(reps)) == len(reps)
            for w in reps:
                assert is_cyclically_admissible(m, w)
                assert lex_min_rotation(w) == w
                assert least_rotation_period(w) == len(w)

    @pytest.mark.parametrize(
        "extra, expected",
        [
            # a chord from the last state back to state 2: its two simple
            # cycles are words of 1,049 and 1,050 symbols
            ((1049, 1), [tuple(range(2, 1051)), tuple(range(1, 1051))]),
            # a self-loop at state 1: every prefix 1, ..., 1, 2 but the first
            # is too far from closing, and no other first symbol closes at all
            ((0, 0), [(1,), tuple(range(1, 1051))]),
        ],
        ids=["chord", "self-loop"],
    )
    def test_long_cycles_need_no_deep_recursion(self, extra, expected):
        # 1,050 states in a cycle, far deeper than a recursive walk may go
        n = 1050
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = 1
        rows[extra[0]][extra[1]] = 1
        assert periodic_orbit_words(ZeroOneMatrix.from_rows(rows), n) == expected

    @pytest.mark.parametrize("max_period", [1, 2])
    def test_shortest_bounds_match_naive_enumeration(self, max_period):
        from _support import naive_periodic_orbit_words

        rng = random.Random(2600 + max_period)
        for n in range(2, 7):
            for _ in range(6):
                m = random_zero_one(rng, n, rng.choice((0.3, 0.5, 0.8)))
                assert periodic_orbit_words(m, max_period) == naive_periodic_orbit_words(m, max_period)

    @pytest.mark.parametrize(
        "rows, dead",
        [
            # the golden mean: state 2 returns only through state 1
            ([[1, 1], [1, 0]], {2}),
            # state 4 leads only to smaller states, and state 3 is entered only from 2
            ([[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]], {3, 4}),
        ],
        ids=["golden-mean", "top-state-leads-down"],
    )
    def test_first_symbols_that_cannot_close_match_naive_enumeration(self, rows, dead):
        from _support import naive_periodic_orbit_words

        m = ZeroOneMatrix.from_rows(rows)
        words = periodic_orbit_words(m, 8)
        assert words == naive_periodic_orbit_words(m, 8)
        assert {w[0] for w in words} == set(range(1, m.size + 1)) - dead

    def test_counts(self):
        assert count_period_points(FULL2, 2) == 4
        assert count_period_points(GOLDEN, 1) == 1
        assert count_period_points(GOLDEN, 2) == 3
        assert count_period_points(FULL2, 3) == 8
        assert count_period_points(FULL2, 64) == 2**64
        with pytest.raises(DomainError):
            count_period_points(FULL2, 0)

    def test_counts_match_explicit_powers(self):
        rng = random.Random(4040)
        for size in (2, 3, 4, 5, 6):
            for _ in range(2):
                m = random_zero_one(rng, size)
                power = step = IntMatrix(m.entries)
                for p in range(1, 41):
                    assert count_period_points(m, p) == sum(power.diagonal())
                    power = power @ step

    def test_counts_at_powers_of_two_and_one_below(self):
        # p = 2^k squares only, and its last product is the trace-only one;
        # p = 2^k - 1 multiplies in every square
        rng = random.Random(4141)
        for size in (7, 8):
            m = random_zero_one(rng, size, density=0.4)
            powers = [IntMatrix(m.entries)]
            for _ in range(63):
                powers.append(powers[-1] @ powers[0])
            for k in range(7):
                for p in {2**k, 2**k - 1} - {0}:
                    assert count_period_points(m, p) == sum(powers[p - 1].diagonal())

    def test_counts_in_any_order_match_explicit_powers(self):
        # the matrix keeps A^(p - 1) of its last count; whatever the order,
        # and on two equal matrices counted in turn, each count is tr(A^p)
        rng = random.Random(4242)
        periods = list(range(1, 41))
        shuffled = rng.sample(periods, len(periods))
        orders = [periods, periods[::-1], shuffled, [p for p in periods for _ in range(2)], periods * 2]
        for size in (2, 4, 6):
            m = random_zero_one(rng, size)
            traces = [None]
            power = step = IntMatrix(m.entries)
            for _ in periods:
                traces.append(sum(power.diagonal()))
                power = power @ step
            for order in orders:
                counted = ZeroOneMatrix(m.entries)
                assert [count_period_points(counted, p) for p in order] == [traces[p] for p in order]
            first, second = ZeroOneMatrix(m.entries), ZeroOneMatrix(m.entries)
            for p in periods:
                assert count_period_points(first, p) == count_period_points(second, p) == traces[p]

    @pytest.mark.parametrize("last, products", [(20, 18), (23, 21)])
    def test_consecutive_periods_take_one_product_each(self, monkeypatch, last, products):
        # periods 1..P take P - 2 products; squaring each period from A took
        # 57 for P = 20 and 73 for P = 23
        m = ZeroOneMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        calls = count_calls(monkeypatch, shifts, "_product")
        for p in range(1, last + 1):
            count_period_points(m, p)
        assert len(calls) == products

    def test_no_order_takes_more_products_than_squaring(self, monkeypatch):
        # squaring each period from A, as _power_factors does, is the most a
        # count may take, whatever period the matrix counted before
        rng = random.Random(4343)
        periods = list(range(1, 41))
        orders = [periods, periods[::-1], rng.sample(periods, len(periods)), [3, 2, 3, 5, 4, 5, 6, 1, 2, 9]]
        calls = count_calls(monkeypatch, shifts, "_product")
        for order in orders:
            m = random_zero_one(rng, 4)
            for p in order:
                del calls[:]
                shifts._power_factors(m, p)
                squaring = len(calls)
                del calls[:]
                count_period_points(m, p)
                assert len(calls) <= squaring

    def test_period_two_on_a_large_matrix_takes_no_product(self, monkeypatch):
        rng = random.Random(4444)
        rows = [[int(i == j or rng.random() < 0.1) for j in range(200)] for i in range(200)]
        m = ZeroOneMatrix.from_rows(rows)
        calls = count_calls(monkeypatch, shifts, "_product")
        assert count_period_points(m, 2) == sum(rows[i][k] * rows[k][i] for i in range(200) for k in range(200))
        assert calls == []

    def test_counting_keeps_equality_hash_and_repr(self):
        m, fresh = ZeroOneMatrix.from_rows([[1, 1], [1, 0]]), ZeroOneMatrix.from_rows([[1, 1], [1, 0]])
        before = (hash(m), repr(m))
        for p in range(1, 8):
            count_period_points(m, p)
        assert m == fresh and fresh == m and len({m, fresh}) == 1
        assert (hash(m), repr(m)) == before == (hash(fresh), repr(fresh))

    def test_trace_equals_weighted_orbit_count(self):
        rng = random.Random(23)
        for _ in range(12):
            m = random_zero_one(rng, rng.randint(2, 4))
            reps = periodic_orbit_words(m, 6)
            by_length: dict[int, int] = {}
            for w in reps:
                by_length[len(w)] = by_length.get(len(w), 0) + 1
            for p in range(1, 7):
                weighted = sum(q * by_length.get(q, 0) for q in range(1, p + 1) if p % q == 0)
                assert count_period_points(m, p) == weighted


class TestEdgeShift:
    def test_two_loops(self):
        out = edge_shift(NonNegMatrix.from_rows([[2]]))
        assert out.entries == ((1, 1), (1, 1))

    def test_full_two_shift_edges(self):
        out = edge_shift(FULL2)
        # edges in order (1,1),(1,2),(2,1),(2,2); e -> f iff e ends at f's source
        assert out.entries == (
            (1, 1, 0, 0),
            (0, 0, 1, 1),
            (1, 1, 0, 0),
            (0, 0, 1, 1),
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            edge_shift(NonNegMatrix.from_rows([[1]]))

    def test_follower_pairs_against_edge_list(self):
        rng = random.Random(412)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 5)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if not all(map(any, rows)) or not all(map(any, zip(*rows))):
                continue
            edges = [(i, j) for i in range(n) for j in range(n) for _ in range(rows[i][j])]
            if len(edges) < 2:
                continue
            out = edge_shift(NonNegMatrix.from_rows(rows))
            assert out.size == len(edges)
            for e, (_, end) in enumerate(edges):
                for f, (start, _) in enumerate(edges):
                    assert out.entries[e][f] == (1 if end == start else 0)
            checked += 1

    def test_preserves_validation_and_irreducibility(self):
        rng = random.Random(77)
        for _ in range(15):
            m = random_nonneg(rng, rng.randint(1, 3))
            out = edge_shift(m)
            assert validate(out).classifiable
            assert is_irreducible(out)

    def test_preserves_cycle_counts_on_binary_input(self):
        rng = random.Random(78)
        for _ in range(8):
            m = random_zero_one(rng, 3)
            out = edge_shift(m)
            for p in range(1, 7):
                assert count_period_points(m, p) == count_period_points(out, p)


class TestOutSplit:
    def test_explicit(self):
        # state 1 splits in two, state 2 in three; copy j of x has a 1 at every copy of y with A(x, y) > j
        out = out_split(NonNegMatrix.from_rows([[2, 1], [0, 3]]))
        assert out.entries == (
            (1, 1, 1, 1, 1),
            (1, 1, 0, 0, 0),
            (0, 0, 1, 1, 1),
            (0, 0, 1, 1, 1),
            (0, 0, 1, 1, 1),
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError, match="fewer than 2 states"):
            out_split(NonNegMatrix.from_rows([[1]]))

    def test_random_matrices_against_the_edge_shift(self):
        rng = random.Random(5021)
        checked = classifiable = 0
        while checked < 200:
            n = rng.randint(1, 5)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if not all(map(any, rows)) or not all(map(any, zip(*rows))) or rows == [[1]]:
                continue
            m = NonNegMatrix.from_rows(rows)
            out = out_split(m)
            edges = edge_shift(m)
            assert isinstance(out, ZeroOneMatrix)
            assert {x for row in out.entries for x in row} <= {0, 1}
            assert out.size == sum(map(max, rows))
            assert out.size <= edges.size
            assert column_amalgamation(out).entries == column_amalgamation(m).entries
            if validate(m).classifiable:
                want, got = invariant_triple(edges), invariant_triple(out)
                assert (got.group, got.det_value) == (want.group, want.det_value)
                assert pointed_is_isomorphic(got.pointed, want.pointed)
                classifiable += 1
            checked += 1
        assert classifiable > 100


class TestColumnAmalgamation:
    def test_full_shift_merges_to_one_state(self):
        assert column_amalgamation(FULL2).entries == ((2,),)

    def test_repeats_until_columns_differ(self):
        # the first pass merges the 3-words by their first two symbols, the second by the first
        assert column_amalgamation(higher_block(FULL2, 3)).entries == ((2,),)
        assert column_amalgamation(higher_block(GOLDEN, 3)).entries == GOLDEN.entries

    def test_distinct_columns_return_the_input(self):
        for m in (GOLDEN, NonNegMatrix.from_rows([[2, 1], [1, 0]])):
            assert column_amalgamation(m) is m

    def test_edge_shift_amalgamates_back(self):
        rng = random.Random(451)
        for _ in range(30):
            m = random_nonneg(rng, rng.randint(1, 5))
            merged = column_amalgamation(edge_shift(m))
            assert merged.size <= m.size
            assert len(set(zip(*merged.entries))) == merged.size
            assert column_amalgamation(merged) is merged
            if len(set(zip(*m.entries))) == m.size:
                assert merged == m

    def test_keeps_the_trace_of_every_power(self):
        # state amalgamations A = DE -> B = ED keep tr(A^p) for every p, so
        # the periodic command counts the points of A on B; half the draws
        # are out-splittings, which merge back
        rng = random.Random(300)
        merged = 0
        for _ in range(300):
            if rng.random() < 0.5:
                m = out_split(random_nonneg(rng, rng.randint(1, 4), max_entry=2))
            else:
                m = random_zero_one(rng, rng.randint(2, 7), rng.uniform(0.2, 0.8))
            b = column_amalgamation(m)
            merged += b.size < m.size
            for p in range(1, 9):
                assert count_period_points(b, p) == count_period_points(m, p)
        assert merged > 100


class TestHigherBlock:
    def test_window_one_is_identity_recoding(self):
        assert higher_block(FULL2, 1).entries == FULL2.entries

    def test_an_entry_above_one_is_refused_at_every_window(self, monkeypatch):
        # the words of such a matrix are those of its 0/1 pattern, so no
        # window recodes it; the refusal names the first such entry, and no
        # word is listed
        walks = count_calls(monkeypatch, shifts, "_word_walk")
        for rows, entry in (([[2, 1], [1, 1]], 2), ([[1, 3], [2, 1]], 3), ([[2]], 2)):
            for k in (1, 2, 3):
                with pytest.raises(DomainError, match=rf"^entry {entry} is not in \{{0, 1\}}$"):
                    higher_block(NonNegMatrix(rows), k)
        assert walks == []
        assert higher_block(NonNegMatrix([[1, 1], [1, 0]]), 2) == higher_block(GOLDEN, 2)

    def test_full_shift_two_blocks(self):
        out = higher_block(FULL2, 2)
        words = admissible_words(FULL2, 2)
        assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]
        for i, w in enumerate(words):
            for j, w2 in enumerate(words):
                assert out.entries[i][j] == (1 if w[1] == w2[0] else 0)

    def test_golden_mean_two_blocks(self):
        words = admissible_words(GOLDEN, 2)
        assert words == [(1, 1), (1, 2), (2, 1)]
        assert higher_block(GOLDEN, 2).entries == (
            (1, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
        )

    def test_preserves_periodic_point_counts(self):
        rng = random.Random(5150)
        for _ in range(8):
            m = random_zero_one(rng, rng.randint(2, 4))
            for k in (2, 3):
                blocked = higher_block(m, k)
                for p in range(1, 9):
                    assert count_period_points(m, p) == count_period_points(blocked, p)

    def test_follower_pairs_against_word_overlaps(self):
        rng = random.Random(416)
        for _ in range(200):
            m = random_zero_one(rng, rng.randint(2, 6), rng.choice((0.3, 0.5)))
            for k in (2, 3):
                words = admissible_words(m, k)
                assert higher_block(m, k).entries == tuple(
                    tuple(int(w[1:] == w2[:-1] and allows(m, w[-1], w2[-1])) for w2 in words)
                    for w in words
                )

    def test_irreducible_input_gives_irreducible_blocks(self):
        # the k-block graph of an irreducible matrix is one strongly connected
        # component, which is why positivity runs a single negative-cycle search
        rng = random.Random(417)
        for _ in range(100):
            m = random_zero_one(rng, rng.randint(2, 7), rng.choice((0.2, 0.3, 0.5)))
            for k in (1, 2, 3):
                assert is_irreducible(higher_block(m, k))
