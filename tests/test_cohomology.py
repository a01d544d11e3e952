import random
import re
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from markovshift import (
    DomainError,
    InadmissibleWordError,
    LocallyConstantFn,
    PreconditionError,
    ShapeError,
    VerificationError,
    ZeroOneMatrix,
    admissible_words,
    base_matrix,
    edge_shift,
    is_positive_class,
    orbit_sum,
    periodic_orbit_words,
    tail_extension,
)
from markovshift import cohomology, shifts
from markovshift.cohomology import _negative_cycle
from markovshift.shifts import block_graph

from _support import (
    _cyclic_pairs_allowed,
    attracting_weight,
    coboundary,
    constant_fn,
    count_calls,
    naive_orbit_sum,
    negative_cycle_full_rounds,
    pairs_allowed,
    random_zero_one,
)

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
SIGN_FN = LocallyConstantFn.over(FULL2, 1, {(1,): 1, (2,): -1})


def random_fn(rng: random.Random, m: ZeroOneMatrix, window: int, bound: int = 3) -> LocallyConstantFn:
    return LocallyConstantFn.over(
        m, window, {w: rng.randint(-bound, bound) for w in admissible_words(m, window)}
    )


def exhaustive_minimum(m: ZeroOneMatrix, fn: LocallyConstantFn, max_len: int) -> int:
    """Least orbit sum over all periodic orbits up to the given length."""
    return min(orbit_sum(m, fn, w) for w in periodic_orbit_words(m, max_len))


def checked_outcome(m: ZeroOneMatrix, fn: LocallyConstantFn, cycle: tuple) -> object:
    """What orbit_sum must return, or the (error type, message) it must raise, read from the rows and the table."""
    if not (cycle and all(1 <= s <= m.size for s in cycle) and _cyclic_pairs_allowed(m, cycle)):
        return InadmissibleWordError, f"cycle {cycle} is not cyclically admissible"
    n = len(cycle)
    for i in range(n):
        w = tuple(cycle[(i + t) % n] for t in range(fn.window))
        if w not in fn.values:
            return DomainError, f"function is not defined on word {w}"
    return naive_orbit_sum(m, fn, cycle)


def paths_by_steps(m: ZeroOneMatrix, k: int) -> int:
    """The number of admissible k-words, one vector step per symbol after the first."""
    counts = [1] * m.size
    for _ in range(k - 1):
        counts = [sum(c for c, allowed in zip(counts, row) if allowed) for row in m.entries]
    return sum(counts)


def outcome(m: ZeroOneMatrix, fn: LocallyConstantFn, cycle: tuple) -> object:
    try:
        return orbit_sum(m, fn, cycle)
    except (InadmissibleWordError, DomainError) as exc:
        return type(exc), str(exc)


class TestLocallyConstantFn:
    def test_domain_must_match_admissible_words(self):
        with pytest.raises(DomainError):
            LocallyConstantFn.over(FULL2, 1, {(1,): 1})
        with pytest.raises(DomainError):
            LocallyConstantFn.over(FULL2, 1, {(1,): 1, (2,): 0, (3,): 2})

    def test_a_wrong_table_is_named_without_listing_the_words(self, monkeypatch):
        # the 2^40 admissible 40-words are counted, and the walk to the first
        # three missing ones stops there
        enumerate_words = cohomology.admissible_words

        def short_words_only(a, k):
            assert k <= 2, f"listed the admissible {k}-words"
            return enumerate_words(a, k)

        monkeypatch.setattr(cohomology, "admissible_words", short_words_only)
        prefix = "function table does not match the admissible words: "
        first = [(1,) * 40, (1,) * 39 + (2,), (1,) * 38 + (2, 1)]
        message = f"{prefix}missing 1099511627776 admissible words, e.g. {first}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            LocallyConstantFn.over(FULL2, 40, {})
        # one admissible key, one too short and one off the alphabet
        table = {(1,) * 40: 0, (1,) * 39: 0, (3,) * 40: 0}
        message = f"{prefix}missing 1099511627775 admissible words, e.g. {first[1:] + [(1,) * 38 + (2, 2)]}; "
        message += f"2 keys are not admissible words, e.g. {[(1,) * 39, (3,) * 40]}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            LocallyConstantFn.over(FULL2, 40, table)

    def test_a_refusal_names_the_first_three_missing_words(self):
        # partial tables over random matrices: the words named are the first
        # three of every k-tuple in order that take a transition at each step
        # and are not keys, and the count is that of all such words
        rng = random.Random(29)
        prefix = "function table does not match the admissible words: "
        refused = 0
        for _ in range(40):
            m = random_zero_one(rng, rng.randint(2, 5), rng.uniform(0.3, 0.9))
            for window in range(1, 6):
                words = [w for w in product(range(1, m.size + 1), repeat=window) if pairs_allowed(m, w)]
                keep = rng.random()
                table = {w: 0 for w in words if rng.random() < keep}
                missing = [w for w in words if w not in table]
                if not missing:
                    assert LocallyConstantFn.over(m, window, table).values == table
                    continue
                message = f"{prefix}missing {len(missing)} admissible words, e.g. {missing[:3]}"
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    LocallyConstantFn.over(m, window, table)
                refused += 1
        assert refused > 150

    def test_a_missing_count_past_the_str_digit_limit_is_named(self):
        # 2^15000 has 4,516 digits, more than Python 3.11's str() converts;
        # its digits are checked 4,000 at a time for the same reason
        with pytest.raises(DomainError) as raised:
            LocallyConstantFn.over(FULL2, 15000, {})
        digits = re.search(r"missing (\d+) admissible words", str(raised.value)).group(1)
        assert (int(digits[:-4000]), int(digits[-4000:])) == divmod(2**15000, 10**4000)

    def test_a_very_wide_window_is_refused_in_time_logarithmic_in_it(self):
        # stepping a vector of path counts 299,999 times over integers that
        # grow to 300,000 bits takes seconds; repeated squaring takes under
        # 40 products of 2 x 2 matrices
        started = time.perf_counter()
        with pytest.raises(DomainError) as raised:
            LocallyConstantFn.over(FULL2, 300000, {})
        assert time.perf_counter() - started < 3.0
        digits = re.search(r"missing (\d+) admissible words", str(raised.value)).group(1)
        count = 0
        for start in range(0, len(digits), 4000):
            chunk = digits[start : start + 4000]
            count = count * 10 ** len(chunk) + int(chunk)
        assert count == 2**300000
        first = [(1,) * 300000, (1,) * 299999 + (2,), (1,) * 299998 + (2, 1)]
        prefix = "function table does not match the admissible words: "
        assert str(raised.value) == f"{prefix}missing {digits} admissible words, e.g. {first}"

    def test_word_count_is_the_number_of_paths(self, monkeypatch):
        # windows up to 60 take both ways of counting: vector steps while
        # they cost fewer operations, repeated squaring beyond
        squarings = count_calls(monkeypatch, shifts, "_power_factors")
        rng = random.Random(28)
        for _ in range(60):
            m = random_zero_one(rng, rng.randint(2, 5), rng.uniform(0.3, 0.9))
            for k in range(1, 61):
                assert shifts._word_count(m, k) == paths_by_steps(m, k)
            for k in range(1, 6):
                assert shifts._word_count(m, k) == len(admissible_words(m, k))
        assert len(squarings) > 1000

    def test_a_narrow_window_over_many_states_builds_no_product(self, monkeypatch):
        # a product of two 1,023 x 1,023 matrices takes most of a minute,
        # and four vector steps over the 2,067 transitions milliseconds
        m = edge_shift(tail_extension(base_matrix((0, 1009, 1)), (0, 1, 0)))
        squarings = count_calls(monkeypatch, shifts, "_power_factors")
        assert shifts._word_count(m, 5) == paths_by_steps(m, 5)
        assert squarings == []

    def test_non_integer_value_rejected_not_truncated(self):
        # truncated, this table would be all zeros and read as positive
        with pytest.raises(ShapeError, match="function value 0.5 is not an integer"):
            LocallyConstantFn.over(FULL2, 1, {(1,): 0.5, (2,): -0.5})

    def test_non_integer_key_symbol_rejected(self):
        # (True,) and (2.0,) compare equal to (1,) and (2,), so the
        # admissibility check alone accepted and stored them
        with pytest.raises(ShapeError, match="word symbol True is not an integer"):
            LocallyConstantFn.over(FULL2, 1, {(True,): 1, (2,): -1})
        with pytest.raises(ShapeError, match="word symbol 2.0 is not an integer"):
            LocallyConstantFn.over(FULL2, 1, {(1,): 1, (2.0,): -1})
        with pytest.raises(ShapeError, match="word symbol 1.0 is not an integer"):
            LocallyConstantFn.over(FULL2, 2, {w: 0 for w in [(1, 1), (1.0, 2), (2, 1), (2, 2)]})

    def test_direct_construction_checks_values(self):
        for bad in (1.0, True, "1"):
            with pytest.raises(ShapeError, match="is not an integer"):
                LocallyConstantFn(1, {(1,): 1, (2,): bad})

    def test_window_must_be_an_integer(self):
        # a window True matched the 1-symbol keys and was decided as 1
        with pytest.raises(ShapeError, match="window True is not an integer"):
            LocallyConstantFn(True, {(1,): 1, (2,): -1})
        with pytest.raises(ShapeError, match="window 1.5 is not an integer"):
            LocallyConstantFn(1.5, {})
        # over names its own parameter, not the word length of admissible_words
        with pytest.raises(ShapeError, match="window True is not an integer"):
            LocallyConstantFn.over(FULL2, True, {(1,): 1, (2,): -1})
        with pytest.raises(ShapeError, match="window 1.5 is not an integer"):
            LocallyConstantFn.over(FULL2, 1.5, {})
        with pytest.raises(DomainError, match="window must be at least 1"):
            LocallyConstantFn.over(FULL2, 0, {})

    def test_values_are_a_private_copy(self):
        table = {(1,): 1, (2,): -1}
        fn = LocallyConstantFn(1, table)
        assert fn == SIGN_FN
        assert repr(fn) == "LocallyConstantFn(window=1, values={(1,): 1, (2,): -1})"
        assert orbit_sum(FULL2, fn, (1, 2, 2)) == -1
        # editing the caller's dict after the window table was built changes nothing
        table[(2,)] = 5
        del table[(1,)]
        assert fn.values == {(1,): 1, (2,): -1}
        for cycle in ((1,), (2,), (1, 2, 2)):
            assert orbit_sum(FULL2, fn, cycle) == naive_orbit_sum(FULL2, fn, cycle)

    def test_values_are_read_only(self):
        fn = LocallyConstantFn(1, {(1,): 1, (2,): -1})
        assert orbit_sum(FULL2, fn, (1,)) == 1
        # the window table orbit_sum keeps cannot go stale: the values cannot change
        with pytest.raises(TypeError):
            fn.values[(1,)] = 5
        with pytest.raises(TypeError):
            del fn.values[(2,)]
        assert fn.values == {(1,): 1, (2,): -1}
        assert fn == SIGN_FN
        for cycle in ((1,), (2,), (1, 2, 2)):
            assert orbit_sum(FULL2, fn, cycle) == naive_orbit_sum(FULL2, fn, cycle)


class TestOrbitSum:
    def test_zero_function(self):
        zero = constant_fn(FULL2, 0)
        assert orbit_sum(FULL2, zero, (1, 2)) == 0

    def test_balanced_cycle(self):
        assert orbit_sum(FULL2, SIGN_FN, (1, 2)) == 0

    def test_fixed_point(self):
        assert orbit_sum(FULL2, SIGN_FN, (2,)) == -1

    def test_window_two_wraps_around(self):
        fn = LocallyConstantFn.over(
            FULL2, 2, {(1, 1): 5, (1, 2): 1, (2, 1): 2, (2, 2): -7}
        )
        # windows of (1,2)^inf read (1,2) then (2,1)
        assert orbit_sum(FULL2, fn, (1, 2)) == 3
        assert orbit_sum(FULL2, fn, (2,)) == -7

    def test_inadmissible_cycle_rejected(self):
        golden = ZeroOneMatrix.from_rows([[1, 1], [1, 0]])
        fn = constant_fn(golden, 1)
        with pytest.raises(InadmissibleWordError):
            orbit_sum(golden, fn, (2,))

    def test_windows_longer_than_the_cycle(self):
        fn = LocallyConstantFn.over(
            FULL2, 3, {w: 10 * i for i, w in enumerate(admissible_words(FULL2, 3))}
        )
        # (2,)^inf reads (2, 2, 2) once; (1, 2)^inf reads (1, 2, 1) then (2, 1, 2)
        assert orbit_sum(FULL2, fn, (2,)) == fn.values[(2, 2, 2)]
        assert orbit_sum(FULL2, fn, (1, 2)) == fn.values[(1, 2, 1)] + fn.values[(2, 1, 2)]
        window4 = LocallyConstantFn.over(FULL2, 4, {w: 1 for w in admissible_words(FULL2, 4)})
        assert orbit_sum(FULL2, window4, (1,)) == 1

    def test_matches_naive_oracle(self):
        rng = random.Random(4242)
        for size in (2, 3, 4, 5):
            for _ in range(3):
                m = random_zero_one(rng, size)
                words = periodic_orbit_words(m, 6)
                for window in (1, 2, 3, 4):
                    fn = random_fn(rng, m, window, bound=9)
                    for w in words:
                        assert orbit_sum(m, fn, w) == naive_orbit_sum(m, fn, w)

    def test_missing_window_names_the_word(self):
        partial = LocallyConstantFn(2, {(1, 1): 1, (2, 2): 1})
        with pytest.raises(DomainError, match=re.escape("function is not defined on word (1, 2)")):
            orbit_sum(FULL2, partial, (1, 2))
        assert orbit_sum(FULL2, partial, (1,)) == 1

    def test_out_of_range_or_empty_cycle_rejected(self):
        for cycle in ((3,), (1, 3), (0, 1), ()):
            with pytest.raises(InadmissibleWordError):
                orbit_sum(FULL2, SIGN_FN, cycle)


    def test_non_integer_symbols_rejected(self):
        # a hash lookup reads 1.0, Fraction(1) and Decimal(2) as ints; each of
        # these cycles used to raise a bare TypeError
        window2 = constant_fn(FULL2, 1, window=2)
        for fn in (SIGN_FN, window2):
            assert orbit_sum(FULL2, fn, (1, 2)) == naive_orbit_sum(FULL2, fn, (1, 2))
            for cycle in ((1.0,), (1, 2.0), ("1",), (Fraction(1),), (Decimal(2), 1), ([1],)):
                message = re.escape(f"cycle {cycle} is not cyclically admissible")
                with pytest.raises(InadmissibleWordError, match=message):
                    orbit_sum(FULL2, fn, cycle)

    def test_bools_read_as_ints_on_both_paths(self):
        assert orbit_sum(FULL2, SIGN_FN, (True, 2)) == 0
        assert orbit_sum(FULL2, SIGN_FN, (True,)) == 1
        # the key (1.0, 1) is no admissible word, so it stays out of the window
        # table; (True,) misses there and the checked path finds it by equality
        fn = LocallyConstantFn(2, {(1.0, 1): 5, (1, 2): 1, (2, 1): 2, (2, 2): -7})
        assert orbit_sum(FULL2, fn, (True,)) == 5
        assert orbit_sum(FULL2, fn, (True, 2)) == 3

    def test_int_subclass_symbols_read_as_ints(self):
        # the sum of these symbols is not an int, as with floats, yet each is an int
        class Symbol(int):
            def __add__(self, other):
                return Symbol(int(self) + other)

            __radd__ = __add__

        cycle = (Symbol(1), Symbol(2))
        for fn in (SIGN_FN, constant_fn(FULL2, 1, window=2)):
            assert orbit_sum(FULL2, fn, cycle) == naive_orbit_sum(FULL2, fn, (1, 2))

    def test_table_lookups_match_the_checked_oracle(self):
        rng = random.Random(2202)
        for size in (2, 3, 4, 5):
            for _ in range(2):
                m = random_zero_one(rng, size)
                other = random_zero_one(rng, size)
                cycles = sorted(set(periodic_orbit_words(m, 6)) | set(periodic_orbit_words(other, 6)))
                cycles += [tuple(rng.randint(1, size) for _ in range(rng.randint(1, 7))) for _ in range(40)]
                cycles += [(0,), (size + 1,), (1, size + 1), (-1, 1), ()]
                for window in (1, 2, 3, 4):
                    words = admissible_words(m, window)
                    fns = [
                        random_fn(rng, m, window, bound=9),
                        random_fn(rng, other, window, bound=9),
                        # partial, built directly
                        LocallyConstantFn(window, {w: rng.randint(-9, 9) for w in words if rng.random() < 0.7}),
                        # over-complete: every word on 0..size+1, admissible or not
                        LocallyConstantFn(
                            window, {w: rng.randint(-9, 9) for w in product(range(size + 2), repeat=window)}
                        ),
                        # partial and over-complete: some keys inadmissible, some admissible words missing
                        LocallyConstantFn(
                            window,
                            {
                                w: rng.randint(-9, 9)
                                for w in product(range(size + 2), repeat=window)
                                if rng.random() < 0.7
                            },
                        ),
                    ]
                    for fn in fns:
                        # one function read over two matrices in turn: a table
                        # kept for the other matrix would show
                        for a in (m, other, m):
                            for cycle in cycles:
                                assert outcome(a, fn, cycle) == checked_outcome(a, fn, cycle)

    def test_a_wide_window_table_enumerates_only_transitions(self, monkeypatch):
        # the table is built from the function's keys and the matrix's
        # transitions, not from the 2^16 admissible 16-words of the full shift
        widths = []
        enumerate_words = cohomology.admissible_words
        monkeypatch.setattr(cohomology, "admissible_words", lambda a, k: widths.append(k) or enumerate_words(a, k))
        assert orbit_sum(FULL2, LocallyConstantFn(16, {(1,) * 16: 1}), (1,)) == 1
        assert widths == [2]


class TestAttractingWeight:
    def test_single_wind_is_orbit_sum(self):
        assert attracting_weight(FULL2, SIGN_FN, (1, 2), 1) == orbit_sum(FULL2, SIGN_FN, (1, 2))

    def test_triple_wind_on_fixed_point(self):
        assert attracting_weight(FULL2, SIGN_FN, (2,), 3) == -3

    def test_constant_function_counts_length(self):
        one = constant_fn(FULL2, 1)
        for n in (1, 2, 5):
            assert attracting_weight(FULL2, one, (1, 2, 2), n) == n * 3

    def test_linearity_in_wind_count(self):
        rng = random.Random(321)
        for _ in range(10):
            m = random_zero_one(rng, 3)
            fn = random_fn(rng, m, 1)
            cycle = periodic_orbit_words(m, 3)[-1]
            base = attracting_weight(m, fn, cycle, 1)
            for n in (2, 3, 7):
                assert attracting_weight(m, fn, cycle, n) == n * base


class TestCoboundary:
    def test_constant_gives_zero(self):
        eta = constant_fn(FULL2, 4)
        cb = coboundary(FULL2, eta)
        assert all(v == 0 for v in cb.values.values())

    def test_explicit_table(self):
        eta = LocallyConstantFn.over(FULL2, 1, {(1,): 1, (2,): 0})
        cb = coboundary(FULL2, eta)
        assert cb.window == 2
        assert cb.values == {(1, 1): 0, (1, 2): 1, (2, 1): -1, (2, 2): 0}

    def test_telescoping_orbit_sums(self):
        rng = random.Random(55)
        for _ in range(10):
            m = random_zero_one(rng, 3)
            eta = random_fn(rng, m, rng.randint(1, 2))
            cb = coboundary(m, eta)
            for cycle in periodic_orbit_words(m, 5):
                assert orbit_sum(m, cb, cycle) == 0


class TestIsPositiveClass:
    def test_zero_function_positive(self):
        assert is_positive_class(FULL2, constant_fn(FULL2, 0)).positive

    def test_constant_one_positive(self):
        assert is_positive_class(FULL2, constant_fn(FULL2, 1)).positive

    def test_sign_function_negative_with_witness(self):
        result = is_positive_class(FULL2, SIGN_FN)
        assert not result.positive
        assert result.witness == (2,)
        assert orbit_sum(FULL2, SIGN_FN, result.witness) == -1

    def test_requires_irreducible(self):
        reducible = [[1, 1], [0, 1]]
        m = ZeroOneMatrix.from_rows(reducible)
        message = "^matrix is not classifiable: the transition graph is not strongly connected$"
        with pytest.raises(PreconditionError, match=message):
            is_positive_class(m, constant_fn(m, 1))

    def test_requires_condition_I(self):
        m = ZeroOneMatrix.from_rows([[0, 1], [1, 0]])
        message = (
            "^matrix is not classifiable: "
            "permutation matrix: the shift space is finite, so every point is isolated$"
        )
        with pytest.raises(PreconditionError, match=message):
            is_positive_class(m, constant_fn(m, 1))

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(888)
        for _ in range(30):
            m = random_zero_one(rng, 4)
            fn = random_fn(rng, m, rng.randint(1, 3))
            verdict = is_positive_class(m, fn)
            assert verdict.positive == (exhaustive_minimum(m, fn, 12) >= 0)
            if not verdict.positive:
                assert orbit_sum(m, fn, verdict.witness) < 0

    def test_invariant_under_coboundaries(self):
        rng = random.Random(999)
        for _ in range(15):
            m = random_zero_one(rng, 3)
            fn = random_fn(rng, m, 1)
            base = is_positive_class(m, fn).positive
            for _ in range(3):
                eta = random_fn(rng, m, rng.randint(1, 2))
                cb = coboundary(m, eta)
                width = cb.window
                lifted = {
                    w: fn.values[w[: fn.window]] + cb.values[w]
                    for w in admissible_words(m, width)
                }
                shifted = LocallyConstantFn.over(m, width, lifted)
                assert is_positive_class(m, shifted).positive == base


    def test_table_must_match_the_block_graph(self):
        golden = ZeroOneMatrix.from_rows([[1, 1], [1, 0]])
        words = admissible_words(FULL2, 2)
        cases = [
            (FULL2, words[:-1]),  # one word short
            (FULL2, words + [(3, 3)]),  # one key too many
            (golden, words[1:]),  # as many keys, (1, 1) swapped for (2, 2)
        ]
        for m, keys in cases:
            fn = LocallyConstantFn(2, {w: 0 for w in keys})
            with pytest.raises(DomainError, match="^function table does not match the admissible words of the matrix$"):
                is_positive_class(m, fn)

    def test_a_table_of_the_wrong_size_builds_no_block_graph(self, monkeypatch):
        def unbuilt(a, k):
            raise AssertionError(f"built the {k}-block graph")

        monkeypatch.setattr(cohomology, "block_graph", unbuilt)
        with pytest.raises(DomainError, match="^function table does not match the admissible words of the matrix$"):
            is_positive_class(FULL2, LocallyConstantFn(40, {}))


def random_block_graphs(seed: int, count: int):
    """Seeded k-block graphs of random matrices, k = 1..3, with weights that are negative on about a third of the nodes."""
    rng = random.Random(seed)
    for _ in range(count):
        m = random_zero_one(rng, rng.randint(2, 6), density=rng.choice((0.3, 0.5, 0.7)))
        words, successors = block_graph(m, rng.randint(1, 3))
        yield successors, [rng.randint(-3, 6) for _ in words]


class TestNegativeCycleSearch:
    """The search that stops at the first predecessor cycle, against the one that runs every round."""

    def test_verdicts_agree_with_the_full_rounds(self):
        verdicts = Counter()
        for adj, weight in random_block_graphs(2024, 400):
            found = _negative_cycle(adj, weight) is not None
            assert found == (negative_cycle_full_rounds(adj, weight) is not None)
            verdicts[found] += 1
        # both verdicts are well represented
        assert min(verdicts[True], verdicts[False]) > 50

    def test_returned_cycles_are_negative_cycles_of_the_graph(self):
        for adj, weight in random_block_graphs(2025, 400):
            cycle = _negative_cycle(adj, weight)
            if cycle is None:
                continue
            assert len(set(cycle)) == len(cycle)
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert v in adj[u]
            assert sum(weight[u] for u in cycle) < 0

    def test_stops_in_the_round_the_cycle_forms(self):
        # a ring of 200 nodes with a loop at node 150; nodes 9 and 150 weigh
        # -1, so the only negative cycle is the loop.  The first round
        # updates node 10, whose links lead to no cycle, and then closes the
        # loop, so the search reads each edge's weight once and stops
        class CountingWeights(list):
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return super().__getitem__(i)

        adj = [[(u + 1) % 200] for u in range(200)]
        adj[150].append(150)
        weight = CountingWeights([1] * 200)
        weight[9] = weight[150] = -1
        assert _negative_cycle(adj, weight) == [150]
        assert weight.reads == 201
        assert negative_cycle_full_rounds(adj, list(weight)) == [150]

    def test_a_nonnegative_cycle_fails_the_recomputation(self, monkeypatch):
        # node 0 is the word (1,), whose fixed point sums to +1
        monkeypatch.setattr(cohomology, "_negative_cycle", lambda adj, weight: [0])
        with pytest.raises(VerificationError, match="^negative-cycle witness failed its recomputation$"):
            is_positive_class(FULL2, SIGN_FN)

    def test_witness_recomputed_on_random_classes(self, monkeypatch):
        calls = []

        def recording(a, fn, cycle):
            calls.append(tuple(cycle))
            return orbit_sum(a, fn, cycle)

        monkeypatch.setattr(cohomology, "orbit_sum", recording)
        rng = random.Random(77)
        negatives = 0
        for _ in range(60):
            m = random_zero_one(rng, rng.randint(2, 5))
            fn = random_fn(rng, m, rng.randint(1, 3))
            calls.clear()
            result = is_positive_class(m, fn)
            assert calls == ([] if result.positive else [result.witness])
            negatives += not result.positive
        assert negatives > 10
