import math
import random
import time
from itertools import chain, product

import pytest

import markovshift.groups
import markovshift.intmat
import markovshift.realization
from markovshift import (
    FgAbelianGroup,
    GroupElement,
    NonNegMatrix,
    PointedGroup,
    PreconditionError,
    ShapeError,
    VerificationError,
    ZeroOneMatrix,
    base_matrix,
    choose_shape,
    decide_coe,
    determinant,
    from_presentation,
    invariant_triple,
    is_irreducible,
    point_vector,
    pointed_is_isomorphic,
    realize,
    relation_matrix,
    tail_extension,
    validate,
)
from markovshift.intmat import eliminate_unit_pivots
from markovshift.realization import cyclic_base, cyclic_tails
from markovshift.shifts import column_amalgamation, edge_shift, out_split

from _support import all_shapes_up_to, count_calls, cyclic_tails_by_walk, elements, identity_minus

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
FULL3 = ZeroOneMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])


class TestChooseShape:
    def test_trivial_negative(self):
        assert choose_shape(FgAbelianGroup(0), -1) == (0, 1, 1)

    def test_z3_positive(self):
        assert choose_shape(FgAbelianGroup(0, (3,)), 1) == (0, 3)

    def test_infinite(self):
        assert choose_shape(FgAbelianGroup(1), 0) == (0, 0)

    def test_splits_composite_factors(self):
        d = choose_shape(FgAbelianGroup(0, (40,)), 1)
        assert d[0] == 0
        assert sorted(d[1:]) in ([1, 5, 8], [5, 8])
        assert math.prod(x for x in d[1:] if x) % 40 == 0

    def test_rejects_inconsistent_pairs(self):
        with pytest.raises(PreconditionError):
            choose_shape(FgAbelianGroup(1), 1)
        with pytest.raises(PreconditionError):
            choose_shape(FgAbelianGroup(0, (2,)), 0)
        with pytest.raises(PreconditionError):
            choose_shape(FgAbelianGroup(0), 2)

    def test_non_integer_sign_rejected(self):
        # True == 1 and 1.0 == 1, so a range check alone realized both as +1
        g = FgAbelianGroup(0, (3,))
        for bad in (True, 1.0, 0.0):
            with pytest.raises(ShapeError, match=f"sign {bad!r} is not an integer"):
                choose_shape(g, bad)
            with pytest.raises(ShapeError, match=f"sign {bad!r} is not an integer"):
                realize(g, g.zero(), bad)

    def test_sign_and_group_always_realized(self):
        shapes = [
            (FgAbelianGroup(0), -1),
            (FgAbelianGroup(0), 1),
            (FgAbelianGroup(0, (2,)), -1),
            (FgAbelianGroup(0, (6,)), 1),
            (FgAbelianGroup(0, (2, 4)), -1),
            (FgAbelianGroup(1, (3,)), 0),
            (FgAbelianGroup(2), 0),
        ]
        for group, sign in shapes:
            d = choose_shape(group, sign)
            a = base_matrix(d)
            det = determinant(identity_minus(a))
            assert (det > 0) - (det < 0) == sign
            presented, _, _ = from_presentation(relation_matrix(a), (1,) * a.size)
            assert presented == group


class TestBaseMatrix:
    def test_d_zero_one(self):
        a = base_matrix((0, 1))
        assert a.entries == ((2, 1), (1, 3))
        assert determinant(identity_minus(a)) == 1

    def test_d_zero_three(self):
        a = base_matrix((0, 3))
        assert a.entries == ((2, 1), (1, 5))
        assert determinant(identity_minus(a)) == 3
        group, _, _ = from_presentation(relation_matrix(a), (1, 1))
        assert group == FgAbelianGroup(0, (3,))

    def test_d_zero_zero(self):
        a = base_matrix((0, 0))
        assert a.entries == ((2, 1), (1, 2))
        assert determinant(identity_minus(a)) == 0
        group, _, _ = from_presentation(relation_matrix(a), (1, 1))
        assert group == FgAbelianGroup(1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PreconditionError):
            base_matrix((1, 2))
        with pytest.raises(PreconditionError):
            base_matrix((0,))

    def test_rejects_non_integer_parameters(self):
        # truncated, (0, 2.7) would build the Z/2 base and (0, True) the trivial one
        for d, bad in (((0, 2.7), "2.7"), ((0, True), "True"), ((0.0, 2), "0.0")):
            with pytest.raises(ShapeError, match=f"diagonal parameter {bad} is not an integer"):
                base_matrix(d)

    def test_determinant_formula_random(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(2, 6)
            d = (0,) + tuple(rng.randint(0, 9) for _ in range(n - 1))
            a = base_matrix(d)
            assert determinant(identity_minus(a)) == (-1) ** n * math.prod(d[1:])


def placed_in_orbit(group, point, d, c) -> bool:
    """True when c's class in BF(base_matrix(d)^t) is in the orbit of the point."""
    placed_group, placed, _ = from_presentation(relation_matrix(base_matrix(d)), c)
    return pointed_is_isomorphic(PointedGroup(placed_group, placed), PointedGroup(group, point))


def check_point_vector(group, point, sign):
    d = choose_shape(group, sign)
    c = point_vector(group, point, d)
    assert all(x >= 0 for x in c)
    assert len(c) == len(d)
    assert placed_in_orbit(group, point, d, c), (group, point, sign, c)


class TestPointVector:
    def test_zero_element(self):
        group = FgAbelianGroup(0, (3,))
        assert point_vector(group, group.zero(), (0, 3)) == (0, 0)

    def test_generator_of_z3(self):
        group = FgAbelianGroup(0, (3,))
        u = group.element(torsion=(1,))
        c = point_vector(group, u, (0, 3))
        assert c == (0, 1)
        assert placed_in_orbit(group, u, (0, 3), c)

    def test_all_ones_class_vanishes_on_bases(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            d = (0,) + tuple(rng.randint(0, 6) for _ in range(n - 1))
            a = base_matrix(d)
            group, point, _ = from_presentation(relation_matrix(a), (1,) * n)
            assert point == group.zero()

    def test_every_element_gets_nonneg_representative(self):
        for factors in [(2, 4), (3, 9), (2, 12)]:
            group = FgAbelianGroup(0, factors)
            for u in elements(group):
                for sign in (-1, 1):
                    check_point_vector(group, u, sign)

    def test_free_parts_of_every_content(self):
        rng = random.Random(15)
        for rank, factors in [(1, (6,)), (2, (4,))]:
            group = FgAbelianGroup(rank, factors)
            frees = list(product(range(-3, 4), repeat=rank))
            # contents 0, 1 and 2 for certain, the others as sampled
            for free in [(0,) * rank, (1,) * rank, (2,) * rank] + rng.sample(frees, min(len(frees), 20)):
                for t in range(factors[0]):
                    check_point_vector(group, group.element(free, (t,)), 0)

    def test_rejects_element_of_another_group_shape(self):
        with pytest.raises(ShapeError):
            point_vector(FgAbelianGroup(0, (3,)), FgAbelianGroup(0, (2, 4)).element(torsion=(1, 1)), (0, 3))


class TestTailExtension:
    def test_zero_tails_is_identity(self):
        a = base_matrix((0, 3))
        assert tail_extension(a, (0, 0)).entries == a.entries

    def test_single_tail_explicit(self):
        a = base_matrix((0, 3))
        b = tail_extension(a, (1, 0))
        # states (1,0), (1,1), (2,0); the tail state carries row 1 of A
        assert b.entries == (
            (0, 1, 0),
            (2, 0, 1),
            (1, 0, 5),
        )
        # several tails on a base whose rows all differ: a misplaced row or tail shows
        a = NonNegMatrix(((2, 0, 1), (1, 1, 0), (0, 3, 1)))
        # states (1,0), (1,1), (1,2), (2,0), (3,0), (3,1); the heads are 0, 3 and 4
        assert tail_extension(a, (2, 0, 1)).entries == (
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (2, 0, 0, 0, 1, 0),
            (1, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 3, 1, 0),
        )
        # states (1,0), (2,0), (2,1), (2,2), (3,0); the heads are 0, 1 and 4
        assert tail_extension(a, (0, 2, 0)).entries == (
            (2, 0, 0, 0, 1),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (1, 1, 0, 0, 0),
            (0, 3, 0, 0, 1),
        )

    def test_rejects_non_integer_tail_lengths(self):
        a = base_matrix((0, 3))
        for c, bad in (((1.5, 0), "1.5"), ((0, True), "True")):
            with pytest.raises(ShapeError, match=f"tail length {bad} is not an integer"):
                tail_extension(a, c)

    def test_size_counts(self):
        a = base_matrix((0, 2, 2))
        for c in [(0, 0, 0), (1, 0, 2), (3, 1, 1)]:
            assert tail_extension(a, c).size == a.size + sum(c)

    def test_moves_the_point(self):
        a = base_matrix((0, 3))
        group = FgAbelianGroup(0, (3,))
        u = group.element(torsion=(1,))
        b = tail_extension(a, point_vector(group, u, (0, 3)))
        group_b, point_b, _ = from_presentation(relation_matrix(b), (1,) * b.size)
        assert pointed_is_isomorphic(PointedGroup(group, u), PointedGroup(group_b, point_b))

    def test_preserves_determinant(self):
        rng = random.Random(77)
        for _ in range(15):
            n = rng.randint(2, 4)
            d = (0,) + tuple(rng.randint(0, 5) for _ in range(n - 1))
            a = base_matrix(d)
            c = tuple(rng.randint(0, 3) for _ in range(n))
            b = tail_extension(a, c)
            assert determinant(identity_minus(a)) == determinant(identity_minus(b))


class TestRealize:
    def test_trivial_group_matches_full_two_shift(self):
        group = FgAbelianGroup(0)
        matrix, plan = realize(group, group.zero(), -1)
        assert decide_coe(matrix, FULL2).equivalent
        assert plan.invariant.det_value == -1

    def test_z2_generator_matches_full_three_shift(self):
        group = FgAbelianGroup(0, (2,))
        matrix, plan = realize(group, group.element(torsion=(1,)), -1)
        assert decide_coe(matrix, FULL3).equivalent

    def test_z3_positive_round_trip(self):
        group = FgAbelianGroup(0, (3,))
        matrix, plan = realize(group, group.zero(), 1)
        inv = invariant_triple(matrix)
        assert inv.group == group and inv.sign == 1
        # the cyclic base [[3, 1], [1, 3]] with tails (1, 0) ties at 7 states,
        # and a tie keeps the diagonal plan
        assert plan.base.entries == ((2, 1), (1, 5))
        assert plan.d_list == (0, 3) and matrix.size == 7

    def test_outputs_always_classifiable(self):
        cases = [
            (FgAbelianGroup(0, (4,)), (1,), -1),
            (FgAbelianGroup(0, (2, 2)), (1, 0), 1),
            (FgAbelianGroup(1, (2,)), (1,), 0),
            (FgAbelianGroup(2), (), 0),
        ]
        for group, torsion_or_free, sign in cases:
            if group.free_rank and not group.torsion_factors:
                point = group.element(free=(1,) * group.free_rank)
            elif group.free_rank:
                point = group.element(free=(2,) * group.free_rank, torsion=torsion_or_free)
            else:
                point = group.element(torsion=torsion_or_free)
            matrix, plan = realize(group, point, sign)
            assert validate(matrix).classifiable
            assert is_irreducible(matrix)
            inv = plan.invariant
            assert inv.group == group and inv.sign == sign
            assert pointed_is_isomorphic(inv.pointed, PointedGroup(group, point))

    def test_rejects_inadmissible_triples(self):
        with pytest.raises(PreconditionError):
            realize(FgAbelianGroup(1), FgAbelianGroup(1).zero(), 1)

    def test_rejects_non_integer_point(self):
        with pytest.raises(ShapeError, match="free coordinate 1.5"):
            realize(FgAbelianGroup(1, (3,)), GroupElement((1.5,), (1,)), 0)

    def test_round_trip_family(self):
        rng = random.Random(2024)
        shapes = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (9,)]
        for factors in shapes:
            group = FgAbelianGroup(0, factors)
            members = elements(group)
            sample = members if len(members) <= 4 else rng.sample(members, 4)
            for point in sample:
                for sign in (-1, 1):
                    matrix, plan = realize(group, point, sign)
                    inv = plan.invariant
                    assert inv.group == group
                    assert inv.sign == sign
                    assert pointed_is_isomorphic(inv.pointed, PointedGroup(group, point))

    def test_verified_once_on_the_returned_matrix(self, monkeypatch):
        snf = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        bareiss = count_calls(monkeypatch, markovshift.intmat, "determinant")
        # both plans place the point in closed form, so the one Smith form is
        # that of the block the unit pivots leave of the returned matrix's
        # column amalgamation, which also gives the determinant; Z/12 takes
        # the cyclic base, and the trivial group leaves no block
        triples = [
            (FgAbelianGroup(0, (2, 4)), (), (1, 2), 1),
            (FgAbelianGroup(1, (2,)), (2,), (1,), 0),
            (FgAbelianGroup(2, (2, 12, 360)), (3, -6), (1, 5, 77), 0),
            (FgAbelianGroup(0, (12,)), (), (5,), -1),
            (FgAbelianGroup(0), (), (), 1),
        ]
        for group, free, torsion, sign in triples:
            snf.clear()
            matrix, plan = realize(group, group.element(free, torsion), sign)
            merged = column_amalgamation(matrix)
            rest, _, _ = eliminate_unit_pivots(relation_matrix(merged), (1,) * merged.size)
            if group == FgAbelianGroup(0):
                assert snf == [] and rest is None
                continue
            assert snf == [rest]
            # the block presents the group, so it has a row per generator
            rank = group.free_rank + len(group.torsion_factors)
            assert rank <= rest.rows < merged.size <= plan.extended.size
        assert bareiss == []

    def test_no_transform_matrix_is_built(self, monkeypatch):
        builds = count_calls(monkeypatch, markovshift.intmat, "_transform_matrix")
        group = FgAbelianGroup(0, (2, 4))
        realize(group, group.element(torsion=(1, 2)), 1)
        assert builds == []

    def test_faulty_stage_is_caught_at_the_boundary(self, monkeypatch):
        monkeypatch.setattr(
            markovshift.realization, "point_vector", lambda group, u, d: (0,) * len(d)
        )
        group = FgAbelianGroup(0, (4,))
        with pytest.raises(VerificationError):
            realize(group, group.element(torsion=(1,)), 1)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 1], [0, 1]], "matrix is not classifiable: the transition graph is not strongly connected"),
            ([[0, 1], [1, 0]], "matrix is not classifiable: permutation matrix: the shift space is finite"),
        ],
        ids=["reducible", "permutation"],
    )
    def test_unclassifiable_result_fails_verification(self, monkeypatch, rows, message):
        monkeypatch.setattr(markovshift.realization, "out_split", lambda a: ZeroOneMatrix.from_rows(rows))
        group = FgAbelianGroup(0, (4,))
        with pytest.raises(VerificationError, match=f"realized matrix failed validation: {message}"):
            realize(group, group.element(torsion=(1,)), 1)


def cyclic_group(m):
    return FgAbelianGroup(0, (m,) if m > 1 else ())


def cyclic_point(group, u):
    return group.element((), (u,) if group.torsion_factors else ())


def tail_box(base, sign):
    """Bounds (k1, k2) with c1 < k1, c2 < k2 of the box that reaches every residue."""
    (a, b), (c, d) = base.entries
    return (c, b) if sign == -1 else (a - 1, d - 1)


def split_states(base):
    """States of the out-splitting of a base with no tails: its row maxima."""
    return sum(map(max, base.entries))


def diagonal_plan(group, point, sign):
    d = choose_shape(group, sign)
    return tail_extension(base_matrix(d), point_vector(group, point, d))


def diagonal_states(group, point, sign):
    return out_split(diagonal_plan(group, point, sign)).size


class TestCyclicBase:
    def test_presents_z_m_with_the_signed_determinant(self):
        for m in range(1, 301):
            for sign in (-1, 1):
                base, weights = cyclic_base(m, sign)
                inv = invariant_triple(base)
                assert inv.group == cyclic_group(m), (m, sign)
                assert inv.det_value == sign * m
                assert base.size == 2 and max(map(max, base.entries)) <= math.isqrt(m) + 2

    def test_class_map(self):
        # the weight-1 state is a generator g, and v has the class w.v times g
        rng = random.Random(31)
        for m in range(2, 121):
            for sign in (-1, 1):
                base, weights = cyclic_base(m, sign)
                relation = relation_matrix(base)
                unit = (0, 1) if weights[1] == 1 else (1, 0)
                (g,) = from_presentation(relation, unit)[1].torsion_coords
                for _ in range(5):
                    v = (rng.randint(-50, 50), rng.randint(-50, 50))
                    w = weights[0] * v[0] + weights[1] * v[1]
                    assert from_presentation(relation, v)[1].torsion_coords == ((w * g) % m,)

    def test_tails_are_minimal(self):
        # brute force over every c no larger in sum than the box's far corner,
        # which holds the least c of the box
        for m in range(1, 151):
            for sign in (-1, 1):
                base, (w1, w2) = cyclic_base(m, sign)
                k1, k2 = tail_box(base, sign)
                box = {(w1 * (1 + c1) + w2 * (1 + c2)) % m for c1 in range(k1) for c2 in range(k2)}
                assert len(box) == m, (m, sign)
                candidates = [
                    (c1 + c2, c1, c2)
                    for c1 in range(k1 + k2 - 1)
                    for c2 in range(k1 + k2 - 1 - c1)
                ]
                for g in (d for d in range(1, m + 1) if m % d == 0):
                    c = cyclic_tails(m, (w1, w2), g % m, k1 + k2 - 1)
                    best = min(x for x in candidates if math.gcd(w1 * (1 + x[1]) + w2 * (1 + x[2]), m) == g)
                    assert (sum(c), *c) == best, (m, sign, g)

    def test_tails_match_the_walk(self):
        # the result depends on u only through gcd(u, m), so the divisors cover every point
        for m in range(1, 301):
            for sign in (-1, 1):
                _, weights = cyclic_base(m, sign)
                for u in (d for d in range(1, m + 1) if m % d == 0):
                    for bound in (0, 3, 10, 10**6):
                        want = cyclic_tails_by_walk(m, weights, u % m, bound)
                        assert cyclic_tails(m, weights, u % m, bound) == want, (m, sign, u, bound)

    def test_tails_of_the_point_zero_of_a_large_prime(self):
        # the walk tests about m pairs before it reaches these tails
        m = 1_000_003
        for sign, want in ((-1, (0, 1000)), (1, (1000, 0))):
            _, weights = cyclic_base(m, sign)
            assert cyclic_tails_by_walk(m, weights, 0, 10**12) == want
            assert cyclic_tails(m, weights, 0, 10**12) == want
        m = 10**9 + 7
        for sign, want in ((-1, (0, 31622)), (1, (31622, 0))):
            start = time.perf_counter()
            assert cyclic_tails(m, cyclic_base(m, sign)[1], 0, 10**12) == want
            assert time.perf_counter() - start < 2

    def test_tails_search_only_the_given_sums(self):
        base, weights = cyclic_base(109, -1)
        c = cyclic_tails(109, weights, 0, 30)
        assert c is not None
        assert cyclic_tails(109, weights, 0, sum(c)) is None
        assert cyclic_tails(109, weights, 0, sum(c) + 1) == c
        assert cyclic_tails(109, weights, 0, -5) is None

    def test_search_stops_at_the_diagonal_plan(self, monkeypatch):
        # 223092870 is the product of the first nine primes: its diagonal
        # plan has a few hundred states, while finding the tails for the
        # point 0 takes about sqrt(m) = 15,000 sums of the cyclic box
        searched = []
        search = markovshift.realization.cyclic_tails

        def recording_search(m, weights, u, bound):
            searched.append(range(bound))
            return search(m, weights, u, bound)

        monkeypatch.setattr(markovshift.realization, "cyclic_tails", recording_search)
        for m in (30030, 1009, 211, 12, 223092870, 6469693230):
            group = cyclic_group(m)
            for sign in (-1, 1):
                cyclic_states = split_states(cyclic_base(m, sign)[0])
                for u in (0, 1, m - 1):
                    point = cyclic_point(group, u)
                    searched.clear()
                    matrix, plan = realize(group, point, sign)
                    diagonal = diagonal_states(group, point, sign)
                    assert matrix.size <= diagonal
                    # every sum the search may take would end below the diagonal plan
                    assert all(cyclic_states + k < diagonal for k in chain.from_iterable(searched))
                    if m > 10**8:
                        assert plan.d_list == choose_shape(group, sign)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_every_point_round_trips(self, sign):
        for m in range(1, 61):
            group = cyclic_group(m)
            for u in range(m):
                point = cyclic_point(group, u)
                matrix, plan = realize(group, point, sign)
                inv = invariant_triple(matrix)
                assert inv.group == group and inv.sign == sign
                assert pointed_is_isomorphic(inv.pointed, PointedGroup(group, point)), (m, u, sign)
                # one state per copy: the row maxima of the base, and one per tail state
                assert matrix.size == split_states(plan.base) + sum(plan.c_vector)

    def test_never_more_states_than_the_diagonal_plan(self):
        rng = random.Random(1409)
        for _ in range(300):
            m = rng.randint(1, 300)
            group = cyclic_group(m)
            point = cyclic_point(group, rng.randrange(m))
            sign = rng.choice((-1, 1))
            matrix, plan = realize(group, point, sign)
            diagonal = diagonal_states(group, point, sign)
            assert matrix.size <= diagonal
            # the diagonal plan is kept exactly when the cyclic one is not smaller
            assert (plan.d_list == ()) == (matrix.size < diagonal)

    def test_sizes(self):
        for m, u, sign, states, diagonal in [
            (109, 108, -1, 21, 117),
            (211, 1, 1, 32, 216),
            (1009, 1008, -1, 64, 1017),
        ]:
            group = cyclic_group(m)
            matrix, plan = realize(group, cyclic_point(group, u), sign)
            assert matrix.size == states and plan.d_list == ()
            assert diagonal_states(group, cyclic_point(group, u), sign) == diagonal

    def test_other_groups_keep_the_diagonal_plan(self):
        # 8,634 states in all when the tails came from a Smith form of the
        # base; the closed-form tails give 8,155, and their out-splitting
        # in place of the edge shift 4,841
        rng = random.Random(14)
        out = []
        for factors in [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6), (4, 4), (2, 8), (3, 9)]:
            group = FgAbelianGroup(0, factors)
            for t in product(*(range(m) for m in factors)):
                for sign in (-1, 1):
                    matrix, plan = realize(group, group.element((), t), sign)
                    assert plan.d_list == choose_shape(group, sign)
                    out.append(matrix.size)
        for rank in (1, 2):
            for factors in [(), (2,), (4,), (5,), (2, 2), (3, 6)]:
                group = FgAbelianGroup(rank, factors)
                for t in product(*(range(m) for m in factors)):
                    free = tuple(rng.randint(-3, 3) for _ in range(rank))
                    matrix, plan = realize(group, group.element(free, t), 0)
                    assert plan.d_list == choose_shape(group, 0)
                    out.append(matrix.size)
        assert len(out) == 268
        assert sum(out) <= 4841


def edge_shift_plan_states(group, point, sign):
    """Size of the realization when the plans were counted and recoded by the edge shift."""
    diagonal = edge_shift(diagonal_plan(group, point, sign)).size
    if len(group.torsion_factors) > 1:
        return diagonal
    m = group.order()
    base, weights = cyclic_base(m, sign)
    units = sum(map(sum, base.entries))
    tails = cyclic_tails(m, weights, sum(point.torsion_coords), diagonal - units)
    return diagonal if tails is None else units + sum(tails)


def test_no_triple_grows_under_the_split():
    # every finite group of order <= 20 at every point and both signs: the
    # realization is the out-splitting of the chosen plan, and never larger
    # than the edge shift of the plan the edge-shift count chose
    shapes = all_shapes_up_to(20)
    assert len(shapes) == 31
    for factors in shapes:
        group = FgAbelianGroup(0, factors)
        for point in elements(group):
            for sign in (-1, 1):
                matrix, plan = realize(group, point, sign)
                assert matrix.size == split_states(plan.base) + sum(plan.c_vector)
                assert matrix.size <= edge_shift_plan_states(group, point, sign), (group, point, sign)
