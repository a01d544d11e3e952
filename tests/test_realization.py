import math
import random

import pytest

import markovshift.groups
import markovshift.intmat
import markovshift.realization
from markovshift import (
    FgAbelianGroup,
    GroupElement,
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
    identity_minus,
    invariant_triple,
    is_irreducible,
    point_vector,
    pointed_is_isomorphic,
    realize,
    tail_extension,
    validate,
)

from _support import count_calls

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
            assert from_presentation(identity_minus(a, transpose=True)).group == group


class TestBaseMatrix:
    def test_d_zero_one(self):
        a = base_matrix((0, 1))
        assert a.entries == ((2, 1), (1, 3))
        assert determinant(identity_minus(a)) == 1

    def test_d_zero_three(self):
        a = base_matrix((0, 3))
        assert a.entries == ((2, 1), (1, 5))
        assert determinant(identity_minus(a)) == 3
        assert from_presentation(identity_minus(a, transpose=True)).group == FgAbelianGroup(0, (3,))

    def test_d_zero_zero(self):
        a = base_matrix((0, 0))
        assert a.entries == ((2, 1), (1, 2))
        assert determinant(identity_minus(a)) == 0
        assert from_presentation(identity_minus(a, transpose=True)).group == FgAbelianGroup(1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PreconditionError):
            base_matrix((1, 2))
        with pytest.raises(PreconditionError):
            base_matrix((0,))

    def test_determinant_formula_random(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(2, 6)
            d = (0,) + tuple(rng.randint(0, 9) for _ in range(n - 1))
            a = base_matrix(d)
            assert determinant(identity_minus(a)) == (-1) ** n * math.prod(d[1:])


class TestPointVector:
    def test_zero_element(self):
        a = base_matrix((0, 3))
        pres = from_presentation(identity_minus(a, transpose=True))
        c = point_vector(a, pres.group.zero())
        assert c == (0, 0)

    def test_generator_of_z3(self):
        a = base_matrix((0, 3))
        pres = from_presentation(identity_minus(a, transpose=True))
        u = pres.group.element(torsion=(1,))
        c = point_vector(a, u)
        assert all(x >= 0 for x in c)
        assert pres.element_from_vector(c) == u

    def test_all_ones_class_vanishes_on_bases(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            d = (0,) + tuple(rng.randint(0, 6) for _ in range(n - 1))
            a = base_matrix(d)
            pres = from_presentation(identity_minus(a, transpose=True))
            assert pres.element_from_vector((1,) * n) == pres.group.zero()

    def test_every_element_gets_nonneg_representative(self):
        a = base_matrix((0, 2, 4))
        pres = from_presentation(identity_minus(a, transpose=True))
        for u in pres.group.all_elements():
            c = point_vector(a, u)
            assert all(x >= 0 for x in c)
            assert pres.element_from_vector(c) == u

    def test_rejects_non_base_matrix(self):
        with pytest.raises(PreconditionError):
            point_vector(FULL2, FgAbelianGroup(0).zero())

    def test_rejects_element_of_another_group_shape(self):
        with pytest.raises(ShapeError):
            point_vector(base_matrix((0, 3)), FgAbelianGroup(0, (2, 4)).element(torsion=(1, 1)))


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

    def test_size_counts(self):
        a = base_matrix((0, 2, 2))
        for c in [(0, 0, 0), (1, 0, 2), (3, 1, 1)]:
            assert tail_extension(a, c).size == a.size + sum(c)

    def test_moves_the_point(self):
        a = base_matrix((0, 3))
        pres = from_presentation(identity_minus(a, transpose=True))
        u = pres.group.element(torsion=(1,))
        c = point_vector(a, u)
        b = tail_extension(a, c)
        pres_b = from_presentation(identity_minus(b, transpose=True))
        u_b = pres_b.element_from_vector((1,) * b.size)
        assert pointed_is_isomorphic(PointedGroup(pres.group, u), PointedGroup(pres_b.group, u_b))

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
        assert plan.base.entries == ((2, 1), (1, 5))

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
            elements = list(group.all_elements())
            sample = elements if len(elements) <= 4 else rng.sample(elements, 4)
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
        triples = [
            (FgAbelianGroup(0, (2, 4)), (), (1, 2), 1),
            (FgAbelianGroup(1, (2,)), (2,), (1,), 0),
            (FgAbelianGroup(0, (12,)), (), (5,), -1),
        ]
        for group, free, torsion, sign in triples:
            snf.clear()
            matrix, plan = realize(group, group.element(free, torsion), sign)
            # one presentation of the base matrix, one of the returned matrix,
            # whose Smith form also gives the determinant
            assert [m.rows for m in snf] == [plan.base.size, matrix.size]
            assert bareiss == []

    def test_no_transform_matrix_is_built(self, monkeypatch):
        builds = count_calls(monkeypatch, markovshift.intmat, "_transform_matrix")
        group = FgAbelianGroup(0, (2, 4))
        realize(group, group.element(torsion=(1, 2)), 1)
        assert builds == []

    def test_faulty_stage_is_caught_at_the_boundary(self, monkeypatch):
        monkeypatch.setattr(
            markovshift.realization, "point_vector", lambda base, u: (0,) * base.size
        )
        group = FgAbelianGroup(0, (4,))
        with pytest.raises(VerificationError):
            realize(group, group.element(torsion=(1,)), 1)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 1], [0, 1]], "matrix is reducible"),
            ([[0, 1], [1, 0]], "matrix is a permutation matrix"),
        ],
    )
    def test_unclassifiable_result_fails_verification(self, monkeypatch, rows, message):
        monkeypatch.setattr(markovshift.realization, "edge_shift", lambda a: ZeroOneMatrix.from_rows(rows))
        group = FgAbelianGroup(0, (4,))
        with pytest.raises(VerificationError, match=f"realized matrix failed validation: {message}"):
            realize(group, group.element(torsion=(1,)), 1)
