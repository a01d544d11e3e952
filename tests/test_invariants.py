import random

import pytest

import markovshift.groups
import markovshift.intmat
import markovshift.shifts
from markovshift import (
    FgAbelianGroup,
    MarkovInvariant,
    NonNegMatrix,
    PointedGroup,
    PreconditionError,
    VerificationError,
    ZeroOneMatrix,
    decide_coe,
    decide_flow,
    determinant,
    edge_shift,
    from_presentation,
    full_group_abelianization,
    higher_block,
    invariant_triple,
    pointed_is_isomorphic,
    realize,
    relation_matrix,
    smith_normal_form,
    tail_extension,
    validate,
)
from markovshift.intmat import eliminate_unit_pivots
from markovshift.realization import base_matrix
from markovshift.shifts import column_amalgamation

from _support import (
    all_shapes_up_to,
    count_calls,
    elements,
    identity_minus,
    int_matrix,
    invariant_unmerged,
    kernel_basis,
    presentation_by_smith_form,
    random_nonneg,
    random_out_split,
    random_zero_one,
)

FULL2 = ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
GOLDEN = ZeroOneMatrix.from_rows([[1, 1], [1, 0]])
FULL3 = ZeroOneMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
TRIVIAL = FgAbelianGroup(0)


class TestBowenFranks:
    def test_full_two_shift_trivial(self):
        pg = invariant_triple(FULL2).pointed
        assert pg.group == TRIVIAL
        assert pg.point == pg.group.zero()

    def test_full_three_shift(self):
        pg = invariant_triple(FULL3).pointed
        assert pg.group == FgAbelianGroup(0, (2,))
        assert pg.point == pg.group.element(torsion=(1,))

    def test_golden_mean_trivial(self):
        assert invariant_triple(GOLDEN).pointed.group == TRIVIAL

    def test_transpose_flag_gives_same_group(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_zero_one(rng, rng.randint(2, 4))
            ones = (1,) * m.size
            plain, _, _ = from_presentation(identity_minus(m), ones)
            transposed, _, _ = from_presentation(relation_matrix(m), ones)
            assert transposed == plain


class TestInvariantTriple:
    def test_full_two_shift(self):
        inv = invariant_triple(FULL2)
        assert inv.group == TRIVIAL
        assert (inv.det_value, inv.sign, inv.k1_rank) == (-1, -1, 0)

    def test_golden_mean(self):
        inv = invariant_triple(GOLDEN)
        assert inv.group == TRIVIAL
        assert (inv.det_value, inv.sign, inv.k1_rank) == (-1, -1, 0)

    def test_full_three_shift(self):
        inv = invariant_triple(FULL3)
        assert inv.group == FgAbelianGroup(0, (2,))
        assert inv.point == inv.group.element(torsion=(1,))
        assert (inv.det_value, inv.sign, inv.k1_rank) == (-2, -1, 0)

    def test_sign_is_read_off_the_determinant(self):
        z2, z = FgAbelianGroup(0, (2,)), FgAbelianGroup(1)
        assert MarkovInvariant(z2, z2.element(torsion=(1,)), -2).sign == -1
        assert MarkovInvariant(z2, z2.zero(), 2).sign == 1
        assert MarkovInvariant(z, z.zero(), 0).sign == 0
        for group, det in ((z2, 0), (z, 1), (z2, 3)):
            with pytest.raises(VerificationError):
                MarkovInvariant(group, group.zero(), det)

    def test_rejects_reducible(self):
        with pytest.raises(PreconditionError):
            invariant_triple(NonNegMatrix.from_rows([[1, 1], [0, 1]]))

    def test_rejects_permutation(self):
        with pytest.raises(PreconditionError):
            invariant_triple(ZeroOneMatrix.from_rows([[0, 1], [1, 0]]))

    def test_classifiability_checked_once_on_the_merged_matrix(self, monkeypatch):
        checked = count_calls(monkeypatch, markovshift.shifts, "is_irreducible")
        final = edge_shift(tail_extension(base_matrix((0, 3)), (0, 1)))
        for m in (final, FULL2, GOLDEN):
            checked.clear()
            invariant_triple(m)
            assert checked == [column_amalgamation(m)]
        assert column_amalgamation(final).size == 3 < final.size

    def test_edge_shift_of_an_unclassifiable_matrix_is_refused(self):
        for rows, message in (
            ([[1, 1], [0, 1]], "the transition graph is not strongly connected"),
            ([[0, 1], [1, 0]], "permutation matrix: the shift space is finite, so every point is isolated"),
        ):
            with pytest.raises(PreconditionError) as raised:
                invariant_triple(edge_shift(NonNegMatrix.from_rows(rows)))
            assert str(raised.value) == f"matrix is not classifiable: {message}"

    def test_internal_consistency_on_random_matrices(self):
        rng = random.Random(61)
        for _ in range(25):
            m = random_zero_one(rng, rng.randint(2, 5))
            inv = invariant_triple(m)
            order = inv.group.order()
            if order is None:
                assert inv.det_value == 0 and inv.sign == 0 and inv.k1_rank >= 1
            else:
                assert abs(inv.det_value) == order
                assert inv.k1_rank == 0
            assert inv.k1_rank == len(kernel_basis(relation_matrix(m)))

    def test_one_smith_form_per_invariant(self, monkeypatch):
        calls = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        bareiss = count_calls(monkeypatch, markovshift.intmat, "determinant")
        rng = random.Random(63)
        matrices = [random_zero_one(rng, rng.randint(2, 5)) for _ in range(5)]
        matrices += [base_matrix((0, 0, 2)), FULL2, FULL3]
        blocks = 0
        for m in matrices:
            calls.clear()
            invariant_triple(m)
            merged = column_amalgamation(m)
            rest, _, _ = eliminate_unit_pivots(relation_matrix(merged), (1,) * merged.size)
            # the Smith form runs once, on the block the unit pivots leave, or not at all
            assert calls == ([] if rest is None else [rest])
            assert all(abs(x) != 1 for block in calls for row in block.entries for x in row)
            blocks += len(calls)
        assert 0 < blocks < len(matrices)
        assert bareiss == []

    def test_determinant_agrees_with_bareiss(self):
        rng = random.Random(65)
        signs = set()
        for _ in range(120):
            m = random_zero_one(rng, rng.randint(2, 30), density=rng.uniform(0.1, 0.6))
            inv = invariant_triple(m)
            assert inv.det_value == determinant(identity_minus(m))
            signs.add(inv.sign)
        assert signs == {-1, 0, 1}

    def test_no_transform_matrix_is_built(self, monkeypatch):
        builds = count_calls(monkeypatch, markovshift.intmat, "_transform_matrix")
        m = random_zero_one(random.Random(30), 30)
        invariant_triple(m)
        assert builds == []
        # reading a transform builds it once through the counted function
        snf = smith_normal_form(relation_matrix(m))
        assert snf.U_inv is snf.U_inv
        assert len(builds) == 1

    def test_invariant_under_state_permutation(self):
        rng = random.Random(62)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = random_zero_one(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = ZeroOneMatrix.from_rows(
                [[m.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            )
            assert decide_coe(m, permuted).equivalent
            a, b = invariant_triple(m), invariant_triple(permuted)
            assert a.group == b.group and a.det_value == b.det_value


class TestColumnAmalgamation:
    """invariant_triple merges equal columns; the oracle runs on the matrix as given."""

    @staticmethod
    def assert_matches_unmerged(m):
        merged = column_amalgamation(m)
        assert len(set(zip(*merged.entries))) == merged.size
        assert column_amalgamation(merged) is merged
        got, want = invariant_triple(m), invariant_unmerged(m)
        assert got.group == want.group
        assert got.det_value == want.det_value
        assert pointed_is_isomorphic(got.pointed, want.pointed)
        return merged

    def test_planted_duplicate_column(self):
        rng = random.Random(131)
        checked = 0
        while checked < 150:
            rows = [list(r) for r in random_nonneg(rng, rng.randint(2, 6), rng.choice((1, 3))).entries]
            i, j = rng.sample(range(len(rows)), 2)
            for row in rows:
                row[i] = row[j]
            if not validate(rows).classifiable:
                continue
            m = NonNegMatrix.from_rows(rows)
            assert self.assert_matches_unmerged(m).size < m.size
            checked += 1

    def test_edge_shifts_and_out_splits(self):
        rng = random.Random(132)
        for _ in range(40):
            m = random_nonneg(rng, rng.randint(1, 4))
            shift = edge_shift(m)
            assert self.assert_matches_unmerged(shift).size <= m.size
            split = m
            for _ in range(rng.randint(1, 3)):
                split = random_out_split(rng, split)
            assert self.assert_matches_unmerged(split).size <= m.size

    def test_higher_blocks(self):
        rng = random.Random(133)
        for _ in range(20):
            m = random_zero_one(rng, rng.randint(2, 4), density=0.6)
            for k in (2, 3):
                assert self.assert_matches_unmerged(higher_block(m, k)).size <= m.size

    def test_edge_shift_with_large_torsion(self):
        # Z + (Z/3)^6 with free content 1
        extended = tail_extension(base_matrix((0, 0, 3, 3, 3, 3, 3, 3)), (1, 0, 0, 0, 0, 0, 0, 0))
        final = edge_shift(extended)
        assert self.assert_matches_unmerged(final) == extended
        assert invariant_triple(final).group == FgAbelianGroup(1, (3,) * 6)

    def test_equal_rows_are_not_merged(self):
        # rows 1 and 2 agree, the columns differ; merging the rows instead
        # would give [[1, 1], [2, 0]], whose point is the other element of Z/2
        m = ZeroOneMatrix.from_rows([[0, 1, 1], [0, 1, 1], [1, 1, 0]])
        assert column_amalgamation(m) is m
        inv = invariant_triple(m)
        rows_merged = invariant_unmerged(NonNegMatrix.from_rows([[1, 1], [2, 0]]))
        assert inv.group == rows_merged.group == FgAbelianGroup(0, (2,))
        assert inv.det_value == rows_merged.det_value
        assert not pointed_is_isomorphic(inv.pointed, rows_merged.pointed)


class TestAgainstOneSmithForm:
    """The unit pivots and the block's Smith form against one Smith form of the whole matrix."""

    @staticmethod
    def assert_agrees(m, blocks):
        ones = (1,) * m.rows
        blocks.clear()
        group, point, det = from_presentation(m, ones)
        want_group, want_point, want_det = presentation_by_smith_form(m, ones)
        assert group == want_group
        assert det == want_det == determinant(m)
        assert pointed_is_isomorphic(PointedGroup(group, point), PointedGroup(want_group, want_point))
        assert len(blocks) <= 1
        assert all(abs(x) != 1 for block in blocks for row in block.entries for x in row)
        return group, point, det

    def test_random_matrices(self, monkeypatch):
        blocks = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        rng = random.Random(67)
        singular = 0
        for k in range(600):
            n, density = rng.randint(2, 41), rng.uniform(0.1, 0.5)
            rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            if k % 5 == 0:
                # rows i and j of id - A are both -r
                i, j = rng.sample(range(n), 2)
                r = list(rows[i])
                r[i] = r[j] = 0
                rows[i] = [int(t == i) + x for t, x in enumerate(r)]
                rows[j] = [int(t == j) + x for t, x in enumerate(r)]
            # id - A^t
            m = int_matrix([[int(s == t) - rows[t][s] for t in range(n)] for s in range(n)])
            _, _, det = self.assert_agrees(m, blocks)
            singular += det == 0
        assert singular >= 120

    def test_realized_matrices(self, monkeypatch):
        blocks = count_calls(monkeypatch, markovshift.groups, "smith_normal_form")
        for factors in all_shapes_up_to(20):
            group = FgAbelianGroup(0, factors)
            for point in elements(group):
                for sign in (-1, 1):
                    matrix, _ = realize(group, point, sign)
                    merged = column_amalgamation(matrix)
                    got_group, got_point, det = self.assert_agrees(relation_matrix(merged), blocks)
                    assert (got_group, det) == (group, sign * group.order())
                    assert pointed_is_isomorphic(PointedGroup(group, got_point), PointedGroup(group, point))


class TestDecisions:
    def test_full_two_vs_golden_mean(self):
        outcome = decide_coe(FULL2, GOLDEN)
        assert outcome.equivalent
        assert outcome.left.det_value == outcome.right.det_value == -1

    def test_reflexivity(self):
        for m in (FULL2, GOLDEN, FULL3):
            assert decide_coe(m, m).equivalent
            assert decide_flow(m, m).equivalent

    def test_full_two_vs_full_three(self):
        outcome = decide_coe(FULL2, FULL3)
        assert not outcome.equivalent
        assert "not isomorphic" in outcome.reason
        assert not decide_flow(FULL2, FULL3).equivalent

    def test_flow_spec_pair(self):
        assert decide_flow(FULL2, GOLDEN).equivalent

    def test_flow_transpose_always_equivalent(self):
        rng = random.Random(15)
        for _ in range(12):
            m = random_zero_one(rng, rng.randint(2, 4))
            mt = ZeroOneMatrix.from_rows(list(zip(*m.entries)))
            assert decide_flow(m, mt).equivalent

    def test_coe_implies_flow(self):
        rng = random.Random(16)
        matrices = [random_zero_one(rng, rng.randint(2, 4)) for _ in range(12)]
        matrices += [FULL2, GOLDEN, FULL3]
        invariants = [invariant_triple(m) for m in matrices]
        for a in invariants:
            for b in invariants:
                if decide_coe(a, b).equivalent:
                    assert decide_flow(a, b).equivalent

    def test_symmetry(self):
        rng = random.Random(18)
        matrices = [random_zero_one(rng, rng.randint(2, 4)) for _ in range(8)]
        invariants = [invariant_triple(m) for m in matrices]
        for a in invariants:
            for b in invariants:
                assert decide_coe(a, b).equivalent == decide_coe(b, a).equivalent
                assert decide_flow(a, b).equivalent == decide_flow(b, a).equivalent

    def test_certificate_contents(self):
        cert = decide_coe(FULL2, FULL3).certificate()
        assert cert["left"]["determinant"] == -1
        assert cert["right"]["group"] == "Z/2"
        assert cert["checks"]["groups_isomorphic"] is False


class TestKGroups:
    def test_full_three_shift(self):
        inv = invariant_triple(FULL3)
        pg, rank = inv.pointed, inv.k1_rank
        assert pg.group == FgAbelianGroup(0, (2,))
        assert pg.point == pg.group.element(torsion=(1,))
        assert rank == 0

    def test_full_two_shift(self):
        inv = invariant_triple(FULL2)
        pg, rank = inv.pointed, inv.k1_rank
        assert pg.group == TRIVIAL
        assert rank == 0

    def test_singular_matrix_has_kernel(self):
        m = base_matrix((0, 0))
        assert determinant(identity_minus(m)) == 0
        assert invariant_triple(m).k1_rank >= 1

    def test_k1_rank_is_kernel_rank(self):
        rng = random.Random(64)
        matrices = [random_nonneg(rng, rng.randint(2, 4)) for _ in range(10)]
        matrices += [base_matrix((0, 0)), base_matrix((0, 0, 0, 2))]
        for m in matrices:
            rank = invariant_triple(m).k1_rank
            assert rank == len(kernel_basis(relation_matrix(m)))

    def test_accepts_precomputed_invariant(self):
        inv = invariant_triple(FULL3)
        assert full_group_abelianization(inv) == full_group_abelianization(FULL3)

    def test_rejects_unclassifiable(self):
        for m in ([[1, 1], [0, 1]], [[0, 1], [1, 0]]):
            with pytest.raises(PreconditionError):
                invariant_triple(NonNegMatrix.from_rows(m))
            with pytest.raises(PreconditionError):
                full_group_abelianization(NonNegMatrix.from_rows(m))


class TestFullGroupAbelianization:
    def test_full_two_shift(self):
        assert full_group_abelianization(FULL2) == TRIVIAL

    def test_full_three_shift(self):
        assert full_group_abelianization(FULL3) == FgAbelianGroup(0, (2,))

    def test_free_bowen_franks(self):
        m = base_matrix((0, 0))
        assert full_group_abelianization(m) == FgAbelianGroup(1, (2,))

    def test_odd_torsion_contributes_nothing(self):
        m = base_matrix((0, 3))
        assert full_group_abelianization(m) == TRIVIAL


class TestNonNegInputs:
    def test_single_state_multi_edge(self):
        m = NonNegMatrix.from_rows([[2]])
        inv = invariant_triple(m)
        assert inv.group == TRIVIAL and inv.det_value == -1
        assert decide_coe(m, FULL2).equivalent

    def test_rejects_single_fixed_point(self):
        with pytest.raises(PreconditionError):
            invariant_triple(NonNegMatrix.from_rows([[1]]))

    def test_random_nonneg_triples_consistent(self):
        rng = random.Random(90)
        for _ in range(10):
            m = random_nonneg(rng, rng.randint(2, 4))
            inv = invariant_triple(m)
            assert inv.sign == (inv.det_value > 0) - (inv.det_value < 0)
