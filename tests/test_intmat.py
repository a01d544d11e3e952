import hashlib
import random
import time

import pytest

from markovshift import (
    IntMatrix,
    ShapeError,
    base_matrix,
    determinant,
    edge_shift,
    relation_matrix,
    smith_normal_form,
    tail_extension,
)
from markovshift.intmat import eliminate_unit_pivots

from _support import (
    cofactor_determinant,
    identity,
    int_matrix,
    kernel_basis,
    matrix_product_by_loops,
    mul_vector,
    random_int_matrix,
    random_zero_one,
    solve_linear,
)

FULL3_RELATION = [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]

# regression input: the second and fourth rows are zero in the first pivot
# column, and an elimination that skipped such rows once gave 25, not 34
DEFERRED_ROWS = [[1, 0, 0, 0, 0], [0, 0, -3, 0, -1], [3, 0, -1, 3, 0], [0, 2, 0, 1, 0], [-3, 2, 3, 0, -1]]

NON_UNITS = (-6, -4, -3, -2, 2, 3, 4, 6)

# sha256 of repr((D.entries, row_ops, col_ops)), pinned from the elimination
# that updated every row and column on every operation
GOLDEN_SNF = {
    "full_three_shift": "03dedea1cb3a16277ebeec6db8e4c42d1748ac94f1eb3952aab6d03736f78f8d",
    "non_unit_12x9": "5c20e0deaea8cf9bc5e48cd892ccb890ec62a87e23c7206f40dbf3b3bb3baf7a",
    "relation_40": "826b3ab05ad637db957196e9473696dcacdf3bcce589a9d9fdf1e8b19e0ec81c",
}


def sparse_int_matrix(rng: random.Random, rows: int, cols: int, density: float, values) -> IntMatrix:
    return int_matrix(
        [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


def golden_inputs() -> dict[str, IntMatrix]:
    """Three fixed inputs.  The 12 x 9 one (diagonal 1, 1, 1, 1, 1, 2, 2, 4, 72)
    swaps columns while rows below the pivot are live in the new column, and
    folds in rows whose entries a non-unit pivot does not divide."""
    return {
        "full_three_shift": int_matrix(FULL3_RELATION),
        "non_unit_12x9": sparse_int_matrix(random.Random(1), 12, 9, 0.3, NON_UNITS),
        "relation_40": relation_matrix(random_zero_one(random.Random(40), 40, density=0.3)),
    }


def snf_invariants_hold(m: IntMatrix):
    snf = smith_normal_form(m)
    assert (snf.U @ m @ snf.V) == snf.D
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert snf.D.entries[i][j] == 0
    assert (snf.U @ snf.U_inv) == identity(m.rows)
    assert (snf.V @ snf.V_inv) == identity(m.cols)
    v = tuple(range(1, m.rows + 1))
    assert snf.u_times(v) == mul_vector(snf.U, v)
    return snf


class TestProduct:
    def test_matches_the_triple_loop(self):
        rng = random.Random(515)
        for _ in range(60):
            r, k, c = (rng.randint(1, 7) for _ in range(3))
            bits = rng.choice((4, 100, 160))
            x, y = (
                int_matrix([[rng.randint(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(rows)])
                for rows, cols in ((r, k), (k, c))
            )
            assert x @ y == matrix_product_by_loops(x, y)

    def test_shape_mismatch_message(self):
        x = int_matrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ShapeError, match=r"^cannot multiply 2x3 by 2x3$"):
            x @ x
        with pytest.raises(ShapeError, match=r"^cannot multiply 3x2 by 3x2$"):
            x.transpose() @ x.transpose()


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(identity(2))
        assert snf.D == identity(2)
        assert snf.U == identity(2)
        assert snf.V == identity(2)

    def test_full_two_shift_relation(self):
        snf = snf_invariants_hold(int_matrix([[0, -1], [-1, 0]]))
        assert snf.diagonal == (1, 1)

    def test_full_three_shift_relation(self):
        snf = snf_invariants_hold(int_matrix(FULL3_RELATION))
        assert snf.diagonal == (1, 1, 2)

    def test_random_square_and_rectangular(self):
        rng = random.Random(20240811)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            snf_invariants_hold(random_int_matrix(rng, rows, cols))

    def test_sparse_with_non_unit_pivots(self):
        rng = random.Random(613)
        non_unit_diagonals = 0
        for _ in range(60):
            rows, cols = rng.randint(6, 12), rng.randint(6, 12)
            m = sparse_int_matrix(rng, rows, cols, rng.uniform(0.15, 0.5), NON_UNITS)
            snf = snf_invariants_hold(m)
            non_unit_diagonals += any(d > 1 for d in snf.diagonal)
        assert non_unit_diagonals >= 30

    def test_realized_edge_shift_relation(self):
        # the diagonal-plan realization of Z/109 at the point -1, sign -1
        final = edge_shift(tail_extension(base_matrix((0, 109, 1)), (0, 1, 0)))
        assert final.size == 123
        snf = snf_invariants_hold(relation_matrix(final))
        assert snf.diagonal == (1,) * 122 + (109,)

    def test_realized_edge_shift_relation_at_1023_states_skips_zero_updates(self):
        # the same plan for Z/1009: the updates that skip zeros take under a
        # second, and updates of whole rows and columns more than 20 times that
        final = edge_shift(tail_extension(base_matrix((0, 1009, 1)), (0, 1, 0)))
        assert final.size == 1023
        m = relation_matrix(final)
        started = time.perf_counter()
        snf = smith_normal_form(m)
        assert time.perf_counter() - started < 6.0
        assert snf.diagonal == (1,) * 1022 + (1009,)

    def test_operation_log_is_pinned(self):
        for name, m in golden_inputs().items():
            snf = smith_normal_form(m)
            record = repr((snf.D.entries, snf.row_ops, snf.col_ops)).encode()
            assert hashlib.sha256(record).hexdigest() == GOLDEN_SNF[name], name

    def test_determinant_matches_diagonal_product(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n)
            snf = smith_normal_form(m)
            prod = 1
            for d in snf.diagonal:
                prod *= d
            assert abs(determinant(m)) == prod


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(3)) == 1

    def test_two_by_two(self):
        assert determinant(int_matrix([[0, -1], [-1, 0]])) == -1

    def test_full_three_shift(self):
        m = int_matrix(FULL3_RELATION)
        assert determinant(m) == -2
        assert cofactor_determinant(m) == -2

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            determinant(int_matrix([[1, 2, 3], [4, 5, 6]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, n)
            assert determinant(m) == cofactor_determinant(m)

    def test_sparse_against_cofactor_oracle(self):
        rng = random.Random(2718)
        values = range(-3, 4)
        for _ in range(300):
            n = rng.randint(5, 8)
            m = sparse_int_matrix(rng, n, n, rng.uniform(0.2, 0.6), values)
            assert determinant(m) == cofactor_determinant(m)

    def test_deferred_row_is_brought_up_to_date_before_its_head_is_read(self):
        m = int_matrix(DEFERRED_ROWS)
        assert cofactor_determinant(m) == 34
        assert determinant(m) == 34

    def test_large_entries_stay_exact(self):
        big = 10**30
        m = int_matrix([[big, 1], [1, big]])
        assert determinant(m) == big * big - 1


class TestSmithFormDeterminant:
    def test_against_cofactor_and_bareiss(self):
        rng = random.Random(1307)
        signs = set()
        for _ in range(320):
            n = rng.randint(1, 8)
            m = sparse_int_matrix(rng, n, n, rng.uniform(0.25, 0.9), range(-9, 10))
            det = smith_normal_form(m).determinant
            assert det == cofactor_determinant(m) == determinant(m)
            signs.add((det > 0) - (det < 0))
        assert signs == {-1, 0, 1}

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="determinant needs a square matrix"):
            smith_normal_form(int_matrix([[1, 2, 3], [4, 5, 6]])).determinant


class TestEliminateUnitPivots:
    def test_block_sign_and_carried_vector(self):
        rng = random.Random(1993)
        emptied = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            m = sparse_int_matrix(rng, n, n, rng.uniform(0.25, 0.9), range(-3, 4))
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            rest, tail, sign = eliminate_unit_pivots(m, mul_vector(m, x))
            assert sign in (-1, 1)
            if rest is None:
                emptied += 1
                assert tail == () and cofactor_determinant(m) == sign
                continue
            assert rest.is_square and len(tail) == rest.rows <= n
            assert all(abs(e) != 1 for row in rest.entries for e in row)
            assert cofactor_determinant(m) == sign * cofactor_determinant(rest)
            # the same quotient, and a vector in the column span stays in it
            assert [d for d in smith_normal_form(m).diagonal if d != 1] == [
                d for d in smith_normal_form(rest).diagonal if d != 1
            ]
            assert solve_linear(rest, tail) is not None
        assert emptied > 0

    def test_rejects_non_square_and_misfit_vector(self):
        with pytest.raises(ShapeError, match="unit pivots need a square matrix"):
            eliminate_unit_pivots(int_matrix([[1, 2, 3], [4, 5, 6]]), (1, 1))
        with pytest.raises(ShapeError, match="vector of length 3 does not fit 2 rows"):
            eliminate_unit_pivots(identity(2), (1, 1, 1))


class TestKernelBasis:
    def test_identity_kernel_trivial(self):
        assert kernel_basis(identity(2)) == []

    def test_rank_one_kernel(self):
        basis = kernel_basis(int_matrix([[1, -1], [-1, 1]]))
        assert len(basis) == 1
        (v,) = basis
        assert v[0] == v[1] != 0

    def test_unimodular_kernel_trivial(self):
        assert kernel_basis(int_matrix([[0, -1], [-1, 0]])) == []

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_int_matrix(rng, rows, cols, bound=4)
            basis = kernel_basis(m)
            snf = smith_normal_form(m)
            assert len(basis) == cols - sum(1 for d in snf.diagonal if d != 0)
            for v in basis:
                assert mul_vector(m, v) == (0,) * rows


class TestSolveLinear:
    def test_identity(self):
        assert solve_linear(identity(2), (3, 5)) == (3, 5)

    def test_parity_obstruction(self):
        assert solve_linear(int_matrix([[2, 0], [0, 2]]), (1, 0)) is None

    def test_swap_matrix(self):
        m = int_matrix([[0, -1], [-1, 0]])
        x = solve_linear(m, (1, 1))
        assert x is not None
        assert mul_vector(m, x) == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_linear(identity(2), (1, 2, 3))

    def test_solutions_verified_and_refusals_confirmed(self):
        rng = random.Random(13)
        box = range(-4, 5)
        for _ in range(30):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            m = random_int_matrix(rng, rows, cols, bound=3)
            b = tuple(rng.randint(-3, 3) for _ in range(rows))
            x = solve_linear(m, b)
            if x is not None:
                assert mul_vector(m, x) == b
            else:
                # brute-force a small box; a solution there would be a bug
                from itertools import product

                for candidate in product(box, repeat=cols):
                    assert mul_vector(m, candidate) != b
