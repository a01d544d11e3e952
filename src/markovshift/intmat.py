"""Exact integer matrices: unit-pivot elimination, Smith normal form and determinants.

Everything runs on Python's arbitrary-precision integers, so no operation
here can overflow or round.  All values are immutable; functions return
fresh objects and never mutate their arguments.

On relation matrices id - A^t of 0/1 matrices almost every pivot is +-1.
``eliminate_unit_pivots`` clears those first, with row operations only and
no record, carrying one vector along; the Smith form then runs on the
block that is left, which has no entry +-1.

The Smith form skips updates that would add zero, which changes no pivot,
operation or result (see ``smith_normal_form``).  That does not pay on the
small, nearly dense blocks the unit-pivot pass leaves: on the 600 Smith
forms the ``classify`` and ``realize`` benchmark workloads run at seed 7,
whole-row updates gave the same D and operation record in the same time,
about 0.09 s for all 600 (2-core VM, Python 3.11).  It pays on a whole
relation matrix with +-1 pivots, which a direct caller may pass: at 1,023
states whole-row updates took 21-24 s against 0.7-0.8 s.  The column side
pays there, where a column operation updates only the rows where column t
is nonzero (``live``); skipping on the row side alone still took 22-24 s.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, compress
from math import prod
from operator import mul

from ._value import frozen
from .errors import ShapeError


def _is_int(x) -> bool:
    """True for an int or an int subclass other than bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_ints(what: str, values: Iterable) -> None:
    """Raise ShapeError naming the first value that is not an integer.

    Every constructor in the package checks its integer inputs here, so a
    float is refused, never truncated, and a bool is not read as 0 or 1.
    """
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ShapeError(f"{what} {x!r} is not an integer")


@frozen
class IntMatrix:
    """Immutable integer matrix stored row-major."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        if not entries or not entries[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ShapeError("all rows must have the same length")
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(_product(self.entries, other.entries))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _product(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The product of two matrices given as entry tuples; shapes are not checked."""
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


# An elementary row operation is recorded as (kind, i, j, q): _SWAP exchanges
# rows i and j, _ADD adds q times row j to row i, _NEG negates row i.
_SWAP, _ADD, _NEG = 0, 1, 2


def _replay(ops, v: list[int], inverse: bool) -> list[int]:
    """Apply the recorded operations to v in place, or undo them when inverse."""
    for kind, i, j, q in reversed(ops) if inverse else ops:
        if kind == _ADD:
            v[i] += (-q if inverse else q) * v[j]
        elif kind == _SWAP:
            v[i], v[j] = v[j], v[i]
        else:
            v[i] = -v[i]
    return v


def _transform_matrix(ops, n: int, inverse: bool) -> IntMatrix:
    """The product of the recorded operations, or its inverse, as an n x n matrix."""
    cols = [_replay(ops, [int(i == j) for i in range(n)], inverse) for j in range(n)]
    return IntMatrix(tuple(zip(*cols)))


@frozen
class SnfResult:
    """Smith normal form D = U @ M @ V of an integer matrix M.

    U and V are unimodular; the diagonal of D is nonnegative and each
    diagonal entry divides the next.  Only D is built by the elimination,
    which records its row operations and, as row operations on M^t, its
    column operations; U, V and their inverses are replayed when first read.
    The determinant of a square M is read off D and the record, with no
    second elimination.
    """

    matrix: IntMatrix
    D: IntMatrix
    row_ops: tuple[tuple[int, int, int, int], ...]
    col_ops: tuple[tuple[int, int, int, int], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.D.diagonal()

    @property
    def determinant(self) -> int:
        """det M = det(D) / (det U det V), the sign taken from the record.

        Each recorded swap (always of two distinct rows or columns) and each
        negation has determinant -1, each addition of a multiple +1.
        """
        if not self.matrix.is_square:
            raise ShapeError("determinant needs a square matrix")
        det = prod(self.diagonal)
        kinds = [kind for kind, _, _, _ in chain(self.row_ops, self.col_ops)]
        return -det if (len(kinds) - kinds.count(_ADD)) % 2 else det

    @cached_property
    def U(self) -> IntMatrix:
        return _transform_matrix(self.row_ops, self.matrix.rows, inverse=False)

    @cached_property
    def U_inv(self) -> IntMatrix:
        return _transform_matrix(self.row_ops, self.matrix.rows, inverse=True)

    @cached_property
    def V(self) -> IntMatrix:
        return _transform_matrix(self.col_ops, self.matrix.cols, inverse=False).transpose()

    @cached_property
    def V_inv(self) -> IntMatrix:
        return _transform_matrix(self.col_ops, self.matrix.cols, inverse=True).transpose()

    def u_times(self, v: Sequence[int]) -> tuple[int, ...]:
        """U v, replayed without building U."""
        if len(v) != self.matrix.rows:
            raise ShapeError(f"vector of length {len(v)} does not fit {self.matrix.rows} rows")
        return tuple(_replay(self.row_ops, list(v), inverse=False))


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivots are chosen with minimal absolute value to keep intermediate
    entries small.  The diagonal is normalized nonnegative and satisfies
    the divisibility chain d1 | d2 | ... (zeros, if any, come last).

    Once pivot t is finished, its row and column are zero off the diagonal,
    and no later operation changes that: a row operation then adds only
    rows >= t, which are zero left of column t, and a column operation only
    columns >= t, which are zero above row t.  So later operations update
    only rows and columns >= t, adding a multiple of column t touches only
    the rows where column t is nonzero, and adding a multiple of a row
    touches only the columns where that row is nonzero.  Every skipped
    update would add zero, so D and the recorded operations are those of
    the full updates.  The skipping is kept for whole relation matrices,
    whose +-1 pivots leave column t sparse: at 1,023 states it takes 0.7-0.8 s
    against 21-24 s with whole-row updates.  On the blocks the unit-pivot pass
    leaves it neither pays nor costs (the module docstring has the figures).
    A pivot of +-1 divides every entry, so its divisibility scan is skipped.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    row_ops: list[tuple[int, int, int, int]] = []
    col_ops: list[tuple[int, int, int, int]] = []

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        row_ops.append((_SWAP, i, j, 0))

    def swap_cols(i: int, j: int) -> None:
        # rows above t are zero in both columns
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        col_ops.append((_SWAP, i, j, 0))

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src, on the columns >= t where row_src is nonzero
        if q == 0:
            return
        row, source = a[dst], a[src]
        for j in compress(range(t, c), source[t:]):
            row[j] += q * source[j]
        row_ops.append((_ADD, dst, src, q))

    def add_col(dst: int, q: int) -> None:
        # col_dst += q * col_t, on the rows where col_t is nonzero
        if q == 0:
            return
        for i in live:
            row = a[i]
            row[dst] += q * row[t]
        col_ops.append((_ADD, dst, t, q))

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        row_ops.append((_NEG, i, i, 0))

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                x = row[j]
                if x != 0:
                    ax = -x if x < 0 else x
                    if best_abs is None or ax < best_abs:
                        best = (i, j)
                        best_abs = ax
                        if ax == 1:
                            return best
        return best

    limit = min(r, c)
    t = 0
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            for i in range(t + 1, r):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
            # the row pass left column t zero below row t
            live = [t]
            col_dirtied = False
            for j in range(t + 1, c):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, -q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        live = [i for i in range(t, r) if a[i][t] != 0]
                        col_dirtied = True
            if col_dirtied:
                continue
            pivot = a[t][t]
            if pivot in (1, -1):
                break
            offender = None
            for i in range(t + 1, r):
                row = a[i]
                for j in range(t + 1, c):
                    if row[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into the pivot row so the next pass
            # shrinks the pivot to a common divisor
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SnfResult(
        matrix=m,
        D=IntMatrix(tuple(map(tuple, a))),
        row_ops=tuple(row_ops),
        col_ops=tuple(col_ops),
    )


def eliminate_unit_pivots(
    m: IntMatrix, v: Sequence[int]
) -> tuple[IntMatrix | None, tuple[int, ...], int]:
    """Clear the +-1 pivots of a square M, carrying a vector v along.

    While the trailing block holds an entry +-1, the first one in row-major
    order is swapped to (t, t) and column t is cleared below it by row
    operations, applied to v as well.  Each such pivot drops one generator
    and one relation of Z^n / M Z^n (a Tietze move; Havas, Holt & Rees
    1993), so the quotient is Z^(n-t) / S Z^(n-t) for the block S left at
    the end, and v's class is that of its last n - t coordinates.  The
    column operations that would clear row t touch only row t, so they are
    skipped.  Returns S (None when no block is left), the tail of v and
    the sign with det M = sign * det S: -1 per swap of two distinct rows or
    columns, times each pivot.

    The pivots, swaps and row operations are the ones ``smith_normal_form``
    makes while its block holds an entry +-1, so S and the tail are the
    block and vector it would reach there.
    """
    if not m.is_square:
        raise ShapeError("unit pivots need a square matrix")
    if len(v) != m.rows:
        raise ShapeError(f"vector of length {len(v)} does not fit {m.rows} rows")
    n = m.rows
    # v rides along as column n, which no search or column swap reaches
    a = [[*row, x] for row, x in zip(m.entries, v)]
    sign = 1
    t = 0
    while t < n:
        for pi in range(t, n):
            # the row's first +-1: a -1 is looked for only before its first 1
            row, pj = a[pi], n
            for x in (1, -1):
                try:
                    pj = row.index(x, t, pj)
                except ValueError:
                    pass
            if pj < n:
                break
        else:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            sign = -sign
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
            sign = -sign
        source = a[t]
        p = source[t]
        sign *= p
        live = list(compress(range(t, n + 1), source[t:]))
        for row in a[t + 1 :]:
            h = row[t]
            if h:
                q = h * p
                for j in live:
                    row[j] -= q * source[j]
        t += 1
    rest = IntMatrix(tuple(tuple(row[t:n]) for row in a[t:])) if t < n else None
    return rest, tuple(row[n] for row in a[t:]), sign


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Step k replaces each entry a_ij with i, j > k by
    (p_k a_ij - a_ik a_kj) / p_(k-1), where p_k is the k-th pivot and
    p_(-1) = 1.  Every entry so formed is a minor of M, so each division is
    exact, and the last pivot is the determinant (Bareiss 1968).
    """
    if not m.is_square:
        raise ShapeError("determinant needs a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        base = a[k]
        pivot = base[k]
        for row in a[k + 1 :]:
            head = row[k]
            row[k + 1 :] = [(x * pivot - head * y) // prev for x, y in zip(row[k + 1 :], base[k + 1 :])]
        prev = pivot
    return sign * a[n - 1][n - 1]
