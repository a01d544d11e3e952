"""A table of the continuous-orbit-equivalence classes of small 0/1 matrices.

Every 0/1 matrix with 2 to 4 states is enumerated; the classifiable ones
are bucketed by (group, determinant) and then by ``pointed_is_isomorphic``,
which gives each COE class its smallest member.  Every class must
round-trip through ``realize``, and the table pins the size of each
class's smallest member and bounds the size of its realization, so a
plan change that grows a small class fails here.
"""

from collections import Counter
from itertools import product

from markovshift import (
    FgAbelianGroup,
    PointedGroup,
    ZeroOneMatrix,
    decide_coe,
    invariant_triple,
    pointed_is_isomorphic,
    realize,
)
from markovshift.shifts import classifiability_issue

# (free rank, torsion factors, det(id - A), point free, point torsion):
# (states of the smallest member, states of the realization at most)
SIZES = {
    (0, (), -1, (), ()): (2, 3),
    (0, (2,), -2, (), (1,)): (3, 3),
    (0, (2,), -2, (), (0,)): (3, 4),
    (0, (3,), -3, (), (2,)): (3, 4),
    (0, (2, 2), -4, (), (0, 0)): (3, 10),
    (0, (4,), -4, (), (2,)): (3, 6),
    (1, (), 0, (0,), ()): (3, 4),
    (0, (4,), -4, (), (3,)): (4, 4),
    (0, (3,), -3, (), (0,)): (4, 5),
    (0, (5,), -5, (), (4,)): (4, 5),
    (0, (4,), -4, (), (0,)): (4, 5),
    (0, (2, 2), -4, (), (0, 1)): (4, 11),
    (1, (), 0, (1,), ()): (4, 5),
    (0, (), 1, (), ()): (4, 5),
    (0, (6,), -6, (), (5,)): (4, 6),
    (0, (6,), -6, (), (0,)): (4, 7),
    (0, (6,), -6, (), (2,)): (4, 5),
    (0, (6,), -6, (), (3,)): (4, 8),
    (1, (), 0, (-2,), ()): (4, 6),
    (0, (7,), -7, (), (6,)): (4, 6),
    (0, (8,), -8, (), (2,)): (4, 6),
    (0, (2, 4), -8, (), (0, 2)): (4, 14),
    (1, (2,), 0, (0,), (1,)): (4, 9),
    (1, (2,), 0, (0,), (0,)): (4, 8),
    (0, (9,), -9, (), (3,)): (4, 9),
    (0, (3, 3), -9, (), (0, 2)): (4, 13),
    (0, (5,), -5, (), (0,)): (4, 6),
    (0, (8,), -8, (), (0,)): (4, 8),
    (0, (10,), -10, (), (2,)): (4, 8),
    (0, (9,), -9, (), (1,)): (4, 6),
    (0, (2, 4), -8, (), (1, 2)): (4, 15),
    (0, (8,), -8, (), (4,)): (4, 8),
    (0, (2, 4), -8, (), (0, 0)): (4, 12),
    (0, (2, 6), -12, (), (0, 2)): (4, 19),
    (1, (3,), 0, (0,), (2,)): (4, 10),
    (0, (2, 2, 4), -16, (), (0, 0, 2)): (4, 21),
    (1, (4,), 0, (0,), (2,)): (4, 12),
    (2, (), 0, (0, 0), ()): (4, 6),
}


def coe_classes(max_states: int):
    """The classifiable 0/1 matrices counted, and each COE class's invariant and first member.

    Matrices are enumerated by size, then row-major as binary numbers, so
    the first member of a class is one of its smallest.
    """
    buckets = {}
    classifiable = 0
    for n in range(2, max_states + 1):
        for bits in product((0, 1), repeat=n * n):
            rows = tuple(bits[i * n : (i + 1) * n] for i in range(n))
            if not all(map(any, rows)) or not all(map(any, zip(*rows))):
                continue
            a = ZeroOneMatrix(rows)
            if classifiability_issue(a) is not None:
                continue
            classifiable += 1
            inv = invariant_triple(a)
            members = buckets.setdefault((inv.group, inv.det_value), [])
            if not any(pointed_is_isomorphic(first.pointed, inv.pointed) for first, _ in members):
                members.append((inv, a))
    return classifiable, [cls for members in buckets.values() for cls in members]


def test_small_coe_classes_realize_and_keep_their_sizes():
    classifiable, classes = coe_classes(4)
    assert classifiable == 25835
    assert len(classes) == len(SIZES) == 38
    assert Counter(smallest for smallest, _ in SIZES.values()) == {2: 1, 3: 6, 4: 31}
    assert sum(smallest for smallest, _ in SIZES.values()) == 144
    unmatched = list(classes)
    for (free_rank, torsion, det, free, tors), (smallest, bound) in SIZES.items():
        group = FgAbelianGroup(free_rank, torsion)
        pinned = PointedGroup(group, group.element(free, tors))
        [cls] = [
            (inv, a)
            for inv, a in unmatched
            if inv.group == group and inv.det_value == det and pointed_is_isomorphic(inv.pointed, pinned)
        ]
        unmatched.remove(cls)
        inv, a = cls
        assert a.size == smallest
        matrix, _ = realize(group, inv.point, inv.sign)
        assert decide_coe(matrix, a).equivalent
        assert matrix.size <= bound, (group.describe(), inv.point, matrix.size, bound)
    assert unmatched == []
