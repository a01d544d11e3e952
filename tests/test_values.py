"""The value classes: equality, hashing, repr, immutability and construction.

Every exported result type is an immutable value.  Equality holds only
between instances of one class, equal values hash alike, the repr names
every field, and the constructor checks stay with their messages.
"""

import pytest

from markovshift import (
    Diagnostics,
    DomainError,
    EquivalenceDecision,
    FgAbelianGroup,
    GroupElement,
    IntMatrix,
    LocallyConstantFn,
    MarkovInvariant,
    NonNegMatrix,
    PointedGroup,
    PositivityResult,
    RealizationPlan,
    ShapeError,
    SnfResult,
    VerificationError,
    ZeroOneMatrix,
    decide_coe,
    invariant_triple,
    realize,
    smith_normal_form,
    validate,
)

FULL2 = ((1, 1), (1, 1))
TRIANGLE = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
GROUP = "FgAbelianGroup(free_rank=1, torsion_factors=(2, 4))"
POINT = "GroupElement(free_coords=(1,), torsion_coords=(1, 3))"

# a fresh value of each class, built anew on every call, and its repr
VALUES = {
    IntMatrix: (lambda: IntMatrix(((1, -2),)), "IntMatrix(entries=((1, -2),))"),
    SnfResult: (
        lambda: smith_normal_form(IntMatrix(((2, 4), (6, 8)))),
        "SnfResult(matrix=IntMatrix(entries=((2, 4), (6, 8))), D=IntMatrix(entries=((2, 0), (0, 4))), "
        "row_ops=((1, 1, 0, -3), (2, 1, 1, 0)), col_ops=((1, 1, 0, -2),))",
    ),
    GroupElement: (lambda: GroupElement((1,), (1, 3)), POINT),
    FgAbelianGroup: (lambda: FgAbelianGroup(1, (2, 4)), GROUP),
    PointedGroup: (
        lambda: PointedGroup(FgAbelianGroup(1, (2, 4)), GroupElement((1,), (1, 3))),
        f"PointedGroup(group={GROUP}, point={POINT})",
    ),
    NonNegMatrix: (lambda: NonNegMatrix(((2,),)), "NonNegMatrix(entries=((2,),))"),
    ZeroOneMatrix: (lambda: ZeroOneMatrix(FULL2), "ZeroOneMatrix(entries=((1, 1), (1, 1)))"),
    Diagnostics: (
        lambda: validate([[1, 0], [0, 1]]),
        "Diagnostics(issues=(Issue(code='reducible', message='the transition graph is not strongly connected'),))",
    ),
    LocallyConstantFn: (
        lambda: LocallyConstantFn(1, {(1,): 2, (2,): -1}),
        "LocallyConstantFn(window=1, values={(1,): 2, (2,): -1})",
    ),
    PositivityResult: (lambda: PositivityResult(False, (1, 2)), "PositivityResult(positive=False, witness=(1, 2))"),
    MarkovInvariant: (
        lambda: invariant_triple(ZeroOneMatrix(TRIANGLE)),
        "MarkovInvariant(group=FgAbelianGroup(free_rank=0, torsion_factors=(2, 2)), "
        "point=GroupElement(free_coords=(), torsion_coords=(0, 0)), det_value=-4)",
    ),
    EquivalenceDecision: (
        lambda: decide_coe(ZeroOneMatrix(FULL2), ZeroOneMatrix(TRIANGLE)),
        "EquivalenceDecision(equivalent=False, reason='Bowen-Franks groups are not isomorphic', "
        "left=MarkovInvariant(group=FgAbelianGroup(free_rank=0, torsion_factors=()), "
        "point=GroupElement(free_coords=(), torsion_coords=()), det_value=-1), "
        "right=MarkovInvariant(group=FgAbelianGroup(free_rank=0, torsion_factors=(2, 2)), "
        "point=GroupElement(free_coords=(), torsion_coords=(0, 0)), det_value=-4), "
        "checks=(('groups_isomorphic', False), ('determinants_equal', False), ('pointed_isomorphic', False)))",
    ),
    RealizationPlan: (
        lambda: realize(FgAbelianGroup(0, (2,)), GroupElement((), (1,)), -1)[1],
        "RealizationPlan(d_list=(), c_vector=(0, 0), base=NonNegMatrix(entries=((2, 2), (1, 1))), "
        "extended=NonNegMatrix(entries=((2, 2), (1, 1))), "
        "final=ZeroOneMatrix(entries=((1, 1, 1), (1, 1, 1), (1, 1, 1))), "
        "invariant=MarkovInvariant(group=FgAbelianGroup(free_rank=0, torsion_factors=(2,)), "
        "point=GroupElement(free_coords=(), torsion_coords=(1,)), det_value=-2))",
    ),
}
CLASSES = list(VALUES)
HASHABLE = [cls for cls in CLASSES if cls is not LocallyConstantFn]


def make(cls):
    value = VALUES[cls][0]()
    assert type(value) is cls
    return value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    assert repr(make(cls)) == VALUES[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_within_the_class_only(cls):
    a, b = make(cls), make(cls)
    assert a is not b and a == b and not a != b
    for other in CLASSES:
        if other is not cls:
            assert a != make(other)
    assert a != tuple(vars(a).values())


def test_matrix_classes_never_equal_each_other():
    assert IntMatrix(FULL2) != NonNegMatrix(FULL2) != ZeroOneMatrix(FULL2) != IntMatrix(FULL2)
    assert ZeroOneMatrix(FULL2) == ZeroOneMatrix.from_rows([[1, 1], [1, 1]])
    assert IntMatrix(FULL2) != IntMatrix(((1, 1), (1, 0)))


@pytest.mark.parametrize("cls", [IntMatrix, NonNegMatrix, ZeroOneMatrix], ids=lambda cls: cls.__name__)
def test_matrices_built_from_lists_keep_tuples(cls):
    rows = [[1, 1], [1, 0]]
    matrix = cls(rows)
    assert matrix == cls(((1, 1), (1, 0))) == cls(entries=rows) == cls(iter(rows))
    assert hash(matrix) == hash(cls(((1, 1), (1, 0))))
    rows[1][1] = -5
    assert matrix.entries == ((1, 1), (1, 0))
    with pytest.raises(TypeError):
        matrix.entries[0][0] = -5


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_equal_values_hash_alike(cls):
    assert hash(make(cls)) == hash(make(cls))
    assert len({make(cls), make(cls)}) == 1


def test_hash_is_the_hash_of_the_fields():
    assert hash(GroupElement((1,), (1, 3))) == hash(((1,), (1, 3)))
    assert hash(IntMatrix(FULL2)) == hash((FULL2,))


def test_function_with_a_table_is_unhashable():
    with pytest.raises(TypeError):
        hash(make(LocallyConstantFn))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = make(cls)
    field = next(iter(vars(value)))
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_smith_form_caches_its_transforms():
    snf = make(SnfResult)
    assert snf.U is snf.U
    assert snf.U @ snf.matrix @ snf.V == snf.D
    with pytest.raises(AttributeError):
        snf.U = None


def test_keyword_and_default_construction():
    assert IntMatrix(entries=FULL2) == IntMatrix(FULL2)
    assert GroupElement() == GroupElement((), ()) == GroupElement(torsion_coords=())
    assert GroupElement(torsion_coords=(1,)).free_coords == ()
    assert FgAbelianGroup(3) == FgAbelianGroup(free_rank=3, torsion_factors=())
    group, point = FgAbelianGroup(0, (2,)), GroupElement((), (1,))
    assert PointedGroup(point=point, group=group) == PointedGroup(group, point)
    assert PositivityResult(True, witness=None) == PositivityResult(positive=True, witness=None)


@pytest.mark.parametrize(
    "args, kwargs",
    [((True,), {}), ((True, None, None), {}), ((True,), {"positive": True}), ((True, None), {"sign": 1})],
)
def test_construction_needs_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        PositivityResult(*args, **kwargs)


def test_class_without_fields_is_refused():
    # annotations read lazily (a module without `from __future__ import
    # annotations` on Python 3.14+) leave none in the class __dict__
    from markovshift._value import frozen

    class Bare:
        pass

    with pytest.raises(TypeError, match="Bare has no annotated fields"):
        frozen(Bare)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: IntMatrix(()), ShapeError, "matrix needs at least one row and one column"),
        (lambda: IntMatrix(((1,), (1, 2))), ShapeError, "all rows must have the same length"),
        (lambda: FgAbelianGroup(-1), DomainError, "free rank must be nonnegative"),
        (lambda: FgAbelianGroup(1.0), ShapeError, "free rank 1.0 is not an integer"),
        (lambda: FgAbelianGroup(0, (1,)), DomainError, "torsion factor 1 is not allowed; factors must be >= 2"),
        (
            lambda: FgAbelianGroup(0, (2, 3)),
            DomainError,
            "torsion factors must form a divisibility chain; 2 does not divide 3",
        ),
        (
            lambda: PointedGroup(FgAbelianGroup(0, (2,)), GroupElement()),
            ShapeError,
            "distinguished element does not match the group shape",
        ),
        (lambda: NonNegMatrix(()), ShapeError, "matrix must have size at least 1"),
        (lambda: NonNegMatrix(((1, 1),)), ShapeError, "transition matrix must be square"),
        (lambda: NonNegMatrix(((1, -1), (1, 1))), DomainError, "negative entry -1 in row 1"),
        (lambda: NonNegMatrix(((1, 1), (0, 0))), DomainError, "row 2 is identically zero"),
        (lambda: ZeroOneMatrix(((1,),)), ShapeError, "matrix must have size at least 2"),
        (lambda: ZeroOneMatrix(((1, 2), (1, 1))), DomainError, "entry 2 is not in {0, 1}"),
        (lambda: LocallyConstantFn(0, {}), DomainError, "window must be at least 1"),
        (
            lambda: LocallyConstantFn(2, {(1,): 0}),
            DomainError,
            "table key (1,) does not have window length 2",
        ),
        (
            lambda: MarkovInvariant(FgAbelianGroup(0, (2,)), GroupElement((), (1,)), 3),
            VerificationError,
            "finite group order must equal |det(id - A)|",
        ),
    ],
)
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
