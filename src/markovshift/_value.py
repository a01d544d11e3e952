"""Immutable value classes, built without ``dataclasses``.

Importing ``dataclasses`` loads ``inspect``, ``ast`` and ``dis``, and
every class it builds compiles its methods with ``exec``: together most
of the package's import, which every command pays.  Here the methods
are closures over the field names.
"""

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    The fields are the names annotated in the bodies of ``cls`` and of its
    bases, base classes first.  Unless the class body defines them itself,
    the class gets:

    - ``__init__``, taking every field by position or keyword, then calling
      ``__post_init__`` when the class has one.  A class built often may
      define its own ``__init__`` instead, with defaults if it wants them;
      it stores each field with ``object.__setattr__``;
    - ``__eq__``, true only for an instance of the same class with equal
      fields, and ``__hash__``, the hash of the tuple of the fields;
    - ``__repr__``, as ``Name(field=value, ...)``.

    The class must be defined in a module that starts with ``from __future__
    import annotations``, so its annotations sit in the class ``__dict__``;
    a class with no fields found there is refused with ``TypeError``.

    Assigning or deleting an attribute raises ``AttributeError``.  An
    instance keeps its ``__dict__``, where ``cached_property`` stores.
    """
    # annotations are read from each class's __dict__, where they stay only
    # under `from __future__ import annotations` (on Python 3.14 a class
    # without it keeps them behind __annotate__)
    names = tuple(dict.fromkeys(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__annotations__", ())))
    if not names:
        raise TypeError(f"{cls.__qualname__} has no annotated fields; define it under `from __future__ import annotations`")
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _field_values(cls, names, args, kwargs)
        for name, value in zip(names, args):
            _store(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({args})"

    for method in (__init__, __eq__, __hash__, __repr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _field_values(cls, names, args, kwargs) -> list:
    """The field values, in field order, of a call that mixes positions and keywords.

    Also the path of a call with a wrong count, which it refuses.
    """
    count = len(args) + len(kwargs)
    kwargs.update(zip(names, args))
    if count != len(names) or kwargs.keys() != set(names):
        raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(names)} once, by position or keyword")
    return [kwargs[n] for n in names]


# stores past the refusing __setattr__.  Since CPython 3.11 it keeps the
# fields in the instance's inline values; writing into self.__dict__ would
# build a dict for every instance, and reads from it are several times slower
_store = object.__setattr__


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
