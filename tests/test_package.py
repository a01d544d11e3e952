import types

import markovshift


def test_all_names_resolve_and_none_is_a_module():
    assert markovshift.__all__
    for name in markovshift.__all__:
        assert not isinstance(getattr(markovshift, name), types.ModuleType), name


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from markovshift import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(markovshift.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
