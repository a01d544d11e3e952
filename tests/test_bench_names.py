"""The benchmark reaches into the package by name: every name it uses must resolve.

``bench/tracing.py`` wraps functions listed in ``TRACED`` by module and
name and reads the transforms of every Smith form in ``_max_bits``, and
the workloads call public names through module aliases.  The benchmark
files are parsed, not imported, so this test writes nothing under
``bench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

from markovshift import IntMatrix, smith_normal_form

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def traced_functions() -> list[tuple[str, str]]:
    for node in parse("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TRACED")


def smith_form_reads() -> set[str]:
    """Attributes that bench/tracing.py:_max_bits reads off its Smith form argument."""
    for node in parse("tracing.py").body:
        if isinstance(node, ast.FunctionDef) and node.name == "_max_bits":
            arg = node.args.args[0].arg
            return {
                n.attr
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == arg
            }
    raise AssertionError("bench/tracing.py defines no _max_bits")


def aliased_names(name: str) -> list[tuple[str, str]]:
    """(module, attribute) for each use of a markovshift module alias in a bench file."""
    tree = parse(name)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "markovshift":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "markovshift":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"markovshift.{alias.name}"
    return [
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    ]


def test_traced_functions_resolve():
    traced = traced_functions()
    assert len(traced) >= 20
    missing = [
        f"{module}.{func}"
        for module, func in traced
        if not callable(getattr(importlib.import_module(f"markovshift.{module}"), func, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["workloads.py", "selftest.py"])
def test_workload_names_resolve(name):
    used = aliased_names(name)
    assert ("markovshift", "realize") in used
    missing = [f"{module}.{attr}" for module, attr in used if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_smith_form_reads_resolve():
    reads = smith_form_reads()
    assert {"D", "U_inv", "V_inv"} <= reads
    snf = smith_normal_form(IntMatrix(((2,),)))
    assert sorted(name for name in reads if not hasattr(snf, name)) == []
