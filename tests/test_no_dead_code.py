"""Every function, class and method of the package has a reader in the package or in bench/.

The sources under ``src/markovshift`` are parsed, not imported.  A
module-level function or class is used when its bare name is read
somewhere outside its own definition; ``__init__.py`` does not count, so
an export alone keeps nothing alive.  A method is used when an attribute
access ``.name`` outside its own definition reads it, with three limits:

- an access on ``self`` counts only for methods of the enclosing class
  and of the classes related to it by inheritance;
- an access ``C.name`` on a package class ``C`` counts the same way, for
  ``C`` and the classes related to it;
- an access on a builtin type, or on a name the same function binds to a
  set, list or dict, counts for nothing, so ``seen.add`` in a graph search
  does not keep a method called ``add`` alive.

Other receivers are not typed, so two methods of one name in unrelated
classes keep each other alive.  Dunder methods are called by the language
and are exempt.

The benchmark reads some names on purpose, and its reads count too.  They
come from the ``bench/`` sources, parsed by the helpers of
``test_bench_names``: the functions of ``TRACED`` in ``bench/tracing.py``,
the attributes ``_max_bits`` reads off a Smith form (typed to the class
``smith_normal_form`` returns), and the ``markovshift`` attributes that
the files of ``ALIAS_READERS`` read.  A name ``bench/`` stops reading is
reported like any other.
"""

import ast
from pathlib import Path

import pytest

from test_bench_names import ALIAS_READERS, aliased_names, smith_form_reads, traced_functions

SRC = Path(__file__).resolve().parent.parent / "src" / "markovshift"

# definitions without a reader, and why each stays
ALLOWED = {
    "_Parser.error": "the override argparse calls for every command line it refuses",
}

BUILTIN_RECEIVERS = frozenset({"dict", "frozenset", "int", "list", "set", "str", "tuple"})
CONTAINER_NODES = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)


def trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def definitions(tree: ast.Module):
    """Keys of the module-level functions and classes and of their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def bases(tree: ast.Module) -> dict[str, set[str]]:
    return {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def containers(func: ast.FunctionDef) -> frozenset:
    """Names that func binds to a set, list or dict."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, CONTAINER_NODES) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in BUILTIN_RECEIVERS
            ):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return BUILTIN_RECEIVERS | names


def uses(tree: ast.Module, classes) -> list[tuple[str, bool, tuple[str, ...], str | None]]:
    """(name, read as an attribute, keys of the enclosing definitions, class of the receiver)."""
    out = []

    def walk(node, keys, cls, bound):
        for child in ast.iter_child_nodes(node):
            k, c, b = keys, cls, bound
            if isinstance(child, ast.ClassDef) and not keys:
                k, c = (child.name,), child.name
            elif isinstance(child, ast.FunctionDef):
                if isinstance(node, ast.ClassDef):
                    k = keys + (f"{cls}.{child.name}",)
                elif not keys:
                    k = (child.name,)
                b = bound | containers(child)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((child.id, False, k, None))
            elif isinstance(child, ast.Attribute):
                receiver = child.value.id if isinstance(child.value, ast.Name) else None
                if receiver == "self":
                    out.append((child.attr, True, k, c))
                elif receiver in classes:
                    out.append((child.attr, True, k, receiver))
                elif receiver not in b:
                    out.append((child.attr, True, k, None))
            walk(child, k, c, b)

    walk(tree, (), None, BUILTIN_RECEIVERS)
    return out


def bench_reads(parsed: list[ast.Module]) -> list[tuple[str, bool, tuple[str, ...], str | None]]:
    """The package names bench/ reads, in the form ``uses`` gives, read outside every definition."""
    smith_form = next(
        node.returns.id
        for tree in parsed
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "smith_normal_form"
    )
    return (
        [(func, False, (), None) for _, func in traced_functions()]
        + [(attr, True, (), smith_form) for attr in smith_form_reads()]
        + [(attr, False, (), None) for name in ALIAS_READERS for _, attr in aliased_names(name)]
    )


def uncalled() -> list[str]:
    parsed = trees()
    keys = [key for tree in parsed for key in definitions(tree)]
    parents = {}
    for tree in parsed:
        parents.update(bases(tree))
    reads = [use for tree in parsed for use in uses(tree, parents)] + bench_reads(parsed)

    def ancestors(cls):
        seen, stack = set(), [cls]
        while stack:
            for base in parents.get(stack.pop(), ()):
                if base not in seen:
                    seen.add(base)
                    stack.append(base)
        return seen

    def related(a, b):
        return a == b or b in ancestors(a) or a in ancestors(b)

    def used(key):
        cls, _, name = key.rpartition(".")
        return any(
            read == name
            and key not in enclosing
            and (is_attr if cls else not is_attr)
            and (receiver is None or related(receiver, cls))
            for read, is_attr, enclosing, receiver in reads
        )

    return [key for key in keys if not used(key)]


def test_every_definition_has_a_caller():
    assert [key for key in uncalled() if key not in ALLOWED] == []


def test_allowlist_names_only_uncalled_definitions():
    assert sorted(set(ALLOWED) - set(uncalled())) == []


# A and B both define from_rows, and C inherits B's
TWO_CLASSES = """
class A:
    def from_rows(self): ...

class B:
    def from_rows(self): ...

class C(B):
    pass

def build():
    return {reader}.from_rows()

KINDS = (A, C, build)
"""


@pytest.mark.parametrize("reader", ["B", "C"])
def test_a_class_read_counts_for_its_own_family(monkeypatch, reader):
    monkeypatch.setitem(globals(), "trees", lambda: [ast.parse(TWO_CLASSES.format(reader=reader))])
    monkeypatch.setitem(globals(), "bench_reads", lambda parsed: [])
    assert uncalled() == ["A.from_rows"]


@pytest.mark.parametrize("read, key", [("higher_block", "higher_block"), ("U", "SnfResult.U")])
def test_a_name_only_bench_reads_is_kept_while_bench_reads_it(monkeypatch, read, key):
    assert key not in uncalled()
    reads = bench_reads
    monkeypatch.setitem(globals(), "bench_reads", lambda parsed: [r for r in reads(parsed) if r[0] != read])
    assert key in uncalled()
