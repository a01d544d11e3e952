"""Every function, class and method of the package has a caller in the package.

The sources under ``src/markovshift`` are parsed, not imported.  A
module-level function or class is used when its bare name is read
somewhere outside its own definition; ``__init__.py`` does not count, so
an export alone keeps nothing alive.  A method is used when an attribute
access ``.name`` outside its own definition reads it, with two limits:

- an access on ``self`` counts only for methods of the enclosing class
  and of the classes related to it by inheritance;
- an access on a builtin type, or on a name the same function binds to a
  set, list or dict, counts for nothing, so ``seen.add`` in a graph search
  does not keep a method called ``add`` alive.

Other receivers are not typed, so two methods of one name in unrelated
classes keep each other alive.  Dunder methods are called by the language
and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "markovshift"

# definitions without a caller in the package, and why each stays
ALLOWED = {
    "_Parser.error": "the override argparse calls for every command line it refuses",
    "UndecidedError": "read by bench/run.py and bench/workloads.py",
    "determinant": "wrapped by bench/tracing.py; the tests' Bareiss reference",
    "edge_shift": (
        "builds the classify workload's inputs in bench/workloads.py; wrapped by bench/tracing.py; "
        "the tests' recoding reference"
    ),
    "higher_block": "called by the orbits workload in bench/workloads.py",
    "LocallyConstantFn.value": (
        "public evaluation on one word, a DomainError off the table; the tests' coboundary reads it"
    ),
    "SnfResult.U": "read by bench/tracing.py:_max_bits",
    "SnfResult.V": "read by bench/tracing.py:_max_bits",
    "SnfResult.U_inv": "read by bench/tracing.py:_max_bits",
    "SnfResult.V_inv": "read by bench/tracing.py:_max_bits",
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


def uses(tree: ast.Module) -> list[tuple[str, bool, tuple[str, ...], str | None]]:
    """(name, read as an attribute, keys of the enclosing definitions, class of self)."""
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
                elif receiver not in b:
                    out.append((child.attr, True, k, None))
            walk(child, k, c, b)

    walk(tree, (), None, BUILTIN_RECEIVERS)
    return out


def uncalled() -> list[str]:
    parsed = trees()
    keys = [key for tree in parsed for key in definitions(tree)]
    reads = [use for tree in parsed for use in uses(tree)]
    parents = {}
    for tree in parsed:
        parents.update(bases(tree))

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
            and (self_cls is None or related(self_cls, cls))
            for read, is_attr, enclosing, self_cls in reads
        )

    return [key for key in keys if not used(key)]


def test_every_definition_has_a_caller():
    assert [key for key in uncalled() if key not in ALLOWED] == []


def test_allowlist_names_only_uncalled_definitions():
    assert sorted(set(ALLOWED) - set(uncalled())) == []
