"""Every function, class and method in src/hermitia has a caller in src/.

The package holds the code the CLI runs; references that only tests use
live in tests/oracles.py.  This test parses every module of the package
except __init__.py and requires each module-level function and class, and
each method of a module-level class, whose name is not a dunder, to appear
as a Name id or an Attribute attr somewhere in those modules outside its own
definition.

It is a floor, not a proof of reachability: a name is matched as a string,
so a member passes when any other name use shares its spelling, such as a
method called point next to a local variable point, or a method named like
a method of another class.
"""

import ast
from collections import Counter
from pathlib import Path

import hermitia

SRC = Path(hermitia.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _names_used(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, name, node) for each module-level function and class
    and each method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs):
                    yield f"{node.name}.{member.name}", member.name, member


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_src_member_has_a_src_caller():
    trees = _modules()
    used = Counter()
    for tree in trees.values():
        used += _names_used(tree)
    uncalled = [f"{module}:{qualname}"
                for module, tree in trees.items()
                for qualname, name, node in _definitions(tree)
                if not _is_dunder(name)
                and used[name] - _names_used(node)[name] <= 0]
    assert uncalled == []
