"""Every function, class and method in src/hermitia has a caller in src/.

The package holds the code the CLI runs; references that only tests use
live in tests/oracles.py.  This test parses every module of the package
except __init__.py and requires each module-level function and class, and
each method of a module-level class, whose name is not a dunder, to appear
as a Name id or an Attribute attr somewhere in those modules outside its own
definition.

A second test requires each parameter with a default, of any function or
method in those modules, to be passed by at least one call in them: by
keyword, by position, or through * or **.  A parameter that no call passes
only ever takes its default, a constant spelled as a parameter.  The
console scripts of pyproject.toml are excepted, since the installed script
calls its entry point with no arguments.

Both are a floor, not a proof of reachability: a name is matched as a
string, so a member passes when any other name use shares its spelling,
such as a method called point next to a local variable point, or a method
named like a method of another class; a call passes a parameter to every
function of the callee's name.
"""

import ast
import tomllib
from collections import Counter, defaultdict
from pathlib import Path

import hermitia

SRC = Path(hermitia.__file__).parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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


def _defaulted_parameters(tree):
    """(qualified name, callee name, parameter, index) for each parameter
    with a default of each function in tree.  index is the parameter's place
    among the arguments a call passes by position, after self or cls of a
    method, and None for a keyword-only one; the callee of __init__ and
    __new__ is the class."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_class = isinstance(parent, ast.ClassDef)
            bound = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            qualname = f"{parent.name}.{node.name}" if in_class else node.name
            callee = (parent.name if bound and node.name in ("__init__", "__new__")
                      else node.name)
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k, arg in enumerate(positional[first:], first):
                yield qualname, callee, arg.arg, k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, callee, arg.arg, None


def _calls_by_name(trees) -> defaultdict:
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
    return calls


def _passes(call: ast.Call, param: str, index) -> bool:
    keywords = {kw.arg for kw in call.keywords}  # None for **
    if param in keywords or None in keywords:
        return True
    starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return index is not None and (bool(starred) or index < len(call.args))


def _entry_points() -> set:
    """(module, qualified name) of each console script's entry point."""
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return {tuple(target.split(":")) for target in scripts.values()}


def test_every_defaulted_src_parameter_is_passed_by_a_src_call():
    trees = _modules()
    calls = _calls_by_name(trees.values())
    entry_points = _entry_points()
    assert ("hermitia.cli", "main") in entry_points
    unpassed = [f"{module}:{qualname}({param})"
                for module, tree in trees.items()
                for qualname, callee, param, index in _defaulted_parameters(tree)
                if (f"hermitia.{Path(module).stem}", qualname) not in entry_points
                and not any(_passes(call, param, index) for call in calls[callee])]
    assert unpassed == []
