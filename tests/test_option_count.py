"""Guard on the package's options, its defaulted function parameters and
dataclass field defaults, and on its count of dataclasses.

Each parameter or field with a default is an option some caller may leave
out. The shipped values live in ``data/default.cfg``, so a default that
repeats one of them is a second copy that an edit of the file leaves stale.
Each dataclass is a kind of object; one that restates another's fields is a
second schema to keep in step. The counts may only go up by a deliberate
edit of ``MAX_DEFAULTED``, ``MAX_FIELD_DEFAULTS`` or ``MAX_DATACLASSES``.
"""

import ast
from pathlib import Path

import spdcfilm

#: defaulted parameters of every function, method and lambda in the package
MAX_DEFAULTED = 3

#: fields with a default in the body of every ``@dataclass`` class in the package
MAX_FIELD_DEFAULTS = 0

#: ``@dataclass`` classes in the package
MAX_DATACLASSES = 30


def _defaulted(tree):
    """(function name, count) of each function of ``tree`` with defaulted
    parameters, positional or keyword-only."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield getattr(node, "name", "<lambda>"), count


def _is_dataclass(decorator) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or either through ``dataclasses.``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclasses(tree) -> list:
    """The ``@dataclass`` class definitions of ``tree``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))]


def _field_defaults(tree):
    """(class name, field name) of each field of a ``@dataclass`` class of
    ``tree`` that has a default: an annotated assignment with a value."""
    for node in _dataclasses(tree):
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and statement.value is not None:
                yield node.name, statement.target.id


def _package_trees():
    """(module file name, syntax tree) of each module of the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(spdcfilm.__file__).parent.glob("*.py"))]


def test_defaulted_parameter_count():
    found = [(module, name, count) for module, tree in _package_trees()
             for name, count in _defaulted(tree)]
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED, f"{total} defaulted parameters: {found}"


def test_dataclass_field_default_count():
    found = [(module, *field) for module, tree in _package_trees()
             for field in _field_defaults(tree)]
    assert len(found) <= MAX_FIELD_DEFAULTS, f"{len(found)} field defaults: {found}"


def test_dataclass_count():
    found = [(module, node.name) for module, tree in _package_trees()
             for node in _dataclasses(tree)]
    assert len(found) <= MAX_DATACLASSES, f"{len(found)} dataclasses: {found}"


def test_counter_sees_every_kind_of_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d): pass\n"
                     "async def h(x=None): pass\n"
                     "g = lambda y=0: y\n")
    assert sorted(_defaulted(tree)) == [("<lambda>", 1), ("f", 2), ("h", 1)]


def test_counter_sees_field_defaults():
    tree = ast.parse("@dataclass(frozen=True)\n"
                     "class A:\n    a: int\n    b: int = 1\n    c = 2\n"
                     "@dataclasses.dataclass\n"
                     "class B:\n    d: str = 'x'\n"
                     "class C:\n    e: int = 3\n")
    assert sorted(_field_defaults(tree)) == [("A", "b"), ("B", "d")]


def test_counter_sees_dataclasses():
    tree = ast.parse("@dataclass(frozen=True, eq=False)\nclass A:\n    a: int\n"
                     "@dataclasses.dataclass\nclass B:\n    pass\n"
                     "@functools.cache\nclass C:\n    pass\n")
    assert [node.name for node in _dataclasses(tree)] == ["A", "B"]
