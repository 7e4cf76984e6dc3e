"""Guard on the package's options: its defaulted function parameters.

Each parameter with a default is an option some caller may set. The count
may only go up by a deliberate edit of ``MAX_DEFAULTED``.
"""

import ast
from pathlib import Path

import spdcfilm

#: defaulted parameters of every function, method and lambda in the package
MAX_DEFAULTED = 32


def _defaulted(tree):
    """(function name, count) of each function of ``tree`` with defaulted
    parameters, positional or keyword-only."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                yield getattr(node, "name", "<lambda>"), count


def _defaulted_parameters():
    """(module, function, count) of each function with defaulted parameters."""
    return [(path.name, name, count)
            for path in sorted(Path(spdcfilm.__file__).parent.glob("*.py"))
            for name, count in _defaulted(ast.parse(path.read_text(encoding="utf-8")))]


def test_defaulted_parameter_count():
    found = _defaulted_parameters()
    total = sum(count for _, _, count in found)
    assert total <= MAX_DEFAULTED, f"{total} defaulted parameters: {found}"


def test_counter_sees_every_kind_of_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d): pass\n"
                     "async def h(x=None): pass\n"
                     "g = lambda y=0: y\n")
    assert sorted(_defaulted(tree)) == [("<lambda>", 1), ("f", 2), ("h", 1)]
