"""The package's top level is the library API that README documents; every
function, class and method of the package has a caller in it; and the
modules that wire the pipeline import no other module's private names."""

import ast
import re
import types
from pathlib import Path

import spdcfilm

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_block() -> str:
    """The first Python block under README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_top_level_exports_what_readme_library_use_imports(tmp_path, monkeypatch):
    block = _library_use_block()
    monkeypatch.chdir(tmp_path)  # the block writes a report under the working directory
    exec(compile(block, "README.md", "exec"), {})
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "spdcfilm"
                for alias in node.names}
    exported = {name for name, value in vars(spdcfilm).items()
                if (not name.startswith("_") or name == "__version__")
                and not isinstance(value, types.ModuleType)}
    assert exported == imported | {"__version__"}


def _definitions(tree) -> list:
    """(name, node) of each top-level function and class of a module, and of
    each method of its top-level classes as ``Class.method``, dunders excepted."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{method.name}", method) for method in node.body
                      if isinstance(method, ast.FunctionDef)
                      and not (method.name.startswith("__") and method.name.endswith("__"))]
    return found


def _unreferenced(trees: dict) -> list:
    """(module, name) of each top-level function or class of the modules
    ``trees`` (file name -> syntax tree), private ones included, and of each
    non-dunder method of their top-level classes (``Class.method``), that no
    module refers to as a ``Name`` or an ``Attribute`` and that
    ``__init__.py`` does not import. Names are matched as strings, whatever
    object they are bound to."""
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    known = referenced | exported
    return [(module, name) for module, tree in trees.items()
            for name, node in _definitions(tree) if node.name not in known]


def _package_trees() -> dict:
    package = Path(spdcfilm.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def test_every_public_function_and_class_has_a_caller():
    # a name only tests call is a second name for a computation the package
    # reaches another way, or for one it no longer needs
    assert _unreferenced(_package_trees()) == []


def test_unreferenced_scan_sees_calls_attributes_and_exports():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse("def exported(): pass\ndef called(): pass\ndef by_attribute(): pass\n"
                          "def _private(): pass\ndef _used(): pass\nclass Orphan: pass\n"
                          "def orphan(): pass\n"
                          "class Kept:\n    def __init__(self): pass\n"
                          "    def method(self): pass\n    def _helper(self): pass\n"),
        "b.py": ast.parse("from . import a\nfrom .a import called, _used, Kept\n"
                          "called()\n_used()\na.by_attribute()\nKept().method()\n"),
    }
    assert _unreferenced(trees) == [("a.py", "_private"), ("a.py", "Orphan"),
                                    ("a.py", "orphan"), ("a.py", "Kept._helper")]


def _private_imports(tree) -> list:
    """The ``_``-prefixed names a module imports from a package module, by a
    relative import or one from ``spdcfilm``."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "spdcfilm")
            for alias in node.names if alias.name.startswith("_")]


def test_experiment_and_cli_import_no_private_name():
    """``experiment`` and ``cli`` call the public stages of the modules they
    wire: the estimator's steps are ``tomography``'s, the report's renderer
    and file writer ``experiment``'s. Out of scope here: ``tomography``
    itself still imports four private stack helpers of ``qutrit``
    (``_check_spectrum``, ``_concurrence``, ``_dominant`` and
    ``_schmidt_number``)."""
    trees = _package_trees()
    assert {name: _private_imports(trees[name]) for name in ("experiment.py", "cli.py")} == {
        "experiment.py": [], "cli.py": []}


def test_private_import_scan_sees_relative_and_package_imports():
    tree = ast.parse("from . import a\nfrom .a import _one, two\nfrom ..b import _three\n"
                     "from spdcfilm.c import _four\nfrom json import _default_decoder\n")
    assert _private_imports(tree) == ["_one", "_three", "_four"]
