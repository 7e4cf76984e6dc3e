"""The package's top level is the library API that README documents, and
every public function and class of the package has a caller in it."""

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


def _unreferenced(trees: dict) -> list:
    """(module, name) of each public top-level function or class of the
    modules ``trees`` (file name -> syntax tree) that no module refers to as a
    ``Name`` or an ``Attribute`` and that ``__init__.py`` does not import.
    Names are matched as strings, whatever object they are bound to."""
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in referenced | exported]


def test_every_public_function_and_class_has_a_caller():
    # a public name only tests call is a second name for a computation the
    # package reaches another way
    package = Path(spdcfilm.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert _unreferenced(trees) == []


def test_unreferenced_scan_sees_calls_attributes_and_exports():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse("def exported(): pass\ndef called(): pass\ndef by_attribute(): pass\n"
                          "def _private(): pass\nclass Orphan: pass\ndef orphan(): pass\n"),
        "b.py": ast.parse("from . import a\nfrom .a import called\n"
                          "called()\na.by_attribute()\n"),
    }
    assert _unreferenced(trees) == [("a.py", "Orphan"), ("a.py", "orphan")]
