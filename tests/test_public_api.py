"""The package's top level is the library API that README documents."""

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
