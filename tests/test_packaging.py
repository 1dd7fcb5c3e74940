"""The package has no runtime dependencies: ``pyproject.toml`` declares
none, and its modules import only the standard library and the package
itself."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "nanowords"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_declares_no_dependencies():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


def _imported_roots(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports anywhere;
    a relative import is the package itself."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(PACKAGE if node.level else node.module.partition(".")[0])
    return roots


def test_modules_import_only_the_standard_library():
    paths = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    assert paths
    for path in paths:
        outside = _imported_roots(path) - set(sys.stdlib_module_names) - {PACKAGE}
        assert not outside, (path.name, outside)
