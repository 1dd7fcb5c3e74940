"""The package has no runtime dependencies: ``pyproject.toml`` declares
none, and its modules import only the standard library and the package
itself.  Its internal functions take the search limits as one value, and
the CLI reads only the census module's public names."""

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


def test_internals_take_limits_as_one_value():
    # public functions keep both keyword arguments and build one
    # ``moves.Limits``; no private function takes the loose pair
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not {"max_members", "max_steps"} <= names, (path.name, node.name)


def test_cli_reads_no_census_private():
    # a helper both modules need lives in the module that owns it
    path = ROOT / "src" / PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    names, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, PACKAGE):
            names.update(a.asname or a.name for a in node.names if a.name == "census")
        elif isinstance(node, ast.ImportFrom) and node.module in ("census", f"{PACKAGE}.census"):
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert names
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in names:
            private += [node.attr] if node.attr.startswith("_") else []
    assert private == []
