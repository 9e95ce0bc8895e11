"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself."""

import ast
import pathlib
import sys

import irrfactors

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "irrfactors"}


def _imported(path: pathlib.Path):
    """The top-level names of the absolute imports in a source file, at any depth."""
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(pathlib.Path(irrfactors.__file__).parent.glob("*.py"))
    assert len(sources) >= 12
    outside = sorted(f"{path.name}: {name}" for path in sources for name in _imported(path)
                     if name not in ALLOWED)
    assert outside == []
