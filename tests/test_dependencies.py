"""The runtime needs numpy alone, and the tests pytest and hypothesis besides.

Every module under src/, tests/ and bench/ is parsed, not imported, and each
absolute import must name the standard library, numpy, the package itself or
a module of the importing file's own directory.  A test that imports a
package CI does not install (scipy, networkx, ...) fails here first.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EVERYWHERE = set(sys.stdlib_module_names) | {"numpy", "gapsampler"}
TEST_ONLY = {"pytest", "hypothesis"}
DIRS = {"src": ROOT / "src" / "gapsampler", "tests": ROOT / "tests", "bench": ROOT / "bench"}


def imported_roots(path):
    """(line, top-level name) of each absolute import in the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("name", sorted(DIRS))
def test_imports_stay_within_the_declared_dependencies(name):
    here = DIRS[name]
    modules = sorted(here.glob("*.py"))
    assert modules
    allowed = EVERYWHERE | {p.stem for p in modules} | (TEST_ONLY if name == "tests" else set())
    stray = [f"{p.relative_to(ROOT)}:{line}: {root}"
             for p in modules for line, root in imported_roots(p) if root not in allowed]
    assert stray == []
