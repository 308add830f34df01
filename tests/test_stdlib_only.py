"""The runtime stays pure standard library: every absolute import of the
package names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nofmux"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    outside = sorted({name for name in _absolute_imports(path)
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert not outside, f"{path.name} imports {outside}"
