"""Dead-code check: every top-level function and class of the package is
named somewhere outside its own definition and the package's export list."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nofmux"


def _names_by_statement(tree):
    """For each top-level statement, the identifiers it names in code:
    names, attributes, imports and the words of string literals (the
    benchmark's tracer names what it patches in strings).  Docstrings and
    comments name nothing."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    for stmt in tree.body:
        words = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings):
                words.update(re.findall(r"\w+", node.value))
        yield stmt, words


def test_every_top_level_name_is_used():
    statements = []  # (defined in the package, statement, its words)
    for path in sorted({*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
                        *ROOT.glob("bench/**/*.py")}):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        statements += [(path.parent == PACKAGE, stmt, words)
                       for stmt, words in _names_by_statement(tree)]
    defined = {stmt.name for in_package, stmt, _ in statements
               if in_package and isinstance(stmt, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef,
                                                   ast.ClassDef))}
    used = set()
    for _, stmt, words in statements:
        used |= words - {getattr(stmt, "name", None)}
    unused = sorted(defined - used)
    assert unused == [], f"named nowhere outside its definition: {unused}"
