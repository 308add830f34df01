"""Dead-code check: every top-level function and class of the package, and
every method and property of its classes other than dunders, is named
somewhere outside its own definition and the package's export list."""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nofmux"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _units(tree, in_package):
    """Yield (name, member, identifiers named in code) for each top-level
    statement, with member None; a package class is split into its
    non-dunder methods, each with its own name as member, and the rest of
    it.  Code names names, attributes, imports and the words of string
    literals (the benchmark's tracer names what it patches in strings).
    Docstrings and comments name nothing."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, *_DEFS))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}

    def words(nodes):
        found = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and id(node) not in docstrings):
                found.update(re.findall(r"\w+", node.value))
        return found

    for stmt in tree.body:
        name = getattr(stmt, "name", None)
        members = [node for node in getattr(stmt, "body", ())
                   if isinstance(stmt, ast.ClassDef) and in_package
                   and isinstance(node, _DEFS)
                   and not node.name.startswith("__")]
        for member in members:
            yield name, member.name, words([member])
        yield name, None, words([node for node in ast.iter_child_nodes(stmt)
                                 if node not in members])


@functools.lru_cache(maxsize=None)
def _names():
    """(top-level names, member names, used names) of the package."""
    top, members, used = set(), set(), set()
    for path in sorted({*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
                        *ROOT.glob("bench/**/*.py")}):
        if path == PACKAGE / "__init__.py":
            continue
        in_package = path.parent == PACKAGE
        tree = ast.parse(path.read_text(), str(path))
        for name, member, words in _units(tree, in_package):
            if in_package and member is not None:
                members.add(member)
            elif in_package and name is not None:
                top.add(name)
            used |= words - {name, member}
    return top, members, used


def test_every_top_level_name_is_used():
    top, _, used = _names()
    unused = sorted(top - used)
    assert unused == [], f"named nowhere outside its definition: {unused}"


def test_every_method_and_property_is_used():
    _, members, used = _names()
    unused = sorted(members - used)
    assert unused == [], f"named nowhere outside its definition: {unused}"
