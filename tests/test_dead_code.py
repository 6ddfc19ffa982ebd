"""Every top-level function and class and every non-dunder method of the
package has a reference somewhere in the project outside its own definition.

A reference is a name, an attribute, an import alias, or a string constant
made of dotted identifiers (the bench tracer names the functions it wraps
in strings).  A member that shares its name with a used member elsewhere
passes unnoticed; such duplicates are pruned by hand.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgelab"
SEARCHED = ("src", "tests", "demos", "bench")


def definitions(tree):
    """(name, first line, last line) of the members the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.lineno, member.end_lineno


def referenced_names(tree):
    """(identifier, line) for every reference in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                for part in parts:
                    yield part, node.lineno


def unreferenced_members():
    references = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in referenced_names(ast.parse(path.read_text())):
                references[name].append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last in definitions(ast.parse(path.read_text())):
            name = qualname.rsplit(".", 1)[-1]
            if not any(
                where != path or not first <= line <= last
                for where, line in references[name]
            ):
                unused.append(f"{path.name}:{qualname}")
    return unused


def test_every_member_has_a_reference():
    assert unreferenced_members() == []
