"""Every public top-level function and class of the package is used.

A public name that no module, test or demo refers to is dead API: it is
either gated by a test or deleted.  Only references in code count; a name
that is merely mentioned in a docstring or a comment is still unused.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hetcontour"
SEARCHED = ("src", "tests", "demos")


def _public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_referenced():
    referenced = set()
    for folder in SEARCHED:
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= _referenced_names(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _public_definitions(ast.parse(path.read_text()))
              if name not in referenced]
    assert unused == [], f"public names referenced nowhere: {unused}"
