"""Every public top-level function and class of the package is used, and
every name a package module imports is used in it.

A public name that no module, test or demo refers to is dead API: it is
either gated by a test or deleted.  Only references in code count; a name
that is merely mentioned in a docstring or a comment is still unused.  No
package module catches every exception.
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


def _imported_names(tree):
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == [], f"imports used nowhere in their module: {unused}"


def test_no_catch_all_handlers():
    # a handler for every exception turns a program fault into a
    # plausible-looking error: catch the package's own errors by name
    broad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            if any(t is None or (isinstance(t, ast.Name) and t.id in
                                 ("Exception", "BaseException"))
                   for t in caught):
                broad.append(f"{path.stem}:{node.lineno}")
    assert broad == [], f"catch-all except clauses: {broad}"
