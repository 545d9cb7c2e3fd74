"""Dead-code checks over the package source, in place of a linter: no module
imports a name it never uses, and every private module-level function is
referenced somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homrf"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(node):
    # names a node reads: bare names, attribute names and names imported from a module
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports the public names
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_private_functions_are_referenced():
    defined = []
    referenced = set()
    for name, tree in _modules().items():
        for node in tree.body:
            own = None
            if isinstance(node, ast.FunctionDef):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((name, own))
            # a function's references to itself do not keep it alive
            referenced.update(ref for ref in _referenced(node) if ref != own)
    assert [f"{name}: {fn}" for name, fn in defined if fn not in referenced] == []
