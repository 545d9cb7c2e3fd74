"""Dead-code checks over the package source, in place of a linter: no module
imports a name it never uses, every private module-level name is referenced
somewhere in the package, and so is every module-level name of the private
modules `_plan` and `_tables`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homrf"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _referenced(node):
    # names a node reads: bare names, attribute names and names imported from a module
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _defined(node):
    # names a module-level statement defines
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [sub.id for t in targets if t for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def _unreferenced(wanted):
    # module-level names for which wanted(module, node, name) holds that no
    # other module-level statement of the package reads
    defined = []
    referenced = set()
    for module, tree in _modules().items():
        for node in tree.body:
            own = _defined(node)
            defined += [(module, name) for name in own if wanted(module, node, name)]
            # a definition's references to itself do not keep it alive
            referenced.update(ref for ref in _referenced(node) if ref not in own)
    return [f"{module}: {name}" for module, name in defined if name not in referenced]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


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
    assert _unreferenced(lambda m, node, name: isinstance(node, ast.FunctionDef) and _private(name)) == []


def test_private_classes_and_assignments_are_referenced():
    assert _unreferenced(lambda m, node, name: not isinstance(node, ast.FunctionDef) and _private(name)) == []


def test_every_name_of_a_private_module_is_referenced():
    assert _unreferenced(lambda m, node, name: m in ("_plan.py", "_tables.py")) == []
