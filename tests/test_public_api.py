"""Nothing in the package is there only for its tests, and no module
imports what it does not use.

Every public module-level function and class of src/spiketrim must be
referenced by name (a load, an attribute or an import, never a docstring)
from some package module other than selftest.py and __init__.py. The oracle
checks that selftest.py defines are exempt: its CHECKS table reaches them.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spiketrim"
NOT_REFERENCES = ("selftest.py", "__init__.py")


def _names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_is_used_by_the_package():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name not in NOT_REFERENCES:
            used |= _names_used(tree)
    unused = [f"{name}:{node.name}"
              for name, tree in trees.items() if name != "selftest.py"
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, f"public names no package module uses: {unused}"


def test_every_import_is_used_by_its_module():
    # a deletion that leaves an import behind keeps the deleted code's
    # dependency alive; __init__.py imports only to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in loaded]
    assert not unused, f"imported but unused: {unused}"
