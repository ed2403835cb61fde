"""Source hygiene, read from the syntax trees of ``src/marketsched`` alone:
every name a module imports is used in it, and every module-level
``_private`` name is used somewhere in the package. A deletion that leaves
an import or a helper behind fails here."""

import ast
from pathlib import Path

import pytest

import marketsched

SOURCES = sorted(Path(marketsched.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def used_names(tree):
    """The names a tree reads: bare names, and attributes by their name."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def exported(tree):
    """The names a module lists in ``__all__``."""
    return {name.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "__all__"
            for name in node.value.elts}


@pytest.mark.parametrize("module", list(TREES))
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - used_names(tree) - exported(tree)) == []


def test_every_private_module_name_is_used():
    defined = {}
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            defined.update((name, module) for name in names if name.startswith("_")
                           and not name.startswith("__"))
    used = set().union(*map(used_names, TREES.values()))
    used |= {alias.name for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used) == []
