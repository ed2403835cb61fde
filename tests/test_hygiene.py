"""Source hygiene. Read from the syntax trees of ``src/marketsched`` alone:
every name a module imports is used in it, and every module-level
``_private`` name is used somewhere in the package. A deletion that leaves
an import or a helper behind fails here. And every exception class the
package defines survives ``pickle``, as a sweep's worker pool hands errors
back: a class whose ``__init__`` takes other arguments than its ``args``
would otherwise fail to unpickle, and the pool waits for it forever."""

import ast
import importlib
import inspect
import pickle
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


# each exception class the package defines, by name, with the arguments of
# one instance of it
ERRORS = {
    "ChainLineageError": ("chain 3 lost its seller",),
    "CliError": ("unknown scenario", 3),
    "ConfigError": ("num_cores must be at least 1",),
    "InfeasibleArchitectureError": ("full", 3_570_125, 100_000),
    "NonFiniteLossError": ("non-finite update of parameter set 2",),
}

DEFINED_ERRORS = sorted(
    (cls for path in SOURCES
     for _, cls in inspect.getmembers(importlib.import_module(f"marketsched.{path.stem}"),
                                      inspect.isclass)
     if issubclass(cls, BaseException) and cls.__module__ == f"marketsched.{path.stem}"),
    key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", DEFINED_ERRORS, ids=lambda cls: cls.__name__)
def test_every_exception_survives_pickle(cls):
    assert cls.__name__ in ERRORS, f"add {cls.__name__} to ERRORS"
    error = cls(*ERRORS[cls.__name__])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
