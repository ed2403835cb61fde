"""Source hygiene, read from syntax trees: every name a module of
``src/marketsched`` imports is used in it, every module-level ``_private``
name is used somewhere in the package, and every module-level public
UPPER_CASE constant is read somewhere in the package, ``tests/`` or
``perfbench/``. A deletion that leaves an import, a helper or a constant
behind fails here. And every exception class the
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
REPO = Path(__file__).resolve().parent.parent


def defined_names(tree):
    """The names a module's top-level statements define: its functions,
    classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


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
    defined = {name: module for module, tree in TREES.items() for name in defined_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    used = set().union(*map(used_names, TREES.values()))
    used |= {alias.name for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in used) == []


def test_every_public_constant_is_read():
    # an import alone is no read: a constant only re-exported is stale too
    defined = {name: module for module, tree in TREES.items() for name in defined_names(tree)
               if name.isupper() and not name.startswith("_")}
    readers = [*TREES.values(), *(ast.parse(path.read_text(), str(path))
                                  for folder in ("tests", "perfbench")
                                  for path in sorted((REPO / folder).glob("*.py")))]
    read = set().union(*map(used_names, readers))
    assert sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in read) == []


# each exception class the package defines, by name, with the arguments of
# one instance of it
ERRORS = {
    "ChainLineageError": ("chain 3 lost its seller",),
    "CliError": ("unknown scenario",),
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
