"""Every name a module exports must resolve."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import oscbessel

MODULES = ["oscbessel"] + [f"oscbessel.{m.name}" for m
                           in pkgutil.iter_modules(oscbessel.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_init_imports_neither_cli_nor_criteria():
    # The command line and the acceptance checks are not the library:
    # importing oscbessel must not load them or pay for their import.
    tree = ast.parse(pathlib.Path(oscbessel.__file__).read_text())
    names = {name.split(".")[-1] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or "",
                          *(alias.name for alias in node.names)]}
    assert names.isdisjoint({"cli", "criteria"})
