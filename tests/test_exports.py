"""Every name a module exports must resolve."""

import importlib
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
