"""Exported names resolve and agree, so a deletion cannot leave a stale
export behind."""

import importlib
import pkgutil
import types

import pytest

import ipfc

MODULES = [f"ipfc.{m.name}" for m in pkgutil.iter_modules(ipfc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_module_exports():
    # the package re-exports only what its defining module lists in __all__
    stale = []
    for attr, value in vars(ipfc).items():
        if attr.startswith("_") or isinstance(value, types.ModuleType):
            continue
        module = importlib.import_module(value.__module__)
        if attr not in getattr(module, "__all__", [attr]):
            stale.append(f"{value.__module__}.{attr}")
    assert stale == []
