"""The package imports, and every module's export list names real objects.

A deletion that leaves a stale name in `__all__` fails here rather than in
a user's `from probfpc.<module> import *`.
"""

import importlib
import importlib.util
import pkgutil

import pytest

# found without importing the package, so a failing import fails one test
# below instead of the collection of this file
MODULES = sorted(m.name for m in pkgutil.iter_modules(
    importlib.util.find_spec("probfpc").submodule_search_locations))


def test_package_imports():
    assert importlib.import_module("probfpc").__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module("probfpc." + name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, "probfpc.%s.__all__ names missing objects: %s" % (name, missing)
