"""The package namespace exports exactly the names its modules export."""

import importlib
import inspect

import sepfem

# the modules whose ``__all__`` the package re-exports
MODULES = ("axioms", "driver", "edges", "ls_fem", "marking", "mesh", "mixed_fem", "quadrature")


def test_package_all_is_the_union_of_the_module_exports():
    modules = [importlib.import_module(f"sepfem.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(sepfem.__all__) == sorted(names + ["__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(sepfem, name) is getattr(module, name)
    # nothing public reaches the package namespace past the export list
    public = {
        name
        for name, value in vars(sepfem).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(sepfem.__all__) - {"__version__"}


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from sepfem import *", namespace)
    assert set(sepfem.__all__) <= set(namespace)
