"""The package namespace exports exactly the names its modules export,
and the names the benchmark's tracer wraps exist where it looks them up."""

import importlib
import importlib.util
import inspect
from pathlib import Path

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


def test_every_traced_layer_resolves_by_module_and_attribute():
    # perfbench/spans.py wraps each LAYERS entry by name and skips a
    # missing one with a note, so a renamed function would read 0 s;
    # ``assemble_mixed`` and ``prolong_rt0`` are gone from the program
    # but not yet from LAYERS, and neither solve integrates f any more
    # (both read f's data through ``marking``, whose ``mu2_elements``
    # is traced), but LAYERS still looks ``integrate_many`` up in them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = set()
    for _, modules, attr in spans.LAYERS:
        owner_name, _, fn_name = attr.rpartition(".")
        for mod_name in modules.split():
            module = importlib.import_module(f"sepfem.{mod_name}")
            owner = getattr(module, owner_name, None) if owner_name else module
            if not callable(getattr(owner, fn_name, None)):
                missing.add(f"{mod_name}.{attr}")
    assert missing == {
        "mixed_fem.assemble_mixed",
        "edges.prolong_rt0",
        "mixed_fem.prolong_rt0",
        "mixed_fem.integrate_many",
        "ls_fem.integrate_many",
    }
