import importlib
import pkgutil
import types

import pytest

import hypergraph_spectra

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(hypergraph_spectra.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_exported_at_the_root(name):
    module = importlib.import_module(f"hypergraph_spectra.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(hypergraph_spectra, attr)]
    assert not missing


def test_the_root_exports_exactly_the_public_names_of_the_modules():
    modules = [importlib.import_module(f"hypergraph_spectra.{name}") for name in MODULES]
    listed = set().union(*(getattr(module, "__all__", ()) for module in modules))
    exported = {
        attr
        for attr, value in vars(hypergraph_spectra).items()
        if not attr.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == listed
