import importlib
import pkgutil

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
