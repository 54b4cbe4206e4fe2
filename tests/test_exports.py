import importlib

import pytest


@pytest.mark.parametrize("module", ["grids", "manybody", "indicators", "effective", "scattering",
                                    "config", "harness", "checks", "cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"becmix.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"becmix.{module}.__all__ names undefined {missing}"
