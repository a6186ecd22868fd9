import importlib
import pkgutil

import pytest

import regenjump

MODULES = [regenjump] + [
    importlib.import_module(f"regenjump.{info.name}")
    for info in pkgutil.iter_modules(regenjump.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_exist(module):
    # a deleted name must leave its module's export list too
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"
