import importlib
import pkgutil

import pytest

import nonlocalmp

MODULES = sorted(m.name for m in pkgutil.iter_modules(nonlocalmp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nonlocalmp.{name}")
    public = getattr(module, "__all__", ())
    assert [n for n in public if not hasattr(module, n)] == []
