import importlib
import pkgutil

import pytest

import sosci

_MODULES = ["sosci"] + [f"sosci.{info.name}" for info in pkgutil.iter_modules(sosci.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from sosci import *", namespace)
    assert set(sosci.__all__) <= set(namespace)
