import importlib
import pkgutil

import pytest

import tailfit

MODULES = sorted(m.name for m in pkgutil.iter_modules(tailfit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"tailfit.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from tailfit import *", namespace)
    assert set(tailfit.__all__) <= set(namespace)
