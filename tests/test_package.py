import importlib
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_finds_what_it_patches(monkeypatch):
    # bench/tracer.py wraps package attributes by name at run time (mle.fit,
    # mle.nelder_mead, mle.InvalidStart, FitResult.converged among them); a
    # name the package drops fails here rather than in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer_module = importlib.import_module("tracer")
    from tailfit import mle

    fit, nelder_mead = mle.fit, mle.nelder_mead
    tracer = tracer_module.Tracer()
    with tracer_module.patched(tracer_module.instrument(tracer)):
        assert mle.fit is not fit and mle.nelder_mead is not nelder_mead
        mle.fit("pareto", [2e5, 3e5], 1e5)
    assert (mle.fit, mle.nelder_mead) == (fit, nelder_mead)
    assert tracer.names == ["mle.fit"]
    assert tracer.data == {0: {"converged": True}}
