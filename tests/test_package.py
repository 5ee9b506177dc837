import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
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


def test_runtime_imports_are_stdlib_or_numpy():
    # runtime dependencies stay at numpy only, though scipy, mpmath and
    # hypothesis may be installed where the tests run
    allowed = sys.stdlib_module_names | {"numpy", "tailfit"}
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "tailfit").glob("*.py"))
    assert len(paths) == len(MODULES) + 1  # and __init__.py
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["tailfit" if node.level else node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


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


def test_benchmark_tracer_sees_the_overlay_kde(monkeypatch):
    # overlay computes its density through the public `kde`, so the tracer's
    # density.kde boundary times every overlay
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer_module = importlib.import_module("tracer")
    from tailfit import density
    from tailfit.bootstrap import BootstrapMatrix

    rows = np.random.default_rng(5).normal(1.11, 0.1, size=(200, 1))
    bm = BootstrapMatrix("pareto", (1.11,), 1e5, 100, 200, 200, rows, 5)
    tracer = tracer_module.Tracer()
    with tracer_module.patched(tracer_module.instrument(tracer)):
        density.overlay(bm, 0)
    assert tracer.names.count("density.kde") == 1
