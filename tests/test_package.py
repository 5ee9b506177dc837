import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
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


# numpy functions that import numpy.ma on first call, and so cost every
# process that calls one about 1.2 MB of resident memory
_LOADS_NUMPY_MA = {"quantile", "median", "percentile", "nanquantile", "nanmedian",
                   "nanpercentile", "unique"}


def test_no_numpy_call_loads_numpy_ma():
    # special_functions.quantiles and .median give these functions' bits
    # without numpy.ma; a scan of the source also covers the branches that
    # test_one_worker_stages_never_load_the_process_pool does not run
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "tailfit").glob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy") \
                    and (node.attr in _LOADS_NUMPY_MA or node.attr == "ma"):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}: import {alias.name}"
                          for alias in node.names if alias.name.startswith("numpy.ma")]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found += [f"{path.name}:{node.lineno}: from {node.module} import {alias.name}"
                          for alias in node.names
                          if f"{node.module}.{alias.name}".startswith("numpy.ma")
                          or node.module == "numpy" and alias.name in _LOADS_NUMPY_MA]
    assert found == []


def test_one_worker_stages_never_load_the_process_pool(tmp_path):
    # bootstrap imports ProcessPoolExecutor only for a multi-worker run, so
    # no stage of a one-worker study pays for multiprocessing and its
    # dependencies; test_bootstrap_deterministic_across_threads runs the pool.
    # numpy loads numpy.fft on first use, and no stage uses it: the binned
    # kde convolves without it, which keeps its pages out of every stage.
    # numpy.ma loads with the first np.quantile or np.median, and no stage
    # calls them; loglogistic runs the Newton starts' median, Mardia's test
    # and a two-column overlay
    script = textwrap.dedent("""
        import sys
        from tailfit.cli import main

        open("study.cfg", "w").write(
            "seed = 777\\nfamilies = pareto, loglogistic\\nsample_sizes = 100\\n"
            "replications = 100\\ninput = out/losses.csv\\nout = out\\n")
        assert main(["generate", "--out", "out", "--seed", "777", "--n", "20000"]) == 0
        for stage in ("fit", "bootstrap", "normality", "cierror", "overlays"):
            assert main([stage, "--config", "study.cfg"]) == 0, stage
        loaded = {"multiprocessing", "concurrent.futures", "numpy.fft",
                  "numpy.ma"} & set(sys.modules)
        assert not loaded, sorted(loaded)
    """)
    src = str(Path(tailfit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run_meta_overlays.json").exists()


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
        # a failed fit is kept under the class name that bench/layers.py reads
        with pytest.raises(mle.DegenerateSample):
            mle.fit("pareto", [1e5, 1e5], 1e5)
    assert (mle.fit, mle.nelder_mead) == (fit, nelder_mead)
    assert tracer.names == ["mle.fit", "mle.fit"]
    assert tracer.data == {0: {"converged": True}, 1: {"raised": "DegenerateSample"}}


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


def test_benchmark_tracer_sees_every_ci_error_cell(monkeypatch, tmp_path):
    # cierror calls ci_error_table once per cell, through the name the
    # tracer's ci_analysis.ci_error_table boundary patches, so that span
    # times every cell
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer_module = importlib.import_module("tracer")
    from tailfit.bootstrap import BootstrapMatrix
    from tailfit.cli import main

    rng = np.random.default_rng(5)
    out = tmp_path / "out"
    out.mkdir()
    for family, params in (("pareto", (1.11,)), ("lognormal", (11.3, 1.8))):
        for n in (100, 200):
            rows = rng.normal(params, np.multiply(params, 0.05), (150, len(params)))
            BootstrapMatrix(family, params, 1e5, n, 150, 150, rows,
                            5).write(out / f"boot_{family}_n{n}")
    cfg = tmp_path / "study.cfg"
    cfg.write_text("families = pareto,lognormal\nsample_sizes = 100,200\n"
                   f"replications = 150\nout = {out}\n")
    tracer = tracer_module.Tracer()
    with tracer_module.patched(tracer_module.instrument(tracer)):
        assert main(["cierror", "--config", str(cfg)]) == 0
    assert tracer.names.count("ci_analysis.ci_error_table") == 4
