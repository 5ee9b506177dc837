"""In-memory span tracer for the benchmark's traced runs.

A span is one call across a layer boundary: name, tag, parent span, start and
end.  Spans stay in memory and are written out once, when the run ends.  The
tracer only wraps attributes of the imported package at run time; the package
source is never changed.  A layer's self time is its span's duration minus
the time its direct child spans cover (calls are sequential, so children
never overlap).
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans kept column-wise in flat arrays: hundreds of thousands of spans
    then add no objects for the garbage collector to scan."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.data: dict[int, dict] = {}  # per-span facts, e.g. optimizer results
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, tag: str = "") -> int:
        i = len(self.names)
        self.names.append(name)
        self.tags.append(tag)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str = ""):
        i = self.open(name, tag)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, fn, name: str, tag=None, facts=None):
        """`fn` with a span around every call; `tag(*args)` labels the span.
        An exception that passes through is kept in `data` as `raised` (its
        class name), and `facts(result)` adds facts about a returned result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name, tag(*args) if tag else "")
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.data[i] = {"raised": type(exc).__name__}
                raise
            finally:
                self.close(i)
            if facts:
                self.data[i] = facts(result)
            return result
        return traced

    # -- derived views -----------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for d, p in zip(dur, self.parents):
            if p >= 0:
                own[p] -= d
        return own

    def contexts(self, ctx_names: set[str]) -> tuple[list[str], list[str]]:
        """Per span: the tag of its nearest ancestor-or-self named in
        `ctx_names` (the cell it belongs to), and the name of its root span."""
        ctx, root = [], []
        for name, tag, p in zip(self.names, self.tags, self.parents):
            ctx.append(tag if name in ctx_names else (ctx[p] if p >= 0 else ""))
            root.append(root[p] if p >= 0 else name)
        return ctx, root

    def root_wall(self) -> float:
        return sum(d for d, p in zip(self.durations(), self.parents) if p < 0)

    def write(self, path: Path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "tag", "parent", "start_s", "end_s"])
            for i, row in enumerate(zip(self.names, self.tags, self.parents,
                                        self.starts, self.ends)):
                w.writerow([i, *row[:3], f"{row[3] - t0:.9f}", f"{row[4] - t0:.9f}"])


@contextmanager
def patched(targets):
    """Temporarily replace attributes: `targets` is [(owner, attr, new)], where
    owner is a module or class.  The original raw attribute is restored."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _first(*args):
    return str(args[0])


def _cell(bm, *_):
    return f"{bm.family}.n{bm.n}"


def _model_n(model, n, *_):
    return f"{model.family}.n{n}"


def _converged(result):
    return {"converged": bool(result.converged)}


# Layer boundaries: (module, attribute, span name, tag).  Each attribute is
# the name through which the caller looks the function up, so the wrapper
# sits exactly where one module calls into another.
BOUNDARIES = [
    ("tailfit.cli", "read_losses", "cli.read_losses", None),
    ("tailfit.cli", "generate_losses", "generate.generate_losses", None),
    ("tailfit.cli", "true_model_from_losses", "bootstrap.true_model_from_losses", _first),
    ("tailfit.cli", "run_bootstrap", "bootstrap.cell", _model_n),
    ("tailfit.cli", "normality_suite", "normality.normality_suite", _cell),
    ("tailfit.cli", "ci_error_table", "ci_analysis.ci_error_table", None),
    ("tailfit.cli", "overlay", "density.overlay", None),
    ("tailfit.bootstrap", "replication_rng", "bootstrap.replication_rng", None),
    ("tailfit.bootstrap", "sample", "distributions.sample", None),
    ("tailfit.mle", "fit", "mle.fit", _first),
    ("tailfit.normality", "mardia", "normality.mardia", None),
    ("tailfit.normality", "anderson_darling_normal", "normality.anderson_darling", None),
    ("tailfit.normality", "std_normal_cdf", "special_functions.std_normal_cdf", None),
    ("tailfit.generate", "std_normal_cdf", "special_functions.std_normal_cdf", None),
    ("tailfit.generate", "std_normal_quantile", "special_functions.std_normal_quantile", None),
    ("tailfit.ci_analysis", "std_normal_quantile", "special_functions.std_normal_quantile", None),
    ("tailfit.ci_analysis", "asymptotic_covariance", "fisher.asymptotic_covariance", None),
    ("tailfit.density", "asymptotic_covariance", "fisher.asymptotic_covariance", None),
    ("tailfit.density", "kde", "density.kde", None),
]
# Facts kept from a boundary's result: whether a fit converged.
RESULT_FACTS = {"mle.fit": _converged}


def _traced_nelder_mead(tracer: Tracer, nelder_mead, invalid_start):
    """Nelder-Mead with a span per run, a child span per objective
    evaluation, and the run's outcome kept in `tracer.data`."""
    def traced(objective, x0, *args, **kwargs):
        i = tracer.open("optimizer.nelder_mead")
        facts = {"evals": 0}
        tracer.data[i] = facts

        def counted(theta):
            facts["evals"] += 1
            j = tracer.open("mle.nll")
            try:
                return objective(theta)
            finally:
                tracer.close(j)

        try:
            res = nelder_mead(counted, x0, *args, **kwargs)
        except invalid_start:
            facts["invalid_start"] = True
            raise
        finally:
            tracer.close(i)
        facts.update(iterations=res.iterations, converged=res.converged, fmin=res.fmin,
                     positive=bool((res.argmin > 0.0).all()))
        return res
    return traced


def instrument(tracer: Tracer):
    """The patch list that routes every boundary in BOUNDARIES, the optimizer
    as `mle` imports it, and the CLI's matrix reads and writes through
    `tracer`."""
    targets = []
    for module, attr, name, tag in BOUNDARIES:
        owner = importlib.import_module(module)
        wrapped = tracer.wrap(getattr(owner, attr), name, tag, RESULT_FACTS.get(name))
        targets.append((owner, attr, wrapped))
    mle = importlib.import_module("tailfit.mle")
    targets.append((mle, "nelder_mead",
                    _traced_nelder_mead(tracer, mle.nelder_mead, mle.InvalidStart)))
    bm_cls = importlib.import_module("tailfit.bootstrap").BootstrapMatrix
    targets.append((bm_cls, "read", tracer.wrap(bm_cls.read, "cli.read_matrix")))
    targets.append((bm_cls, "write", tracer.wrap(bm_cls.write, "cli.write_matrix")))
    return targets
