"""Shared fixtures: the study's true models and disk-cached bootstrap runs.

The heavyweight bootstrap matrices (m = 2000) are computed once and cached
under tests/.bootstrap_cache keyed by (family, params, T, n, m, seed); reruns
of the suite reuse them.  The cache is tracked in git as the evidence the
acceptance criteria read.  Cache entries are full BootstrapMatrix round trips,
and every hit recomputes its first few surviving replications, so a cache
that the current code would not reproduce fails loudly instead of being read.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tailfit import SeverityModel, run_bootstrap
from tailfit.bootstrap import BootstrapMatrix, _fit_replication

STUDY_SEED = 20260823
STUDY_M = 2000
THRESHOLD = 1e5

# true parameters of the reference study (fitted to the uom1-like profile)
TRUE_MODELS = {
    "pareto": SeverityModel("pareto", (1.11,), THRESHOLD),
    "weibull": SeverityModel("weibull", (0.56, 212303.18), THRESHOLD),
    "lognormal": SeverityModel("lognormal", (11.3, 1.8), THRESHOLD),
    "loglogistic": SeverityModel("loglogistic", (1.0, 84000.0), THRESHOLD),
    "gb2": SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), THRESHOLD),
}

_CACHE_DIR = Path(__file__).parent / ".bootstrap_cache"
_SPOT_CHECK_ROWS = 3


def _spot_check(bm: BootstrapMatrix, model: SeverityModel, base: Path) -> None:
    """Refit the first surviving replications and demand the cached rows
    bit for bit."""
    want = min(_SPOT_CHECK_ROWS, bm.m_converged)
    fresh = []
    rep = 0
    while len(fresh) < want and rep < bm.m_requested:
        params = _fit_replication(model, bm.n, bm.seed, rep)
        if params is not None:
            fresh.append(params)
        rep += 1
    refit = np.array(fresh, dtype=float).reshape(-1, bm.rows.shape[1])
    if not np.array_equal(refit, bm.rows[:want]):
        pytest.fail(f"stale bootstrap cache {base.name}: the current code refits its first "
                    f"rows as {refit.tolist()}, the cache holds {bm.rows[:want].tolist()}",
                    pytrace=False)


def cached_bootstrap(model: SeverityModel, n: int, m: int = STUDY_M,
                     seed: int = STUDY_SEED) -> BootstrapMatrix:
    _CACHE_DIR.mkdir(exist_ok=True)
    tag = "_".join(repr(p) for p in model.params)
    base = _CACHE_DIR / f"{model.family}_{tag}_T{model.threshold!r}_n{n}_m{m}_s{seed}"
    if BootstrapMatrix.files(base)[0].exists():
        bm = BootstrapMatrix.read(base)
        _spot_check(bm, model, base)
        return bm
    bm = run_bootstrap(model, n, m, seed)
    bm.write(base)
    return bm


@pytest.fixture(scope="session")
def study_matrices():
    """The desk-scale study: every family at n in {100, 2500}, plus the
    lognormal at n = 1000 for the kurtosis trend."""
    bms = {}
    for family, model in TRUE_MODELS.items():
        sizes = (100, 1000, 2500) if family == "lognormal" else (100, 2500)
        for n in sizes:
            bms[(family, n)] = cached_bootstrap(model, n)
    return bms
