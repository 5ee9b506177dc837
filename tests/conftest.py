"""Shared fixtures: the study's true models and disk-cached bootstrap runs.

The heavyweight bootstrap matrices (m = 2000) are computed once and cached
under tests/.bootstrap_cache keyed by (family, params, T, n, m, seed); reruns
of the suite reuse them.  The cache is tracked in git as the evidence the
acceptance criteria read.  Cache entries are full BootstrapMatrix round trips.

Each entry is also keyed on a fingerprint of the code's behaviour for its
model and sample size: a hash of the rows the bootstrap keeps from the
entry's first replications.
`fingerprints.json` in the cache records the fingerprint each entry was
computed under, and an entry whose fingerprint differs from the current
code's is computed again and rewritten.  So a deliberate change of a family's
numerics regenerates that family's entries, while an edit that changes no
fitted bit regenerates nothing.  Every hit also recomputes its first few
surviving replications, so a cache that the current code would not reproduce
fails loudly instead of being read.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tailfit import SeverityModel, run_bootstrap
from tailfit.bootstrap import BootstrapMatrix, _fit_replication, _run_chunk

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
_FINGERPRINTS = _CACHE_DIR / "fingerprints.json"
_SPOT_CHECK_ROWS = 3
# the probe: the first replications of the cell at the study seed (for GB2
# at n = 100 they include replications its fit drops)
_PROBE_REPS = 32


@functools.cache
def behaviour_fingerprint(model: SeverityModel, n: int) -> str:
    """A hash of the rows (parameters, or None for a dropped replication)
    the bootstrap keeps from the first replications of `model` at size n:
    it changes with any fitted bit, drop or sampled value among them, and
    not with an edit that changes none."""
    rows = _run_chunk((model, n, STUDY_SEED, 0, _PROBE_REPS))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _recorded_fingerprints() -> dict:
    return json.loads(_FINGERPRINTS.read_text()) if _FINGERPRINTS.exists() else {}


def _record_fingerprint(name: str, fingerprint: str) -> None:
    recorded = _recorded_fingerprints()
    recorded[name] = fingerprint
    _FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


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
    fingerprint = behaviour_fingerprint(model, n)
    if (BootstrapMatrix.files(base)[0].exists()
            and _recorded_fingerprints().get(base.name) == fingerprint):
        bm = BootstrapMatrix.read(base)
        _spot_check(bm, model, base)
        return bm
    bm = run_bootstrap(model, n, m, seed)
    bm.write(base)
    _record_fingerprint(base.name, fingerprint)
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
