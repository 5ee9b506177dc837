"""Shared fixtures: the study's true models and disk-cached bootstrap runs,
and the oracles that code in `tailfit` is checked against (one replication
fitted alone, the Monte-Carlo score information, the scalar psi and psi', the
one-sample Newton starts).

The heavyweight bootstrap matrices (m = 2000) are computed once and cached
under tests/.bootstrap_cache keyed by (family, params, T, n, m, seed); reruns
of the suite reuse them.  The cache is tracked in git as the evidence the
acceptance criteria read.  Cache entries are full BootstrapMatrix round trips.

Each entry is also keyed on a fingerprint of the code's behaviour for its
model and sample size: a hash of the class and row of each of the entry's
first replications.
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
import math
from pathlib import Path

import numpy as np
import pytest

from tailfit import SeverityModel, run_bootstrap
from tailfit.bootstrap import BootstrapMatrix, _run_chunk
from tailfit.distributions import log_pdf, sample
from tailfit.fisher import InfoMatrix
from tailfit.optimizer import InvalidStart

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
    """A hash of the `mle.OUTCOMES` class and the row (parameters, or None
    for a dropped replication) of each of the first replications of `model`
    at size n: it changes with any fitted bit, drop, class or sampled value
    among them, and not with an edit that changes none."""
    records = _run_chunk((model, n, STUDY_SEED, 0, _PROBE_REPS))
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


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
        _, params = fit_replication(model, bm.n, bm.seed, rep)
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


def fit_replication(model: SeverityModel, n: int, seed: int, rep: int):
    """Replication `rep` alone: its class, and its parameters or None if it
    is dropped."""
    return _run_chunk((model, n, seed, rep, rep + 1))[0]


def mc_score_information(model: SeverityModel, draws: int, rng: np.random.Generator) -> InfoMatrix:
    """The independent Monte-Carlo oracle of the analytic information:
    E[score score^T] over `draws` samples, with central-difference scores
    (step 1e-5 * max(1, |theta_j|) per coordinate)."""
    xs = sample(model, draws, rng)
    theta = np.asarray(model.params)
    k = theta.size
    scores = np.empty((draws, k))
    for j in range(k):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up = theta.copy()
        up[j] += h
        dn = theta.copy()
        dn[j] -= h
        lp_up = log_pdf(model.replace_params(up), xs)
        lp_dn = log_pdf(model.replace_params(dn), xs)
        scores[:, j] = (lp_up - lp_dn) / (2.0 * h)
    info = scores.T @ scores / draws
    return InfoMatrix(0.5 * (info + info.T))


# psi and psi' of one value: the scalar form of
# `special_functions.beta_polygamma_rows`, kept as its bit-for-bit oracle.


def digamma(x: float) -> float:
    """psi(x) for x > 0, via upward recurrence to x >= 6 plus asymptotic series."""
    result = 0.0
    while x < 6.0:
        result -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    return result + math.log(x) - 0.5 / x - w * (1.0 / 12.0 - w * (1.0 / 120.0 - w * (
        1.0 / 252.0 - w * (1.0 / 240.0 - w * (1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))))


def trigamma(x: float) -> float:
    """psi'(x) for x > 0, via upward recurrence to x >= 6 plus asymptotic series."""
    result = 0.0
    while x < 6.0:
        result += 1.0 / (x * x)
        x += 1.0
    w = 1.0 / (x * x)
    return result + 1.0 / x + 0.5 * w + (1.0 / 6.0 - w * (1.0 / 30.0 - w * (1.0 / 42.0 - w * (
        1.0 / 30.0 - w * (5.0 / 66.0 - w * (691.0 / 2730.0 - w * 7.0 / 6.0)))))) / (x * x * x)


# The one-sample Newton start that `mle._log_starts` computes for all rows at
# once, kept as its oracle.


def loglogistic_init(y: np.ndarray) -> tuple[float, float]:
    """s from the sample median, a from the top order statistic."""
    s0 = float(np.median(y))
    n = y.size
    ratio = float(np.max(y)) / s0
    if ratio <= 1.0:
        raise InvalidStart("max(y) must exceed median(y)")
    a0 = math.log(n - 1) / math.log(ratio)
    return a0, s0


def gb2_init(y: np.ndarray) -> np.ndarray:
    """The log-logistic start embedded at p = q = 1."""
    a0, s0 = loglogistic_init(y)
    return np.array([a0, s0, 1.0, 1.0])


def log_start(family: str, init, y: np.ndarray) -> list[float]:
    """init(y) in log-parameters, or InvalidStart if it is unusable."""
    x0 = init(y)
    if not all(math.isfinite(v) and v > 0.0 for v in x0):
        raise InvalidStart(f"{family} start point {tuple(map(float, x0))} is unusable")
    return [math.log(v) for v in x0]
