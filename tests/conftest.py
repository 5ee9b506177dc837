"""Shared fixtures: the study's true models and bootstrap cells, and the
oracles that code in `tailfit` is checked against (one replication fitted
alone, the Monte-Carlo score information, the scalar psi and psi', the
one-sample Newton starts).

The study's bootstrap matrices (m = 2000) are computed once per test session
by the current code, so every acceptance criterion reads what the code in the
tree produces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tailfit import SeverityModel, run_bootstrap
from tailfit.bootstrap import _run_chunk
from tailfit.distributions import log_pdf, sample
from tailfit.fisher import InfoMatrix
from tailfit.mle import OUTCOMES
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

# the desk-scale study: every family at n in {100, 2500}, plus the lognormal at
# n = 1000 for the kurtosis trend
STUDY_CELLS = [(family, n) for family in TRUE_MODELS
               for n in ((100, 1000, 2500) if family == "lognormal" else (100, 2500))]


@pytest.fixture(scope="session")
def study_matrices():
    """The desk-scale study's m = 2000 cells, keyed by (family, n)."""
    return {(family, n): run_bootstrap(TRUE_MODELS[family], n, STUDY_M, STUDY_SEED)
            for family, n in STUDY_CELLS}


def replications(chunk) -> list:
    """A `_run_chunk` result, its class and parameter columns, as one
    (class, parameters or None if dropped) per replication."""
    classes, params = chunk
    return [(OUTCOMES[c], tuple(p) if OUTCOMES[c] == "interior" else None)
            for c, p in zip(classes.tolist(), params.tolist())]


def fit_replication(model: SeverityModel, n: int, seed: int, rep: int):
    """Replication `rep` alone: its class, and its parameters or None if it
    is dropped."""
    return replications(_run_chunk((model, n, seed, rep, rep + 1)))[0]


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
