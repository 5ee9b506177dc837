"""Maximum-likelihood fitting for the five severity families.

Pareto and lognormal have closed forms.  Weibull reduces to a monotone
profile-likelihood root in the shape.  Log-logistic and GB2 are fitted by
Nelder-Mead on the penalized negative log-likelihood; GB2 additionally runs
the three-start protocol (plain / data scaled up 5% / scaled down 5%) and
keeps the converged run with the lowest nll.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SeverityModel, in_support, log_likelihood
from .optimizer import InvalidStart, nelder_mead
from .special_functions import log_beta

__all__ = [
    "FitError",
    "DegenerateSample",
    "NoConvergence",
    "FitResult",
    "WEIBULL_INCONSISTENT",
    "LOCAL_MINIMUM_RISK",
    "fit_pareto",
    "fit_lognormal",
    "fit_weibull",
    "fit_loglogistic",
    "fit_gb2",
    "fit",
]

PENALTY = 1e10

WEIBULL_INCONSISTENT = "WeibullInconsistent"
LOCAL_MINIMUM_RISK = "LocalMinimumRisk"


class FitError(Exception):
    pass


class DegenerateSample(FitError, ValueError):
    """The sample admits no finite, non-degenerate estimate."""


class NoConvergence(FitError):
    """All numerical attempts failed; the caller discards the estimate."""


@dataclass
class FitResult:
    model: SeverityModel
    nll: float
    converged: bool
    n: int
    warnings: set = field(default_factory=set)
    start_points_tried: int = 0


def _shifted(xs, T: float) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    y = xs - T
    if xs.size == 0 or np.any(y <= 0.0):
        raise DegenerateSample(f"need data strictly above T={T}")
    return y


def fit_pareto(xs, T: float) -> FitResult:
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or not np.all(in_support("pareto", xs, T)):
        raise DegenerateSample(f"pareto needs data >= T={T}")
    n = xs.size
    s = float(np.sum(np.log(xs / T)))
    if s <= 0.0:
        raise DegenerateSample("all observations at the threshold; shape is infinite")
    alpha = n / s
    model = SeverityModel("pareto", (alpha,), T)
    return FitResult(model, -log_likelihood(model, xs), True, n)


def fit_lognormal(xs, T: float) -> FitResult:
    y = _shifted(xs, T)
    if y.size < 2:
        raise DegenerateSample("lognormal fit needs n >= 2")
    ly = np.log(y)
    mu = float(np.mean(ly))
    sigma = float(np.sqrt(np.mean((ly - mu) ** 2)))  # divisor n: the MLE, not n-1
    if sigma == 0.0:
        raise DegenerateSample("zero variance in log data")
    model = SeverityModel("lognormal", (mu, sigma), T)
    xs = np.asarray(xs, dtype=float)
    return FitResult(model, -log_likelihood(model, xs), True, y.size)


def _weibull_profile(a: float, ly: np.ndarray, mean_ly: float) -> float:
    """g(a) = sum y^a ln y / sum y^a - 1/a - mean(ln y); strictly increasing."""
    w = a * ly
    m = np.max(w)
    e = np.exp(w - m)
    return float(np.sum(e * ly) / np.sum(e)) - 1.0 / a - mean_ly


def fit_weibull(xs, T: float) -> FitResult:
    y = _shifted(xs, T)
    n = y.size
    if n < 2 or np.all(y == y[0]):
        raise DegenerateSample("weibull fit needs n >= 2 distinct observations")
    ly = np.log(y)
    mean_ly = float(np.mean(ly))

    grid = np.geomspace(1e-3, 1e3, 200)
    vals = np.array([_weibull_profile(a, ly, mean_ly) for a in grid])
    idx = np.nonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0]
    if idx.size == 0:
        raise NoConvergence("weibull profile root not bracketed in [1e-3, 1e3]")
    lo, hi = grid[idx[0]], grid[idx[0] + 1]
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if _weibull_profile(mid, ly, mean_ly) < 0.0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)

    # b = ((1/n) sum y^a)^{1/a}, in log space
    w = a * ly
    m = np.max(w)
    b = math.exp((m + math.log(np.mean(np.exp(w - m)))) / a)
    model = SeverityModel("weibull", (a, b), T)
    warnings = {WEIBULL_INCONSISTENT} if a <= 1.0 else set()
    xs = np.asarray(xs, dtype=float)
    return FitResult(model, -log_likelihood(model, xs), True, n, warnings)


def _loglogistic_nll_factory(y: np.ndarray):
    ly = np.log(y)
    sly = float(np.sum(ly))
    n = y.size

    def nll(theta: np.ndarray) -> float:
        a, s = theta
        if a <= 0.0 or s <= 0.0:
            return PENALTY
        t = a * (ly - math.log(s))
        total = n * math.log(a) + float(np.sum(t)) - sly \
            - 2.0 * float(np.sum(np.logaddexp(0.0, t)))
        return -total

    return nll


def loglogistic_init(y: np.ndarray) -> tuple[float, float]:
    """s from the sample median, a from the top order statistic."""
    s0 = float(np.median(y))
    n = y.size
    ratio = float(np.max(y)) / s0
    if ratio <= 1.0:
        raise InvalidStart("max(y) must exceed median(y)")
    a0 = math.log(n - 1) / math.log(ratio)
    return a0, s0


def fit_loglogistic(xs, T: float) -> FitResult:
    y = _shifted(xs, T)
    n = y.size
    if n < 3:
        raise DegenerateSample("log-logistic fit needs n >= 3")
    a0, s0 = loglogistic_init(y)
    if not (math.isfinite(a0) and a0 > 0.0):
        raise InvalidStart(f"log-logistic initial shape {a0} is unusable")
    res = nelder_mead(_loglogistic_nll_factory(y), np.array([a0, s0]))
    a, s = res.argmin
    if not (a > 0.0 and s > 0.0 and math.isfinite(res.fmin)):
        raise NoConvergence("log-logistic optimizer left the feasible region")
    model = SeverityModel("loglogistic", (a, s), T)
    return FitResult(model, res.fmin, res.converged, n, start_points_tried=1)


def _gb2_nll_factory(y: np.ndarray):
    ly = np.log(y)
    sly = float(np.sum(ly))
    n = y.size

    def nll(theta: np.ndarray) -> float:
        a, b, p, q = theta
        if a <= 0.0 or b <= 0.0 or p <= 0.0 or q <= 0.0:
            return PENALTY
        lb = math.log(b)
        t = a * (ly - lb)
        total = (n * math.log(a) + (a * p - 1.0) * (sly - n * lb) - n * lb
                 - n * log_beta(p, q) - (p + q) * float(np.sum(np.logaddexp(0.0, t))))
        return -total

    return nll


def gb2_init(y: np.ndarray) -> np.ndarray:
    """Start point for the GB2 optimizer: the log-logistic initializer embedded
    at p = q = 1.  Scale-equivariant in b by construction."""
    a0, s0 = loglogistic_init(y)
    return np.array([a0, s0, 1.0, 1.0])


def fit_gb2(xs, T: float) -> FitResult:
    y = _shifted(xs, T)
    n = y.size
    if n < 8:
        raise DegenerateSample("gb2 fit needs n >= 8")
    objective = _gb2_nll_factory(y)
    results = []
    for scale in (1.0, 1.05, 0.95):
        try:
            res = nelder_mead(objective, gb2_init(y * scale))
        except InvalidStart:
            continue
        if res.converged and math.isfinite(res.fmin) and np.all(res.argmin > 0.0):
            results.append(res)
    if not results:
        raise NoConvergence("all three gb2 starts failed")
    best = min(results, key=lambda r: r.fmin)
    warnings = set()
    if len(results) < 3 or max(r.fmin for r in results) - best.fmin > 1e-6 * max(1.0, abs(best.fmin)):
        warnings.add(LOCAL_MINIMUM_RISK)
    model = SeverityModel("gb2", tuple(best.argmin), T)
    return FitResult(model, best.fmin, True, n, warnings, start_points_tried=3)


_FITTERS = {
    "pareto": fit_pareto,
    "weibull": fit_weibull,
    "lognormal": fit_lognormal,
    "loglogistic": fit_loglogistic,
    "gb2": fit_gb2,
}


def fit(family: str, xs, T: float) -> FitResult:
    """Dispatch to the family's fitter."""
    if family not in _FITTERS:
        raise ValueError(f"unknown family {family!r}")
    return _FITTERS[family](xs, T)
