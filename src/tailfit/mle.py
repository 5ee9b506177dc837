"""Maximum-likelihood fitting for the five severity families.

Pareto and lognormal have closed forms.  The other three are fitted by
iteration:
- Weibull: Newton on the profile-likelihood equation g(a) = 0 in the shape,
  which is strictly increasing, from Menon's start and safeguarded by
  bisection inside the bracket [1e-3, 1e3].
- Log-logistic: modified Newton (`optimizer.newton_rows`) on the
  log-likelihood in (ln a, ln s), with the score and Hessian from the
  family's `FAMILY_TABLE` entry.
- GB2: Nelder-Mead on the penalized negative log-likelihood, from three
  starts (plain / data scaled up 5% / scaled down 5%), keeping the converged
  run with the lowest nll.  It moves to the Newton engine in a later change.

`fit_rows` fits many samples of one size at once.  The iterations of all rows
advance in lockstep, and the likelihood is evaluated for a block of rows at a
time, its sums taken row-wise along each sample.  Every row gets exactly the
result a fit of that sample alone gets; `fit` is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import FAMILY_TABLE, SeverityModel, in_support, log_likelihood
# `nelder_mead` (the one-row optimizer) is not called here; the benchmark's
# tracer (bench/tracer.py) looks it up under this name.
from .optimizer import InvalidStart, nelder_mead, nelder_mead_rows, newton_rows  # noqa: F401
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
    "fit_rows",
    "BLOCK_ELEMENTS",
]

PENALTY = 1e10

# Elements (rows x sample size) per block of likelihood evaluations, and per
# batch of samples that the bootstrap hands to `fit_rows`.  It bounds the
# memory a batch adds at any n: n = 100 fits 163 rows at once, n = 2500 six,
# and a sample larger than the block is fitted on its own.
BLOCK_ELEMENTS = 1 << 14

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


def _each(xs: np.ndarray, fn) -> list:
    """fn(row) for every row; a row whose fn raises FitError or InvalidStart
    gets that exception as its outcome."""
    outcomes = []
    for x in xs:
        try:
            outcomes.append(fn(x))
        except (FitError, InvalidStart) as exc:
            outcomes.append(exc)
    return outcomes


def _prepared(outcomes: list) -> list[int]:
    """The rows whose preparation did not raise."""
    return [i for i, o in enumerate(outcomes) if not isinstance(o, Exception)]


def _blocks(fn, rows: np.ndarray, n: int, *cols: np.ndarray):
    """fn(rows, *cols) over consecutive blocks of at most BLOCK_ELEMENTS
    elements (at least one row each), concatenated: an array, or a tuple of
    arrays if fn returns one."""
    step = max(1, BLOCK_ELEMENTS // n)
    if rows.size <= step:
        return fn(rows, *cols)
    parts = [fn(rows[i:i + step], *(c[i:i + step] for c in cols))
             for i in range(0, rows.size, step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log per element (numpy's vector log may differ in the last ulp)."""
    return np.array([math.log(v) for v in x.tolist()])


def _fit_pareto_one(xs, T: float) -> FitResult:
    if xs.size == 0 or not np.all(in_support("pareto", xs, T)):
        raise DegenerateSample(f"pareto needs data >= T={T}")
    n = xs.size
    s = float(np.sum(np.log(xs / T)))
    if s <= 0.0:
        raise DegenerateSample("all observations at the threshold; shape is infinite")
    alpha = n / s
    model = SeverityModel("pareto", (alpha,), T)
    return FitResult(model, -log_likelihood(model, xs), True, n)


def _fit_lognormal_one(xs, T: float) -> FitResult:
    y = _shifted(xs, T)
    if y.size < 2:
        raise DegenerateSample("lognormal fit needs n >= 2")
    ly = np.log(y)
    # exact: the rounded mean leaves a constant sample a spread of ~1e-15
    if np.ptp(ly) == 0.0:
        raise DegenerateSample("zero variance in log data")
    mu = float(np.mean(ly))
    sigma = float(np.sqrt(np.mean((ly - mu) ** 2)))  # divisor n: the MLE, not n-1
    model = SeverityModel("lognormal", (mu, sigma), T)
    return FitResult(model, -log_likelihood(model, xs), True, y.size)


def _pareto_rows(xs: np.ndarray, T: float) -> list:
    return _each(xs, lambda x: _fit_pareto_one(x, T))


def _lognormal_rows(xs: np.ndarray, T: float) -> list:
    return _each(xs, lambda x: _fit_lognormal_one(x, T))


def _weibull_profile(a: np.ndarray, c: np.ndarray) -> tuple:
    """The profile-likelihood equation in the shape and its derivative,
        g(a)  = sum y^a c / sum y^a - 1/a,
        g'(a) = sum y^a c^2 / sum y^a - (sum y^a c / sum y^a)^2 + 1/a^2 > 0,
    per row: a (k,), c (k, n) the centred logs ln y - mean(ln y)."""
    e = a[:, None] * c
    e -= np.max(e, axis=1, keepdims=True)
    np.exp(e, out=e)
    s0 = np.sum(e, axis=1)
    e *= c
    m1 = np.sum(e, axis=1) / s0
    e *= c
    m2 = np.sum(e, axis=1) / s0
    return m1 - 1.0 / a, m2 - m1 * m1 + 1.0 / (a * a)


def _weibull_roots(c: np.ndarray):
    """The profile root of every row by Newton in lockstep, from Menon's
    a0 = pi / (sqrt(6) sd(ln y)), kept inside a bracket that each evaluation
    narrows: a step that leaves it bisects instead.  A row whose g does not
    change sign on [1e-3, 1e3] has no root there.  Returns (shapes, bracketed)."""
    k, n = c.shape

    def profile(rows, a):
        return _blocks(lambda r, a_: _weibull_profile(a_, c[r]), rows, n, a)

    every = np.arange(k)
    lo, hi = np.full(k, 1e-3), np.full(k, 1e3)
    bracketed = (profile(every, lo)[0] < 0.0) & (profile(every, hi)[0] >= 0.0)
    a = hi.copy()
    rows = np.nonzero(bracketed)[0]
    a[rows] = np.clip(math.pi / np.sqrt(6.0 * np.mean(c[rows] ** 2, axis=1)), lo[rows], hi[rows])
    for _ in range(100):
        if not rows.size:
            break
        g, dg = profile(rows, a[rows])
        below = g < 0.0
        lo[rows[below]] = a[rows[below]]
        hi[rows[~below]] = a[rows[~below]]
        step = g / dg
        new = a[rows] - step
        done = np.abs(step) <= 1e-12 * np.maximum(a[rows], 1.0)
        outside = ~done & ~((new > lo[rows]) & (new < hi[rows]))
        new[outside] = 0.5 * (lo[rows] + hi[rows])[outside]
        a[rows] = new
        rows = rows[~done]
    return a, bracketed


def _weibull_scale(a: np.ndarray, c: np.ndarray, mean_ly: np.ndarray) -> tuple:
    """b = ((1/n) sum y^a)^(1/a) per row, in log space."""
    w = a[:, None] * c
    m = np.max(w, axis=1)
    w -= m[:, None]
    np.exp(w, out=w)
    return np.exp(mean_ly + (m + np.log(np.mean(w, axis=1))) / a)


def _weibull_rows(xs: np.ndarray, T: float) -> list:
    def prepare(x):
        y = _shifted(x, T)
        if y.size < 2 or np.all(y == y[0]):
            raise DegenerateSample("weibull fit needs n >= 2 distinct observations")
        return np.log(y)

    outcomes = _each(xs, prepare)
    ok = _prepared(outcomes)
    if not ok:
        return outcomes
    ly = np.array([outcomes[i] for i in ok])
    mean_ly = np.mean(ly, axis=1)
    c = ly - mean_ly[:, None]
    shapes, bracketed = _weibull_roots(c)
    n = ly.shape[1]
    scales = _blocks(lambda r, a: _weibull_scale(a, c[r], mean_ly[r]), np.arange(len(ok)), n,
                     shapes)
    for j, i in enumerate(ok):
        if not bracketed[j]:
            outcomes[i] = NoConvergence("weibull profile root not bracketed in [1e-3, 1e3]")
            continue
        model = SeverityModel("weibull", (shapes[j], scales[j]), T)
        warnings = {WEIBULL_INCONSISTENT} if shapes[j] <= 1.0 else set()
        outcomes[i] = FitResult(model, -log_likelihood(model, xs[i]), True, n, warnings)
    return outcomes


def _newton_objective(family: str, ly: np.ndarray, sly: np.ndarray):
    """The negative log-likelihood of data row `rows[i]` at log-parameters
    `lt[i]`, with its gradient and Hessian, from the family's `loglik_rows`."""
    loglik = FAMILY_TABLE[family].loglik_rows
    n = ly.shape[1]

    def objective(rows, lt):
        ll, score, hess = _blocks(lambda r, t: loglik(t, ly[r], sly[r]), rows, n, lt)
        return -ll, -score, -hess

    return objective


def loglogistic_init(y: np.ndarray) -> tuple[float, float]:
    """s from the sample median, a from the top order statistic."""
    s0 = float(np.median(y))
    n = y.size
    ratio = float(np.max(y)) / s0
    if ratio <= 1.0:
        raise InvalidStart("max(y) must exceed median(y)")
    a0 = math.log(n - 1) / math.log(ratio)
    return a0, s0


def _loglogistic_rows(xs: np.ndarray, T: float) -> list:
    def prepare(x):
        y = _shifted(x, T)
        if y.size < 3:
            raise DegenerateSample("log-logistic fit needs n >= 3")
        a0, s0 = loglogistic_init(y)
        if not (math.isfinite(a0) and a0 > 0.0):
            raise InvalidStart(f"log-logistic initial shape {a0} is unusable")
        ly = np.log(y)
        return ly, float(np.sum(ly)), (math.log(a0), math.log(s0))

    outcomes = _each(xs, prepare)
    ok = _prepared(outcomes)
    if not ok:
        return outcomes
    ly = np.array([outcomes[i][0] for i in ok])
    sly = np.array([outcomes[i][1] for i in ok])
    x0 = np.array([outcomes[i][2] for i in ok])
    res = newton_rows(_newton_objective("loglogistic", ly, sly), x0)
    params = np.exp(res.argmin)
    for j, i in enumerate(ok):
        fmin = float(res.fmin[j])
        if not res.valid[j]:
            outcomes[i] = InvalidStart(f"log-likelihood is {-fmin} at start point {params[j]}")
        elif not (np.all(np.isfinite(params[j]) & (params[j] > 0.0)) and math.isfinite(fmin)):
            outcomes[i] = NoConvergence("log-logistic optimizer left the feasible region")
        else:
            model = SeverityModel("loglogistic", tuple(params[j]), T)
            outcomes[i] = FitResult(model, fmin, bool(res.converged[j]), ly.shape[1],
                                    start_points_tried=1)
    return outcomes


def _gb2_nll(ly: np.ndarray, sly: np.ndarray):
    """The penalized nll of data row `rows[i]` at `theta[i]` = (a, b, p, q)."""
    n = ly.shape[1]

    def sums(rows, a, lb):
        t = ly[rows]
        t -= lb[:, None]
        t *= a[:, None]
        return np.sum(np.logaddexp(0.0, t, out=t), axis=1)

    def nll(rows, theta):
        out = np.full(rows.size, PENALTY)
        ok = np.nonzero(~np.any(theta <= 0.0, axis=1))[0]
        a, b, p, q = theta[ok].T
        lb = _logs(b)
        lbeta = np.array([log_beta(u, v) for u, v in zip(p.tolist(), q.tolist())])
        total = (n * _logs(a) + (a * p - 1.0) * (sly[rows[ok]] - n * lb) - n * lb
                 - n * lbeta - (p + q) * _blocks(sums, rows[ok], n, a, lb))
        out[ok] = -total
        return out

    return nll


def gb2_init(y: np.ndarray) -> np.ndarray:
    """Start point for the GB2 optimizer: the log-logistic initializer embedded
    at p = q = 1.  Scale-equivariant in b by construction."""
    a0, s0 = loglogistic_init(y)
    return np.array([a0, s0, 1.0, 1.0])


def _gb2_rows(xs: np.ndarray, T: float) -> list:
    def prepare(x):
        y = _shifted(x, T)
        if y.size < 8:
            raise DegenerateSample("gb2 fit needs n >= 8")
        starts = []
        for scale in (1.0, 1.05, 0.95):
            try:
                starts.append(gb2_init(y * scale))
            except InvalidStart:
                starts.append(None)
        ly = np.log(y)
        return ly, float(np.sum(ly)), starts

    outcomes = _each(xs, prepare)
    ok = _prepared(outcomes)
    # one Nelder-Mead run per (row, usable start), all in lockstep
    runs = [(j, x0) for j, i in enumerate(ok) for x0 in outcomes[i][2] if x0 is not None]
    if runs:
        owner = np.array([j for j, _ in runs])
        nll = _gb2_nll(np.array([outcomes[i][0] for i in ok]),
                       np.array([outcomes[i][1] for i in ok]))
        res = nelder_mead_rows(lambda r, theta: nll(owner[r], theta), [x0 for _, x0 in runs])
    run = 0
    for i in ok:
        ly, _, starts = outcomes[i]
        results = []
        for x0 in starts:
            if x0 is None:
                continue
            fmin = float(res.fmin[run])
            if (res.valid[run] and res.converged[run] and math.isfinite(fmin)
                    and np.all(res.argmin[run] > 0.0)):
                results.append((fmin, res.argmin[run]))
            run += 1
        if not results:
            outcomes[i] = NoConvergence("all three gb2 starts failed")
            continue
        best = min(results, key=lambda r: r[0])
        warnings = set()
        if len(results) < 3 or max(r[0] for r in results) - best[0] > 1e-6 * max(1.0, abs(best[0])):
            warnings.add(LOCAL_MINIMUM_RISK)
        model = SeverityModel("gb2", tuple(best[1]), T)
        outcomes[i] = FitResult(model, best[0], True, ly.size, warnings, start_points_tried=3)
    return outcomes


_FITTERS = {
    "pareto": _pareto_rows,
    "weibull": _weibull_rows,
    "lognormal": _lognormal_rows,
    "loglogistic": _loglogistic_rows,
    "gb2": _gb2_rows,
}


def fit_rows(family: str, xs, T: float) -> list:
    """Fit `family` above T to every row of `xs` (shape (R, n)).  Entry i is
    row i's FitResult, or the FitError or InvalidStart its fit raised: exactly
    what `fit` of that row alone returns or raises."""
    if family not in _FITTERS:
        raise ValueError(f"unknown family {family!r}")
    return _FITTERS[family](np.asarray(xs, dtype=float), T)


def fit(family: str, xs, T: float) -> FitResult:
    """Fit one sample: the one-row case of `fit_rows`."""
    outcome = fit_rows(family, np.reshape(np.asarray(xs, dtype=float), (1, -1)), T)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_pareto(xs, T: float) -> FitResult:
    return fit("pareto", xs, T)


def fit_weibull(xs, T: float) -> FitResult:
    return fit("weibull", xs, T)


def fit_lognormal(xs, T: float) -> FitResult:
    return fit("lognormal", xs, T)


def fit_loglogistic(xs, T: float) -> FitResult:
    return fit("loglogistic", xs, T)


def fit_gb2(xs, T: float) -> FitResult:
    return fit("gb2", xs, T)
