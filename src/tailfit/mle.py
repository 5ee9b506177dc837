"""Maximum-likelihood fitting for the five severity families.

Pareto and lognormal have closed forms.  The other three are fitted by
iteration:
- Weibull: Newton on the profile-likelihood equation g(a) = 0 in the shape,
  which is strictly increasing, from Menon's start and safeguarded by
  bisection inside the bracket [1e-3, 1e3].
- Log-logistic and GB2: modified Newton (`optimizer.newton_rows`) on the
  log-likelihood in log-parameters, (ln a, ln s) and (ln a, ln b, ln p, ln q),
  with the score and Hessian from the family's `FAMILY_TABLE` entry, from one
  start.  Only a converged run is an estimate.  For GB2 at small n many
  samples have no interior maximum: the likelihood keeps rising toward a
  nested limit of the family.  GB2's escape test names the limit a run
  escapes toward, from its direction in the log-parameters, and stops a
  run that escapes fast; a run that ends escaping ends at NestedLimit, which
  carries the limit.  A run that ends unconverged otherwise, at the
  iteration cap or on a failed line search, ends at NoConvergence.  A
  converged run whose Hessian is not negative definite there carries
  LOCAL_MINIMUM_RISK.

`fit_rows` fits many samples of one size at once, for every family the same
way, into one record of arrays, `FitRows`; `ENDINGS` names every way a fit
ends, with its OUTCOMES class and the FitError that `fit`, the one-row case,
raises.  It checks each row once, from the row's minimum and maximum: too
few values, or a value that is not finite or lies outside the family's
support, ends the row at DegenerateSample.  The rows that pass go to the
family's solver as one array, and everything per row is computed for all
rows at once:
- per batch: the closed forms, the Weibull roots and the Newton starts;
- per Newton objective call: the likelihood algebra of every row the call
  evaluates (ln B, psi, psi', the score and the Hessian);
- per block of at most BLOCK_ELEMENTS values: the passes over the data.
The iterations of all rows advance in lockstep.  Sums run along each row and
logs of per-row values go through libm, so every row gets exactly the result
a fit of that sample alone gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .distributions import FAMILY_TABLE, SeverityModel, in_support, logistic_sums
# `nelder_mead` (the one-run optimizer) is not called here; the benchmark's
# tracer (bench/tracer.py) looks it up under this name.
from .optimizer import FitError, InvalidStart, nelder_mead, newton_rows  # noqa: F401
from .special_functions import libm_log

__all__ = [
    "FitError",
    "InvalidStart",
    "DegenerateSample",
    "NoConvergence",
    "NestedLimit",
    "FitResult",
    "OUTCOMES",
    "ENDINGS",
    "FitRows",
    "WARNING_BITS",
    "WEIBULL_INCONSISTENT",
    "LOCAL_MINIMUM_RISK",
    "fit",
    "fit_rows",
    "BLOCK_ELEMENTS",
]

# Elements (rows x sample size) per block of likelihood evaluations.  It
# bounds the temporaries of every block at any n: n = 100 evaluates 163 rows
# at once, n = 2500 six, and a sample larger than the block on its own.  The
# Newton line search sizes its halving ladders to fill these blocks.
BLOCK_ELEMENTS = 1 << 14

WEIBULL_INCONSISTENT = "WeibullInconsistent"
LOCAL_MINIMUM_RISK = "LocalMinimumRisk"


class DegenerateSample(FitError, ValueError):
    """The sample admits no finite, non-degenerate estimate."""


class NoConvergence(FitError):
    """All numerical attempts failed; the caller discards the estimate."""


class NestedLimit(NoConvergence):
    """The run escaped toward a nested limit of the family, along which the
    likelihood kept rising, so it gives no interior estimate: `limit` names
    the outcome class, such as "boundary_gg"; `params` and `nll` are where
    the run stopped."""

    def __init__(self, limit: str, params: tuple, nll: float, message: str) -> None:
        super().__init__(message)
        self.limit, self.params, self.nll = limit, params, nll


@dataclass
class FitResult:
    model: SeverityModel
    nll: float
    warnings: set = field(default_factory=set)
    # a class constant, not a field: every FitResult is a converged fit (an
    # unconverged run is a NoConvergence), but `cmd_fit` writes the flag to
    # true_params.json and the benchmark's tracer (bench/tracer.py) reads it
    converged = True


# Every class of a fit's outcome: an estimate, a run that escaped toward a
# nested limit, a run that stopped unconverged otherwise, a sample that admits
# no estimate, and a start where the likelihood is not finite
OUTCOMES = ("interior", *FAMILY_TABLE["gb2"].limits, "not_converged", "degenerate",
            "invalid_start")

# The warnings a fit can carry, each its bit of `FitRows.warnings`
WARNING_BITS = {WEIBULL_INCONSISTENT: 1, LOCAL_MINIMUM_RISK: 2}


@dataclass(frozen=True)
class Ending:
    outcome: str               # the OUTCOMES class
    error: type | None = None  # the FitError that `fit` raises, None for an estimate
    message: str = ""          # its message, formatted with the fields `fit` passes


# Every way a fit ends, indexed by `FitRows.ending`
ENDINGS = (
    Ending("interior"),
    Ending("degenerate", DegenerateSample,
           "{family} fit needs at least {min_n} finite values in its support above T={T}"),
    Ending("degenerate", DegenerateSample, "all observations at the threshold; shape is infinite"),
    Ending("degenerate", DegenerateSample, "zero variance in log data"),
    Ending("degenerate", DegenerateSample, "weibull fit needs 2 distinct observations"),
    Ending("not_converged", NoConvergence, "weibull profile root not bracketed in [1e-3, 1e3]"),
    Ending("not_converged", NoConvergence,
           "{family} Newton stopped unconverged after {iterations} steps at {point}"),
    Ending("not_converged", NoConvergence, "{family} optimum {point} is out of range"),
    Ending("invalid_start", InvalidStart, "max(y) must exceed median(y)"),
    Ending("invalid_start", InvalidStart, "{family} start point {point} is unusable"),
    Ending("invalid_start", InvalidStart, "log-likelihood is {ll} at start point {point}"),
    *(Ending(limit, NestedLimit,
             "{family} Newton escaped toward {limit} after {iterations} steps at {point}")
      for limit in FAMILY_TABLE["gb2"].limits),
)
(_ESTIMATE, _ROW_CHECK, _AT_THRESHOLD, _ZERO_LOG_VARIANCE, _WEIBULL_CONSTANT, _NOT_BRACKETED,
 _UNCONVERGED, _OUT_OF_RANGE, _MAX_AT_MEDIAN, _UNUSABLE_START, _NONFINITE_START,
 _ESCAPED_TOWARD) = range(12)  # _ESCAPED_TOWARD + i: toward limit i + 1 of `escape_test`
_CLASS = np.array([OUTCOMES.index(e.outcome) for e in ENDINGS])


@dataclass
class FitRows:
    """What `fit_rows` gives: one entry per row."""
    ending: np.ndarray      # (R,) int: the row's ENDINGS index
    params: np.ndarray      # (R, k): the estimate, a Newton stop or unusable start, or NaN
    nll: np.ndarray         # (R,): Newton's -log-likelihood at params, or NaN
    iterations: np.ndarray  # (R,) int: Newton steps, 0 for other fits
    warnings: np.ndarray    # (R,) int: the WARNING_BITS of the row's warnings

    @property
    def classes(self) -> np.ndarray:
        """Each row's OUTCOMES index."""
        return _CLASS[self.ending]


def _closed_form_rows(ending: np.ndarray, params: np.ndarray, warnings=0) -> FitRows:
    """The record of fits without Newton, with NaN params where they failed."""
    params[ending != _ESTIMATE] = np.nan
    zeros = np.zeros(len(ending), int)
    return FitRows(ending, params, np.full(len(ending), np.nan), zeros, zeros + warnings)


def _block_rows(n: int) -> int:
    """Rows of n values per likelihood block."""
    return max(1, BLOCK_ELEMENTS // n)


def _blocks(fn, rows: np.ndarray, n: int, *cols: np.ndarray):
    """fn(rows, *cols) over consecutive blocks of at most BLOCK_ELEMENTS
    elements (at least one row each), concatenated: an array, or a tuple of
    arrays if fn returns one."""
    step = _block_rows(n)
    if rows.size <= step:
        return fn(rows, *cols)
    parts = [fn(rows[i:i + step], *(c[i:i + step] for c in cols))
             for i in range(0, rows.size, step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _nll_rows(family: str, params: np.ndarray, xs: np.ndarray, T: float) -> list:
    """-log_likelihood of each row xs[i] at params[i]: the family's log_pdf
    with one parameter column per row, summed along the rows."""
    log_pdf = FAMILY_TABLE[family].log_pdf
    return _blocks(lambda r, x, p: -np.sum(log_pdf(x, T, *p.T[:, :, None]), axis=1),
                   np.arange(len(xs)), xs.shape[1], xs, params).tolist()


def _pareto_rows(xs: np.ndarray, T: float) -> FitRows:
    """alpha = n / sum ln(x / T) per row."""
    s = xs / T
    np.log(s, out=s)
    sums = np.sum(s, axis=1)
    with np.errstate(divide="ignore"):  # a sum of 0 is a failed row
        alpha = xs.shape[1] / sums
    return _closed_form_rows(np.where(sums > 0.0, _ESTIMATE, _AT_THRESHOLD), alpha[:, None])


def _lognormal_rows(xs: np.ndarray, T: float) -> FitRows:
    """mu and sigma from the means of ln(x - T) and its squared deviations
    per row (divisor n: the MLE, not n-1)."""
    ly = xs - T
    np.log(ly, out=ly)
    # exact: the rounded mean leaves a constant sample a spread of ~1e-15
    constant = np.ptp(ly, axis=1) == 0.0
    mu = np.mean(ly, axis=1)
    ly -= mu[:, None]
    ly *= ly
    sigma = np.sqrt(np.mean(ly, axis=1))
    return _closed_form_rows(np.where(constant, _ZERO_LOG_VARIANCE, _ESTIMATE),
                             np.stack([mu, sigma], axis=1))


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
    narrows: a step that leaves it bisects instead.  A row with g(1e3) < 0
    has no root in [1e-3, 1e3].  Returns (shapes, bracketed)."""
    k, n = c.shape

    def profile(rows, a):
        return _blocks(lambda r, a_: _weibull_profile(a_, c[r]), rows, n, a)

    lo, hi = np.full(k, 1e-3), np.full(k, 1e3)
    # g(1e-3) < 0 for every finite sample, so only g(1e3) is tested: m1(0) = 0
    # on the centred logs, m1' is a weighted variance of logs spanning
    # R <= ln(DBL_MAX) - ln(5e-324) < 1454.2, so at most R^2/4 (Popoviciu),
    # and m1(1e-3) <= 528.7 < 1/1e-3.
    bracketed = profile(np.arange(k), hi)[0] >= 0.0
    a = hi.copy()
    rows = np.nonzero(bracketed)[0]
    var = _blocks(lambda r: np.mean(c[r] ** 2, axis=1), rows, n)
    a[rows] = np.clip(math.pi / np.sqrt(6.0 * var), lo[rows], hi[rows])
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


def _weibull_rows(xs: np.ndarray, T: float) -> FitRows:
    c = xs - T
    constant = np.ptp(c, axis=1) == 0.0
    np.log(c, out=c)
    mean_ly = np.mean(c, axis=1)
    c -= mean_ly[:, None]  # centred in place: ln y - mean(ln y)
    shapes, bracketed = _weibull_roots(c)
    scales = _blocks(lambda r, a: _weibull_scale(a, c[r], mean_ly[r]), np.arange(len(c)),
                     c.shape[1], shapes)
    ending = np.where(constant, _WEIBULL_CONSTANT,
                      np.where(bracketed, _ESTIMATE, _NOT_BRACKETED))
    return _closed_form_rows(ending, np.stack([shapes, scales], axis=1),
                             (shapes <= 1.0) * WARNING_BITS[WEIBULL_INCONSISTENT])


def _newton_objective(family: str, ly: np.ndarray, sly: np.ndarray):
    """The negative log-likelihood of data row `rows[i]` at log-parameters
    `lt[i]`, with its gradient and Hessian, from the family's `loglik_rows`:
    the pass over the data runs per block of rows, the algebra once per call."""
    loglik = FAMILY_TABLE[family].loglik_rows
    n = ly.shape[1]

    def objective(rows, lt):
        sums = _blocks(lambda r, t: logistic_sums(t, ly[r]), rows, n, lt)
        ll, score, hess = loglik(lt, sums, n, sly[rows])
        return -ll, -score, -hess

    return objective


def _log_starts(family: str, y: np.ndarray) -> tuple:
    """Newton's start for every row of y = x - T, and per row _ESTIMATE or the
    invalid start that rules the row out.  The start is the log-logistic's,
    s0 the sample median and a0 = ln(n - 1) / ln(max(y) / s0) from the top
    order statistic; GB2 embeds it at p = q = 1."""
    k = len(FAMILY_TABLE[family].names)
    s0 = np.median(y, axis=1)
    with np.errstate(over="ignore"):  # an infinite ratio gives a0 = 0, unusable
        ratio = np.max(y, axis=1) / s0
    low = ratio <= 1.0
    a0 = np.full(len(y), np.nan)
    a0[~low] = math.log(y.shape[1] - 1) / libm_log(ratio[~low])
    x0 = np.column_stack([a0, s0, np.ones((len(y), k - 2))])
    usable = np.all(np.isfinite(x0) & (x0 > 0.0), axis=1)
    return x0, np.where(usable, _ESTIMATE, np.where(low, _MAX_AT_MEDIAN, _UNUSABLE_START))


def _newton_family_rows(family: str, xs: np.ndarray, T: float) -> FitRows:
    """Fit a family that `newton_rows` fits in log-parameters."""
    ly = xs - T
    params, ending = _log_starts(family, ly)
    nll = np.full(len(ly), np.nan)
    iterations, warnings = np.zeros(len(ly), int), np.zeros(len(ly), int)
    ok = np.flatnonzero(ending == _ESTIMATE)
    if ok.size:
        np.log(ly, out=ly)
        if ok.size < len(ly):
            ly = ly[ok]
        starts = libm_log(params[ok])
        res = newton_rows(_newton_objective(family, ly, np.sum(ly, axis=1)), starts,
                          block_rows=_block_rows(ly.shape[1]),
                          escape=FAMILY_TABLE[family].escape_test(starts))
        stop = np.exp(res.argmin)
        in_range = np.all(np.isfinite(stop) & (stop > 0.0), axis=1)
        ending[ok] = np.select(
            [~res.valid, res.escaped > 0, ~res.converged, ~in_range],
            [_NONFINITE_START, _ESCAPED_TOWARD - 1 + res.escaped, _UNCONVERGED, _OUT_OF_RANGE],
            _ESTIMATE)
        params[ok], nll[ok], iterations[ok] = stop, res.fmin, res.iterations
        warnings[ok] = ~res.positive_definite * WARNING_BITS[LOCAL_MINIMUM_RISK]
    return FitRows(ending, params, nll, iterations, warnings)


# family -> (the fewest values a sample needs, the solver of rows that passed
# `fit_rows`' check: an (R, n) array in, their FitRows out)
_FITTERS = {
    "pareto": (1, _pareto_rows),
    "weibull": (2, _weibull_rows),
    "lognormal": (2, _lognormal_rows),
    "loglogistic": (3, partial(_newton_family_rows, "loglogistic")),
    "gb2": (8, partial(_newton_family_rows, "gb2")),
}


def fit_rows(family: str, xs, T: float) -> FitRows:
    """Fit `family` above T to every row of `xs` (shape (R, n)).  Row i of
    the record is exactly what a fit of that row alone gives.

    A row ends at the row check (DegenerateSample) unless it has at least
    the family's fewest values, all finite and inside its support; only the
    rows that pass reach the family's solver."""
    if family not in _FITTERS:
        raise ValueError(f"unknown family {family!r}")
    min_n, solve = _FITTERS[family]
    # in C order each row's sums run along its own memory, as in a fit of it alone
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.shape[1] < min_n:
        ok = np.zeros(len(xs), dtype=bool)
    else:
        # a NaN is the min and max of its row, and fails both checks
        ok = in_support(family, np.min(xs, axis=1), T) & np.isfinite(np.max(xs, axis=1))
    if ok.size and ok.all():
        return solve(xs, T)  # the rows themselves: no copy
    k = len(FAMILY_TABLE[family].names)
    rows = _closed_form_rows(np.full(len(xs), _ROW_CHECK), np.empty((len(xs), k)))
    if ok.any():
        for column, values in vars(solve(xs[ok], T)).items():
            getattr(rows, column)[ok] = values
    return rows


def fit(family: str, xs, T: float) -> FitResult:
    """Fit one sample: the one-row case of `fit_rows`, which raises the
    FitError of its ending.  A fit without Newton gets its nll from the
    family's log-density."""
    xs = np.ascontiguousarray(xs, dtype=float).reshape(1, -1)
    rows = fit_rows(family, xs, T)
    ending, point, nll = ENDINGS[rows.ending[0]], tuple(rows.params[0].tolist()), rows.nll[0]
    if ending.error is not None:
        message = ending.message.format(
            family=family, T=T, min_n=_FITTERS[family][0], point=point, ll=-nll,
            iterations=rows.iterations[0], limit=ending.outcome)
        if ending.error is NestedLimit:
            raise NestedLimit(ending.outcome, point, float(nll), message)
        raise ending.error(message)
    nll = _nll_rows(family, rows.params, xs, T)[0] if math.isnan(nll) else float(nll)
    warnings = {w for w, bit in WARNING_BITS.items() if rows.warnings[0] & bit}
    return FitResult(SeverityModel(family, point, T), nll, warnings)
