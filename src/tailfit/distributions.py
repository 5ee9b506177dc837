"""The five severity families behind one interface.

Pareto lives on [T, inf) with the threshold T as its support edge; the other
four families are shifted: X = T + Y with Y from the base family on (0, inf),
so T = 0 recovers the unshifted distribution.

FAMILY_TABLE defines each family once: its parameter names in reporting
order, which must be positive, whether the support includes T, and its
formulas.  The module functions are one table lookup each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import (
    beta_polygamma_rows,
    libm_log,
    log_beta,
    log_inverse_incomplete_beta,
    polygamma_rows,
    regularized_incomplete_beta,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "PARAM_NAMES",
    "SeverityModel",
    "in_support",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "log_likelihood",
    "logistic_sums",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329


class _Family:
    """A FAMILY_TABLE entry.  Formulas take x inside the support or u in
    (0, 1), then T and the parameters; T never enters the information `info`.
    The log-densities of the families that `mle` fits in closed form or by
    Weibull's profile also take parameters as columns, one row each, with
    their logs through libm per element.  A family that `mle` fits by Newton
    also defines `loglik_rows`: the log-likelihood with its score and Hessian
    in log-parameters, per row, from the row sums of `logistic_sums`.  A
    family whose likelihood can rise toward a nested limit also names those
    `limits` and gives Newton an `escape_test`."""

    names: tuple[str, ...]
    positive: tuple[str, ...]  # parameters that must be > 0
    closed = False  # support (T, inf) of the shifted X = T + Y
    limits: tuple[str, ...] = ()

    def escape_test(self, x0):
        """The test that stops Newton runs from the log-parameters x0 once
        they escape toward one of `limits`, or None."""
        return None

    def sample(self, n: int, rng: np.random.Generator, T: float, *theta) -> np.ndarray:
        """Draw by inversion."""
        return self.quantile(rng.random(n), T, *theta)


class _Pareto(_Family):
    names = ("shape",)
    positive = names
    closed = True  # support [T, inf) with T as the scale, so T must be > 0

    def log_pdf(self, x, T, alpha):
        return libm_log(alpha) + alpha * math.log(T) - (alpha + 1.0) * np.log(x)

    def cdf(self, x, T, alpha):
        return -np.expm1(alpha * np.log(T / x))

    def quantile(self, u, T, alpha):
        return T * (1.0 - u) ** (-1.0 / alpha)

    def info(self, alpha):
        return np.array([[1.0 / alpha**2]])


class _Weibull(_Family):
    names = ("shape", "scale")
    positive = names

    def log_pdf(self, x, T, a, b):
        lb = libm_log(b)
        t = a * (np.log(x - T) - lb)
        return libm_log(a) - lb + (a - 1.0) / a * t - np.exp(t)

    def cdf(self, x, T, a, b):
        return -np.expm1(-(((x - T) / b) ** a))

    def quantile(self, u, T, a, b):
        return T + b * (-np.log1p(-u)) ** (1.0 / a)

    def info(self, a, b):
        psi1 = math.pi**2 / 6.0          # psi'(1)
        psi2 = 1.0 - _EULER_GAMMA        # psi(2)
        off = -(1.0 + (-_EULER_GAMMA)) / b   # -(1 + psi(1)) / b
        return np.array([
            [(psi1 + psi2**2) / a**2, off],
            [off, a**2 / b**2],
        ])


class _Lognormal(_Family):
    names = ("meanlog", "sdlog")
    positive = ("sdlog",)

    def log_pdf(self, x, T, mu, sigma):
        ly = np.log(x - T)
        z = (ly - mu) / sigma
        return -ly - libm_log(sigma) - _LOG_SQRT_2PI - 0.5 * z * z

    def cdf(self, x, T, mu, sigma):
        z = (np.log(x - T) - mu) / sigma
        return std_normal_cdf(z)

    def quantile(self, u, T, mu, sigma):
        return T + np.exp(mu + sigma * std_normal_quantile(u))

    def sample(self, n, rng, T, mu, sigma):
        return T + np.exp(mu + sigma * rng.standard_normal(n))

    def info(self, mu, sigma):
        return np.diag([1.0 / sigma**2, 2.0 / sigma**2])


class _LogLogistic(_Family):
    names = ("shape", "scale")
    positive = names

    def log_pdf(self, x, T, a, s):
        ly = np.log(x - T)
        t = a * (ly - math.log(s))
        return math.log(a) + t - ly - 2.0 * np.logaddexp(0.0, t)

    def cdf(self, x, T, a, s):
        # logistic in log-space: 1 / (1 + (y/s)^{-a})
        return 1.0 / (1.0 + np.exp(-a * (np.log(x - T) - math.log(s))))

    def quantile(self, u, T, a, s):
        return T + s * (u / (1.0 - u)) ** (1.0 / a)

    def info(self, a, s):
        return np.diag([(3.0 + math.pi**2) / (9.0 * a**2), (a / s) ** 2 / 3.0])

    def loglik_rows(self, lt, sums, n, sly):
        """The log-likelihood, its score and its Hessian in (ln a, ln s) for
        every row: lt (r, 2) log-parameters, sums the seven row sums of
        `logistic_sums(lt, ly)` over ly (r, n), the logs of the shifted
        samples y = x - T, and sly (r,) the row sums of ly.

        With t = a (ln y - ln s), w = 1 / (1 + e^-t) and v = w (1 - w):
          l     = n ln a + sum t - sum ln y - 2 sum softplus(t)
          dl/d ln a = n + sum t - 2 sum w t,   dl/d ln s = a (2 sum w - n)
        and the Hessian follows from d t / d ln a = t, d t / d ln s = -a and
        dw/dt = v.  This is GB2's `loglik_rows` at p = q = 1."""
        a = np.exp(lt[:, 0])
        st, ssp, sw, swt, sv, svt, svtt = sums
        ll = n * lt[:, 0] + st - sly - 2.0 * ssp
        score = np.stack([n + st - 2.0 * swt, a * (2.0 * sw - n)], axis=1)
        h_aa = st - 2.0 * swt - 2.0 * svtt
        h_as = a * (2.0 * sw - n + 2.0 * svt)
        h_ss = -2.0 * a * a * sv
        hess = np.stack([h_aa, h_as, h_as, h_ss], axis=1).reshape(-1, 2, 2)
        return ll, score, hess


def logistic_sums(lt, ly):
    """The row sums of t, softplus(t), w, w t, v, v t and v t^2, where
    t = a (ln y - ln b), w = 1 / (1 + e^-t) and v = w (1 - w): lt (r, k) the
    log-parameters (ln a, ln b, ...) per row, ly (r, n).  The one pass over
    the data of the Newton families' likelihoods, in the SIMD forms
    softplus(t) = max(t, 0) + log1p(e^-|t|) and w = max(e^-|t|, [t >= 0]) r,
    r = 1 / (1 + e^-|t|) (exact, as e^-|t| <= 1), with the products in place
    to hold few arrays at a time.  Sums run along each row, so a row's
    values do not depend on the other rows."""
    sum_rows = np.add.reduce
    t = ly - lt[:, 1:2]
    t *= np.exp(lt[:, 0])[:, None]
    e = np.exp(-np.abs(t))
    softplus = sum_rows(np.maximum(t, 0.0) + np.log1p(e), axis=1)
    r = 1.0 / (1.0 + e)
    w = np.maximum(e, t >= 0.0)
    w *= r
    v = e
    v *= r
    v *= r
    st, sw, sv = sum_rows(t, axis=1), sum_rows(w, axis=1), sum_rows(v, axis=1)
    w *= t
    v *= t
    swt, svt = sum_rows(w, axis=1), sum_rows(v, axis=1)
    v *= t
    return st, softplus, sw, swt, sv, svt, sum_rows(v, axis=1)


class _GB2Escape:
    """The escape test of GB2 Newton runs, called after every step with the
    runs that took it and their new iterates in (ln a, ln b, ln p, ln q).

    It measures each iterate in z = (ln a, ln(b / b0), ln p, ln q), where b0
    is the run's start scale (`mle` starts at the sample median),
    and keeps each run's last _WINDOW + 1 points, its start included, in an
    array indexed by run: a run's verdict depends only on its own iterates.
    Points not yet taken are NaN, which fails every comparison.

    A run escapes when its radius max|z| exceeds ln 1e3 and has grown at
    each of the last _WINDOW steps.  Its direction of escape is the change
    dz of z over those steps.  The limit is the one whose direction in
    (ln a, ln p, ln q) is nearest to dz's in angle, where b must move as the
    limit says:
      boundary_gg              q -> inf, with b -> inf         (0, 0, 1)
      boundary_igg             p -> inf, with b -> 0           (0, 1, 0)
      boundary_lognormal       a -> 0 with a^2 p, a^2 q fixed  (-1, 2, 2)
      boundary_double_pareto   a -> inf with a p, a q fixed    (1, -1, -1)
    Since 1/Y ~ GB2(a, 1/b, q, p), the two gamma limits are one rule applied
    to ln y and to -ln y.  Returns, per run, the code of its limit (1 + its
    index in `_GB2.limits`; 0 if the run is not escaping toward one) and
    whether to stop it now: it escapes, and its radius grew by more than
    _GROWTH over the window.  A slower escape keeps iterating, since a run
    can pass far out before it converges.

    The test compares floats and booleans only: an int64 comparison would
    page in ~128 KB more of numpy's loops than the fit itself uses."""

    _WINDOW = 5
    _RADIUS = math.log(1e3)
    _GROWTH = 2.0
    # the limits' directions in (ln a, ln p, ln q), unit length, in `_GB2.limits` order
    _DIRECTIONS = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 2.0, 2.0],
                            [1.0, -1.0, -1.0]])
    _DIRECTIONS /= np.sqrt(np.sum(_DIRECTIONS**2, axis=1, keepdims=True))
    _SCALE_SIGN = np.array([1.0, -1.0, 0.0, 0.0])  # the sign d ln b must have, 0 for any

    def __init__(self, x0) -> None:
        x0 = np.array(x0, dtype=float, ndmin=2)
        self.scale0 = x0[:, 1].copy()
        self.trail = np.full((x0.shape[0], self._WINDOW + 1, x0.shape[1]), np.nan)
        self.trail[:, -1] = x0
        self.trail[:, -1, 1] = 0.0

    def __call__(self, rows: np.ndarray, x: np.ndarray) -> tuple:
        z = x.copy()
        z[:, 1] -= self.scale0[rows]
        window = np.concatenate([self.trail[rows, 1:], z[:, None]], axis=1)  # oldest first
        self.trail[rows] = window
        radius = np.max(np.abs(window), axis=2)
        escaping = ((radius[:, -1] > self._RADIUS)
                    & (radius[:, 1:] > radius[:, :-1]).all(axis=1))
        dz = window[:, -1] - window[:, 0]
        d = self._DIRECTIONS
        # dz's projection on each unit direction, largest for the nearest in angle
        projection = dz[:, 0:1] * d[:, 0] + dz[:, 2:3] * d[:, 1] + dz[:, 3:4] * d[:, 2]
        limit = np.argmax(projection, axis=1)
        sign = self._SCALE_SIGN[limit]
        hit = escaping & ((sign == 0.0) | (sign * dz[:, 1] > 0.0))
        return np.where(hit, limit + 1, 0), hit & (radius[:, -1] - radius[:, 0] > self._GROWTH)


class _GB2(_Family):
    names = ("shape1", "scale", "shape2", "shape3")
    positive = names
    limits = ("boundary_gg", "boundary_igg", "boundary_lognormal", "boundary_double_pareto")

    def escape_test(self, x0):
        return _GB2Escape(x0)

    def log_pdf(self, x, T, a, b, p, q):
        t = a * (np.log(x - T) - math.log(b))
        return (math.log(a) + (p - 1.0 / a) * t - math.log(b)
                - log_beta(p, q) - (p + q) * np.logaddexp(0.0, t))

    def cdf(self, x, T, a, b, p, q):
        # I_z(p, q), z = 1 / (1 + e^-t).  Above z = 1/2 z rounds toward 1, so
        # the upper tail is 1 - I_(1-z)(q, p), 1 - z = 1 / (1 + e^t): on both
        # sides the argument w = s / (1 + s), s = e^-|t|, keeps its digits.
        t = a * (np.log(x - T) - math.log(b))
        s = np.exp(-np.abs(t))
        w = s / (1.0 + s)
        return np.array([1.0 - regularized_incomplete_beta(v, q, p) if up
                         else regularized_incomplete_beta(v, p, q)
                         for v, up in zip(w.tolist(), (t > 0.0).tolist())])

    def quantile(self, u, T, a, b, p, q):
        # y = b (z / (1 - z))^(1/a) with I_z(p, q) = u, formed from ln z.
        # Above z = 1/2, that is above u = I_(1/2)(p, q), z rounds toward 1,
        # so the upper tail solves for ln(1 - z), from I_(1-z)(q, p) = 1 - u.
        upper = u > regularized_incomplete_beta(0.5, p, q)
        s = np.array([log_inverse_incomplete_beta(1.0 - ui, q, p) if up
                      else log_inverse_incomplete_beta(ui, p, q)
                      for ui, up in zip(u.ravel().tolist(), upper.ravel().tolist())]
                     ).reshape(u.shape)
        ln_ratio = s - np.log1p(-np.exp(s))  # ln(z / (1 - z)), or its negative
        with np.errstate(over="ignore"):  # a quantile beyond the doubles is inf
            return T + b * np.exp(np.where(upper, -ln_ratio, ln_ratio) / a)

    def sample(self, n, rng, T, a, b, p, q):
        # the Beta-ratio representation: cheaper than inverting I_z in a hot loop
        gp = rng.standard_gamma(p, n)
        gq = rng.standard_gamma(q, n)
        return T + b * (gp / gq) ** (1.0 / a)

    def info(self, a, b, p, q):
        # with w = (y/b)^a / (1 + (y/b)^a) ~ Beta(p, q), the scores are
        #   d/da = (1/a)(1 + R (p - (p+q) w)),  R = ln(w / (1-w))
        #   d/db = (a/b)((p+q) w - p)
        #   d/dp = ln w - psi(p) + psi(p+q),  d/dq = ln(1-w) - psi(q) + psi(p+q)
        # and the entries below are the exact Beta moments of their products.
        # psi and psi' at p + 1 and q + 1 are evaluated there, not by the
        # recurrence from p and q, which need not round the same way.
        (dp, dp1, dq, dq1, _), (tp, tp1, tq, tq1, tpq) = (
            v.tolist() for v in polygamma_rows(np.array([p, p + 1.0, q, q + 1.0, p + q])))
        i11 = (1.0 + p * q / (p + q + 1.0) * (tp1 + tq1 + (dp1 - dq1) ** 2)) / a**2
        i12 = -p * q * (dp1 - dq1) / (b * (p + q + 1.0))
        i13 = (1.0 - q * (dp - dq)) / (a * (p + q))
        i14 = (1.0 + p * (dp - dq)) / (a * (p + q))
        i22 = a**2 * p * q / (b**2 * (p + q + 1.0))
        i23 = a * q / (b * (p + q))
        i24 = -a * p / (b * (p + q))
        i33 = tp - tpq
        i34 = -tpq
        i44 = tq - tpq
        return np.array([
            [i11, i12, i13, i14],
            [i12, i22, i23, i24],
            [i13, i23, i33, i34],
            [i14, i24, i34, i44],
        ])

    def loglik_rows(self, lt, sums, n, sly):
        """The log-likelihood, its score and its Hessian in
        (ln a, ln b, ln p, ln q) for every row: lt (r, 4) log-parameters,
        sums the seven row sums of `logistic_sums(lt, ly)` over ly (r, n),
        the logs of the shifted samples y = x - T, and sly (r,) the row sums
        of ly.

        With t = a (ln y - ln b), w = 1 / (1 + e^-t) and v = w (1 - w):
          l = n ln a + p sum t - sum ln y - n ln B(p, q) - (p + q) sum softplus(t)
          dl/d ln a = n + p sum t - (p + q) sum w t
          dl/d ln b = a ((p + q) sum w - p n)
          dl/d ln p = p (sum t - sum softplus(t) - n (psi(p) - psi(p + q)))
          dl/d ln q = q (-sum softplus(t) - n (psi(q) - psi(p + q)))
        and the Hessian follows from d t / d ln a = t, d t / d ln b = -a and
        dw/dt = v.  ln B, psi and psi' are evaluated once per row."""
        a, p, q = np.exp(lt[:, 0]), np.exp(lt[:, 2]), np.exp(lt[:, 3])
        st, ssp, sw, swt, sv, svt, svtt = sums
        lbeta, dp, dq, dpq, tp, tq, tpq = beta_polygamma_rows(p, q)
        pq = p + q
        ll = n * lt[:, 0] + p * st - sly - n * lbeta - pq * ssp
        g_p = p * (st - ssp - n * (dp - dpq))
        g_q = q * (-ssp - n * (dq - dpq))
        score = np.stack([n + p * st - pq * swt, a * (pq * sw - p * n), g_p, g_q], axis=1)
        h_aa = p * st - pq * (swt + svtt)
        h_ab = a * (pq * (sw + svt) - p * n)
        h_ap = p * (st - swt)
        h_aq = -q * swt
        h_bb = -a * a * pq * sv
        h_bp = a * p * (sw - n)
        h_bq = a * q * sw
        h_pp = g_p - n * p * p * (tp - tpq)
        h_pq = n * p * q * tpq
        h_qq = g_q - n * q * q * (tq - tpq)
        hess = np.stack([h_aa, h_ab, h_ap, h_aq,
                         h_ab, h_bb, h_bp, h_bq,
                         h_ap, h_bp, h_pp, h_pq,
                         h_aq, h_bq, h_pq, h_qq], axis=1).reshape(-1, 4, 4)
        return ll, score, hess


FAMILY_TABLE: dict[str, _Family] = {
    "pareto": _Pareto(), "weibull": _Weibull(), "lognormal": _Lognormal(),
    "loglogistic": _LogLogistic(), "gb2": _GB2(),
}

PARAM_NAMES: dict[str, tuple[str, ...]] = {f: e.names for f, e in FAMILY_TABLE.items()}
FAMILIES = tuple(FAMILY_TABLE)


def in_support(family: str, x, T: float):
    """Whether x lies in the family's support: [T, inf) or (T, inf)."""
    return x >= T if FAMILY_TABLE[family].closed else x > T


def _validate(family: str, params: tuple[float, ...], threshold: float) -> None:
    if family not in FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}")
    entry = FAMILY_TABLE[family]
    if len(params) != len(entry.names):
        raise ValueError(f"{family} expects {len(entry.names)} parameters, got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"{family} parameters must be finite, got {params}")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    if entry.closed and threshold <= 0.0:
        raise ValueError(f"{family} requires threshold > 0")
    for name, p in zip(entry.names, params):
        if name in entry.positive and p <= 0.0:
            raise ValueError(f"{family} {name} must be positive, got {params}")


@dataclass(frozen=True)
class SeverityModel:
    """A distribution family tag, a parameter vector, and the support shift T."""

    family: str
    params: tuple[float, ...]
    threshold: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _validate(self.family, self.params, self.threshold)

    @property
    def param_names(self) -> tuple[str, ...]:
        return PARAM_NAMES[self.family]

    def replace_params(self, params) -> "SeverityModel":
        return SeverityModel(self.family, tuple(params), self.threshold)


def log_pdf(model: SeverityModel, x):
    """Log-density at x (scalar or array); -inf outside support."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    ok = in_support(model.family, x, model.threshold)
    out[ok] = FAMILY_TABLE[model.family].log_pdf(x[ok], model.threshold, *model.params)
    return float(out) if scalar else out


def pdf(model: SeverityModel, x):
    """Density at x; 0 outside support."""
    return np.exp(log_pdf(model, x))


def cdf(model: SeverityModel, x):
    """Distribution function; 0 at and below the support edge."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    ok = x > model.threshold
    out[ok] = FAMILY_TABLE[model.family].cdf(x[ok], model.threshold, *model.params)
    return float(out) if scalar else out


def quantile(model: SeverityModel, u):
    """Inverse CDF; closed forms except GB2 (numeric beta inversion)."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile requires 0 < u < 1")
    out = FAMILY_TABLE[model.family].quantile(u, model.threshold, *model.params)
    return float(out) if scalar else out


def sample(model: SeverityModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws.  The only state touched is the caller's rng."""
    return FAMILY_TABLE[model.family].sample(n, rng, model.threshold, *model.params)


def log_likelihood(model: SeverityModel, xs) -> float:
    """Sum of log_pdf over xs; -inf if any point lies outside the support."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return 0.0
    return float(np.sum(log_pdf(model, xs)))
