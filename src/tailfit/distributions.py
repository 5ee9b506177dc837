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
    digamma,
    inverse_incomplete_beta,
    log_beta,
    regularized_incomplete_beta,
    std_normal_cdf,
    std_normal_quantile,
    trigamma,
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
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329


class _Family:
    """A FAMILY_TABLE entry.  Formulas take x inside the support or u in
    (0, 1), then T and the parameters; T never enters the information `info`.
    A family that `mle` fits by Newton also defines `loglik_rows`: the
    log-likelihood with its score and Hessian in log-parameters, per row."""

    names: tuple[str, ...]
    positive: tuple[str, ...]  # parameters that must be > 0
    closed = False  # support (T, inf) of the shifted X = T + Y

    def sample(self, n: int, rng: np.random.Generator, T: float, *theta) -> np.ndarray:
        """Draw by inversion."""
        return self.quantile(rng.random(n), T, *theta)


class _Pareto(_Family):
    names = ("shape",)
    positive = names
    closed = True  # support [T, inf) with T as the scale, so T must be > 0

    def log_pdf(self, x, T, alpha):
        return math.log(alpha) + alpha * math.log(T) - (alpha + 1.0) * np.log(x)

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
        t = a * (np.log(x - T) - math.log(b))
        return math.log(a) - math.log(b) + (a - 1.0) / a * t - np.exp(t)

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
        return -ly - math.log(sigma) - _LOG_SQRT_2PI - 0.5 * z * z

    def cdf(self, x, T, mu, sigma):
        z = (np.log(x - T) - mu) / sigma
        return np.array([std_normal_cdf(v) for v in z])

    def quantile(self, u, T, mu, sigma):
        z = np.array([std_normal_quantile(v) for v in u.ravel()]).reshape(u.shape)
        return T + np.exp(mu + sigma * z)

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

    def loglik_rows(self, lt, ly, sly):
        """The log-likelihood, its score and its Hessian in (ln a, ln s) for
        every row: lt (r, 2) log-parameters, ly (r, n) the logs of the
        shifted samples y = x - T, sly (r,) their row sums.

        With t = a (ln y - ln s), w = 1 / (1 + e^-t) and v = w (1 - w):
          l     = n ln a + sum t - sum ln y - 2 sum softplus(t)
          dl/d ln a = n + sum t - 2 sum w t,   dl/d ln s = a (2 sum w - n)
        and the Hessian follows from d t / d ln a = t, d t / d ln s = -a and
        dw/dt = v.  This is GB2's `loglik_rows` at p = q = 1."""
        n = ly.shape[1]
        a = np.exp(lt[:, 0])
        st, ssp, sw, swt, sv, svt, svtt = _logistic_sums(a, lt[:, 1:], ly)
        ll = n * lt[:, 0] + st - sly - 2.0 * ssp
        score = np.stack([n + st - 2.0 * swt, a * (2.0 * sw - n)], axis=1)
        h_aa = st - 2.0 * swt - 2.0 * svtt
        h_as = a * (2.0 * sw - n + 2.0 * svt)
        h_ss = -2.0 * a * a * sv
        hess = np.stack([h_aa, h_as, h_as, h_ss], axis=1).reshape(-1, 2, 2)
        return ll, score, hess


def _logistic_sums(a, lb, ly):
    """The row sums of t, softplus(t), w, w t, v, v t and v t^2, where
    t = a (ln y - ln b), w = 1 / (1 + e^-t) and v = w (1 - w): a (r,) and
    lb (r, 1) per row, ly (r, n).  One pass over the data, in the SIMD forms
    softplus(t) = max(t, 0) + log1p(e^-|t|) and w from e^-|t|, with the
    products in place to hold few arrays at a time.  Sums run along each row,
    so a row's values do not depend on the other rows."""
    t = ly - lb
    t *= a[:, None]
    e = np.exp(-np.abs(t))
    softplus = np.sum(np.maximum(t, 0.0) + np.log1p(e), axis=1)
    r = 1.0 / (1.0 + e)
    w = np.where(t >= 0.0, r, e * r)
    v = e
    v *= r
    v *= r
    st, sw, sv = np.sum(t, axis=1), np.sum(w, axis=1), np.sum(v, axis=1)
    w *= t
    v *= t
    swt, svt = np.sum(w, axis=1), np.sum(v, axis=1)
    v *= t
    return st, softplus, sw, swt, sv, svt, np.sum(v, axis=1)


class _GB2(_Family):
    names = ("shape1", "scale", "shape2", "shape3")
    positive = names

    def log_pdf(self, x, T, a, b, p, q):
        t = a * (np.log(x - T) - math.log(b))
        return (math.log(a) + (p - 1.0 / a) * t - math.log(b)
                - log_beta(p, q) - (p + q) * np.logaddexp(0.0, t))

    def cdf(self, x, T, a, b, p, q):
        z = 1.0 / (1.0 + np.exp(-a * (np.log(x - T) - math.log(b))))
        return np.array([regularized_incomplete_beta(v, p, q) for v in z])

    def quantile(self, u, T, a, b, p, q):
        z = np.array([inverse_incomplete_beta(v, p, q) for v in u.ravel()]).reshape(u.shape)
        return T + b * (z / (1.0 - z)) ** (1.0 / a)

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
        dp, dq = digamma(p), digamma(q)
        dp1, dq1 = digamma(p + 1.0), digamma(q + 1.0)
        tp, tq, tpq = trigamma(p), trigamma(q), trigamma(p + q)
        tp1, tq1 = trigamma(p + 1.0), trigamma(q + 1.0)
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

    def loglik_rows(self, lt, ly, sly):
        """The log-likelihood, its score and its Hessian in
        (ln a, ln b, ln p, ln q) for every row: lt (r, 4) log-parameters,
        ly (r, n) the logs of the shifted samples y = x - T, sly (r,) their
        row sums.

        With t = a (ln y - ln b), w = 1 / (1 + e^-t) and v = w (1 - w):
          l = n ln a + p sum t - sum ln y - n ln B(p, q) - (p + q) sum softplus(t)
          dl/d ln a = n + p sum t - (p + q) sum w t
          dl/d ln b = a ((p + q) sum w - p n)
          dl/d ln p = p (sum t - sum softplus(t) - n (psi(p) - psi(p + q)))
          dl/d ln q = q (-sum softplus(t) - n (psi(q) - psi(p + q)))
        and the Hessian follows from d t / d ln a = t, d t / d ln b = -a and
        dw/dt = v.  ln B, psi and psi' are evaluated once per row."""
        n = ly.shape[1]
        a, p, q = np.exp(lt[:, 0]), np.exp(lt[:, 2]), np.exp(lt[:, 3])
        st, ssp, sw, swt, sv, svt, svtt = _logistic_sums(a, lt[:, 1:2], ly)
        lbeta, dp, dq, dpq, tp, tq, tpq = np.array([
            (log_beta(u, z), digamma(u), digamma(z), digamma(u + z),
             trigamma(u), trigamma(z), trigamma(u + z))
            for u, z in zip(p.tolist(), q.tolist())]).reshape(-1, 7).T
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
    if threshold < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
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
