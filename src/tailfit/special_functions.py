"""Self-contained special functions.

Every function here is pure.  The normal pdf, cdf and quantile and libm_log
take a float or an array of any shape and return the same;
polygamma_rows and beta_polygamma_rows take 1-D arrays, and polygamma_rows
is the package's one evaluation of psi and psi'; quantiles and median are the
package's order statistics; the others take scalar floats.
Accuracy targets: log-gamma (math.lgamma, called directly) 1e-12 absolute for
moderate arguments, psi and psi' 1e-10 absolute, regularized incomplete beta /
gamma 1e-10, normal cdf 1e-12 and quantile inverse-consistent to 1e-9.

The array functions do their arithmetic with numpy ufuncs, whose + - * / and
sqrt round exactly as Python floats do, but apply erfc, log, log1p and exp
per element through `math`: numpy has no erfc, and its SIMD log and exp need
not round as libm does.  So a value gets the same bits alone or in an array.

quantiles and median equal np.quantile(method="linear") and np.median bit
for bit, by numpy's own partition, lerp and NaN rule, without the np.unique
and np.ma calls that make numpy's versions import numpy.ma: about 1 MB of
resident memory and 9-13 ms in every process that calls them (numpy 2.4,
2 vCPU Xeon).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "log_beta",
    "beta_polygamma_rows",
    "polygamma_rows",
    "libm_log",
    "regularized_incomplete_beta",
    "log_inverse_incomplete_beta",
    "regularized_gamma_upper",
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "quantiles",
    "median",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 500


def log_beta(p: float, q: float) -> float:
    """ln B(p, q) = ln Gamma(p) + ln Gamma(q) - ln Gamma(p + q).

    The single Beta definition used by every caller in the package.
    """
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"log_beta requires p, q > 0, got {p}, {q}")
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def polygamma_rows(x):
    """(psi(x), psi'(x)) for an array x > 0, by the upward recurrence to
    x >= 6 and then the asymptotic series.  The recurrence is masked and log
    is applied through `math`, so each element gets the bits it gets alone."""
    if not (x > 0.0).all():
        raise ValueError("polygamma_rows requires x > 0")
    # where x >= 6 a step adds 0.0, which leaves every value's bits alone
    x = np.array(x, dtype=float)
    psi = np.zeros(x.size)
    tri = np.zeros(x.size)
    # above x ~ 1e154 x^2 overflows to inf, and every term it enters to its limit 0
    with np.errstate(over="ignore"):
        low = x < 6.0
        while low.any():
            psi -= low / x
            tri += low / (x * x)
            x += low
            low = x < 6.0
        # the Bernoulli-number series in w = 1 / x^2:
        #   psi(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^2n)
        #   psi'(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^(2n+1)
        w = 1.0 / (x * x)
        psi = psi + _each(math.log, x) - 0.5 / x - w * (1.0 / 12.0 - w * (
            1.0 / 120.0 - w * (1.0 / 252.0 - w * (1.0 / 240.0 - w * (
                1.0 / 132.0 - w * (691.0 / 32760.0 - w / 12.0))))))
        tri = tri + 1.0 / x + 0.5 * w + (1.0 / 6.0 - w * (1.0 / 30.0 - w * (1.0 / 42.0 - w * (
            1.0 / 30.0 - w * (5.0 / 66.0 - w * (691.0 / 2730.0 - w * 7.0 / 6.0)))))) / (x * x * x)
    return psi, tri


def beta_polygamma_rows(p, q):
    """(ln B(p, q), psi(p), psi(q), psi(p + q), psi'(p), psi'(q), psi'(p + q))
    for arrays p, q > 0: ln B as log_beta forms it, and psi and psi' from one
    `polygamma_rows` call over p, q and p + q together."""
    v = np.concatenate([p, q, p + q])
    psi, tri = polygamma_rows(v)
    lg = _each(math.lgamma, v).reshape(3, -1)
    return (lg[0] + lg[1] - lg[2], *psi.reshape(3, -1), *tri.reshape(3, -1))


def _lentz_step(a: float, b: float, c: float, d: float) -> tuple:
    """One modified Lentz step (Thompson & Barnett 1986) over the term
    a / (b + ...) of a continued fraction: the new c = b + a / c and
    d = 1 / (b + a d), each sum held at least _FPMIN from 0.  The fraction's
    value is then multiplied by c d."""
    d = b + a * d
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = b + a / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    return c, 1.0 / d


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= d * c
        c, d = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h


def regularized_incomplete_beta(x: float, p: float, q: float) -> float:
    """I_x(p, q), with the symmetry switch at x > (p+1)/(p+q+2)."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError(f"regularized_incomplete_beta requires p, q > 0, got {p}, {q}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"regularized_incomplete_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    below, ln_front, cf = _beta_terms(x, math.log(x), p, q)
    front = math.exp(ln_front)
    return front * cf / p if below else 1.0 - front * cf / q


def _beta_terms(x: float, ln_x: float, p: float, q: float) -> tuple:
    """(below, ln f, cf) with f = x^p (1-x)^q / B(p, q): I_x(p, q) is
    f cf / p below the switch x < (p+1)/(p+q+2), and 1 - f cf / q above it,
    where cf is the continued fraction of the complement."""
    ln_front = p * ln_x + q * math.log1p(-x) - log_beta(p, q)
    if x < (p + 1.0) / (p + q + 2.0):
        return True, ln_front, _beta_cf(p, q, x)
    return False, ln_front, _beta_cf(q, p, 1.0 - x)


def _ln_incomplete_beta(s: float, p: float, q: float) -> float:
    """ln I_x(p, q) at x = e^s, s <= 0; finite where x underflows."""
    below, ln_front, cf = _beta_terms(math.exp(s), s, p, q)
    if below:
        return ln_front + math.log(cf / p)
    tail = math.exp(ln_front) * cf / q
    return math.log1p(-tail) if tail < 1.0 else -math.inf


def log_inverse_incomplete_beta(u: float, p: float, q: float) -> float:
    """ln x where I_x(p, q) = u, finite even where x underflows.

    Newton on g(s) = ln I_x - ln u in s = ln x, inside a bracket that every
    evaluation narrows; a step that would leave the bracket bisects it, or,
    while no point below the root is known, doubles the distance from 0.
    Where I_x ~ x^p / (p B(p, q)), g is nearly linear in s, so a root far
    below 1e-16 resolves in a few steps.  Stops when the step or the bracket
    is at most 1e-15 max(1, |s|)."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"log_inverse_incomplete_beta requires 0 < u < 1, got {u}")
    ln_u = math.log(u)
    ln_b = log_beta(p, q)
    lo, hi = -math.inf, 0.0
    s = math.log(p / (p + q))  # the mean of Beta(p, q) as a cheap start
    for _ in range(200):
        ln_i = _ln_incomplete_beta(s, p, q)
        g = ln_i - ln_u
        if g > 0.0:
            hi = s
        elif g < 0.0:
            lo = s
        else:
            break
        # dg/ds = x pdf(x) / I_x
        x = math.exp(s)
        s_new = math.nan
        if x < 1.0 and ln_i > -math.inf:
            dg = math.exp(p * s + (q - 1.0) * math.log1p(-x) - ln_b - ln_i)
            if dg > 0.0:
                s_new = s - g / dg
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi) if lo > -math.inf else 2.0 * min(s, -1.0)
        tol = 1e-15 * max(1.0, abs(s))
        s, step = s_new, abs(s_new - s)
        if step <= tol or hi - lo <= tol:
            break
    return s


def regularized_gamma_upper(x: float, k: float) -> float:
    """Q(k, x) = Gamma(k, x) / Gamma(k); chi2(df) survival at t is Q(df/2, t/2)."""
    if not k > 0.0:
        raise ValueError(f"regularized_gamma_upper requires k > 0, got {k}")
    if not x >= 0.0:
        raise ValueError(f"regularized_gamma_upper requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    ln_front = -x + k * math.log(x) - math.lgamma(k)
    if x < k + 1.0:
        # series for the lower function P, then complement
        term = 1.0 / k
        total = term
        kk = k
        for _ in range(_CF_MAX_ITER * 4):
            kk += 1.0
            term *= x / kk
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return 1.0 - total * math.exp(ln_front)
    # continued fraction for Q directly
    b = x + 1.0 - k
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        b += 2.0
        c, d = _lentz_step(-i * (i - k), b, c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return math.exp(ln_front) * h


def _each(fn, x: np.ndarray) -> np.ndarray:
    """The `math` function fn applied to each element of the 1-d array x."""
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


def libm_log(x):
    """ln x by `math.log`, of a float or of each element of an array of any
    shape, so an element gets the bits it gets alone."""
    if isinstance(x, np.ndarray):
        return _each(math.log, x.ravel()).reshape(x.shape)
    return math.log(x)


def _elementwise(kernel):
    """Let `kernel`, which maps a 1-d float array to one of the same size,
    take a float or an array of any shape.  A float comes back as a float."""
    @functools.wraps(kernel)
    def wrapper(x):
        a = np.asarray(x, dtype=float)
        out = kernel(a.ravel()).reshape(a.shape)
        return float(out) if a.ndim == 0 else out
    return wrapper


@_elementwise
def std_normal_pdf(x):
    return _each(math.exp, -0.5 * x * x) / _SQRT_2PI


@_elementwise
def std_normal_cdf(x):
    """Phi(x) via erfc; accurate far into the lower tail."""
    return 0.5 * _each(math.erfc, -x / _SQRT_2)


# Acklam's rational approximation to the inverse normal CDF.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam_tail(s: np.ndarray) -> np.ndarray:
    """Acklam's lower-tail rational function of s = sqrt(-2 ln u)."""
    c, d = _ACKLAM_C, _ACKLAM_D
    return (((((c[0] * s + c[1]) * s + c[2]) * s + c[3]) * s + c[4]) * s + c[5]) / \
        ((((d[0] * s + d[1]) * s + d[2]) * s + d[3]) * s + 1.0)


@_elementwise
def std_normal_quantile(u):
    """Phi^{-1}(u): rational approximation refined by one Newton step."""
    bad = ~((u > 0.0) & (u < 1.0))
    if bad.any():
        raise ValueError(f"std_normal_quantile requires 0 < u < 1, got {float(u[bad][0])}")
    a, b = _ACKLAM_A, _ACKLAM_B
    low = u < _P_LOW
    high = u > 1.0 - _P_LOW
    mid = ~(low | high)
    x = np.empty_like(u)
    x[low] = _acklam_tail(np.sqrt(-2.0 * _each(math.log, u[low])))
    s = u[mid] - 0.5
    r = s * s
    x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * s / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    x[high] = -_acklam_tail(np.sqrt(-2.0 * _each(math.log1p, -u[high])))
    # one Newton step on the cdf
    err = std_normal_cdf(x) - u
    pdf = std_normal_pdf(x)
    step = pdf > 0.0
    x[step] -= err[step] / pdf[step]
    return x


def quantiles(x, qs) -> np.ndarray:
    """np.quantile(x, qs, method="linear") of a 1-D x, bit for bit: x is
    partitioned at 0, at -1 and around each virtual index v = (n - 1) q, and
    each quantile is numpy's lerp of its two neighbours a and b at the weight
    t = v - floor(v): a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5.
    Any NaN in x sorts to index -1 and makes every quantile that NaN."""
    part = np.array(x, dtype=float)
    n = part.size
    v = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(v)
    hi = lo + 1
    # at the top, numpy takes the last order statistic for both, and its
    # weight becomes v + 1
    top = v >= n - 1
    lo[top] = hi[top] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    part.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    t = v - lo
    a, b = part[lo], part[hi]
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(part[-1]):
        out[:] = part[-1]
    return out


def median(a):
    """np.median(a, axis=-1), bit for bit: the mean of the two middle order
    statistics of each row, summed from +0.0 and divided by 2 as np.mean
    does, or the middle one plus 0.0 for odd n; a row holding a NaN gets the
    NaN that partitions to its end.  A 1-D a gives a numpy scalar."""
    part = np.array(a, dtype=float)
    n = part.shape[-1]
    half = n // 2
    part.partition([half - 1, half, -1] if n % 2 == 0 else [half, -1], axis=-1)
    if n % 2 == 0:
        mid = (part[..., half - 1] + part[..., half] + 0.0) / 2
    else:
        mid = part[..., half] + 0.0
    last = part[..., -1]
    return np.where(np.isnan(last), last, mid)[()]
