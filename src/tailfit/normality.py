"""Normality tests applied to bootstrapped parameter matrices.

Anderson-Darling (mean and variance estimated from the sample) for the
one-parameter Pareto column; Mardia skewness/kurtosis for the multivariate
families.  p-values below 1e-15 are reported as 0.  A sample neither test can
judge raises `bootstrap.DegenerateCell`: Anderson-Darling needs at least 8
values, not all equal; Mardia needs m > k + 1 rows, no constant column, and
an invertible sample covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapMatrix, DegenerateCell
from .special_functions import libm_log, regularized_gamma_upper, std_normal_cdf

__all__ = [
    "NormalityReport",
    "anderson_darling_normal",
    "mardia",
    "normality_suite",
]

_P_FLOOR = 1e-15


@dataclass
class NormalityReport:
    family: str
    n: int
    test: str  # AndersonDarling | MardiaSkew | MardiaKurtosis
    statistic: float
    p_value: float
    m_used: int


def _clip_p(p: float) -> float:
    if p < _P_FLOOR:
        return 0.0
    return min(p, 1.0)


def _ad_p_value(a2_star: float) -> float:
    """Four-piece exponential approximation for the estimated-parameters case."""
    z = a2_star
    if z >= 6.0:
        # the quadratic piece is only valid for moderate z; p is below the
        # reporting floor here anyway
        return 0.0
    if z >= 0.6:
        return math.exp(1.2937 - 5.709 * z + 0.0186 * z * z)
    if z > 0.34:
        return math.exp(0.9177 - 4.279 * z - 1.38 * z * z)
    if z > 0.2:
        return 1.0 - math.exp(-8.318 + 42.796 * z - 59.938 * z * z)
    return 1.0 - math.exp(-13.436 + 101.14 * z - 223.73 * z * z)


def anderson_darling_normal(xs, family: str = "", n: int = 0) -> NormalityReport:
    """A-D statistic with the small-sample factor (1 + 0.75/m + 2.25/m^2)."""
    xs = np.asarray(xs, dtype=float)
    m = xs.size
    if m < 8:
        raise DegenerateCell(f"Anderson-Darling needs at least 8 rows, have {m}")
    if np.ptp(xs) == 0.0:
        raise DegenerateCell("constant sample")
    sd = float(np.std(xs, ddof=1))
    z = np.sort((xs - np.mean(xs)) / sd)
    log_cdf = libm_log(np.maximum(std_normal_cdf(z), 1e-300))
    log_sf = libm_log(np.maximum(std_normal_cdf(-z), 1e-300))
    i = np.arange(1, m + 1)
    a2 = -m - float(np.sum((2 * i - 1) * (log_cdf + log_sf[::-1]))) / m
    a2_star = a2 * (1.0 + 0.75 / m + 2.25 / m**2)
    return NormalityReport(family, n, "AndersonDarling", a2_star,
                           _clip_p(_ad_p_value(a2_star)), m)


def mardia_moments(rows: np.ndarray) -> tuple[float, float]:
    """(b1, b2) from Mahalanobis cross-products; covariance uses divisor m.

    b1 = sum_ij (c_i' S c_j)^3 / m^2 = sum_abc T_abc H_abc / m^2, with T and H
    the third-moment tensors of the centered rows c_i and of h_i = S c_i,
    accumulated in long double.
    """
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    if np.any(np.ptp(rows, axis=0) == 0.0):
        raise DegenerateCell("constant column")
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / m
    try:
        cov_inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCell(str(exc)) from exc
    half = centered @ cov_inv  # (m, k)
    c, h = centered.astype(np.longdouble), half.astype(np.longdouble)
    t = np.einsum("ia,ib,ic->abc", c, c, c)
    b1 = float(np.sum(t * np.einsum("ia,ib,ic->abc", h, h, h))) / m**2
    g_diag = np.einsum("ij,ij->i", half, centered)
    b2 = float(np.mean(g_diag**2))
    return b1, b2


def mardia(rows, family: str = "", n: int = 0) -> tuple[NormalityReport, NormalityReport]:
    """Skewness and kurtosis reports for an (m, k) matrix, k in 2..4."""
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    if m <= k + 1:
        raise DegenerateCell(f"Mardia needs more than k + 1 = {k + 1} rows, have {m}")
    b1, b2 = mardia_moments(rows)
    skew_stat = m * b1 / 6.0
    df = k * (k + 1) * (k + 2) / 6.0
    skew_p = _clip_p(regularized_gamma_upper(skew_stat / 2.0, df / 2.0))
    kurt_z = (b2 - k * (k + 2)) / math.sqrt(8.0 * k * (k + 2) / m)
    kurt_p = _clip_p(2.0 * std_normal_cdf(-abs(kurt_z)))
    return (
        NormalityReport(family, n, "MardiaSkew", skew_stat, skew_p, m),
        NormalityReport(family, n, "MardiaKurtosis", kurt_z, kurt_p, m),
    )


def normality_suite(bm: BootstrapMatrix) -> list[NormalityReport]:
    """AD on a one-parameter (Pareto) column; Mardia skew + kurtosis otherwise."""
    if len(bm.param_names) == 1:
        report = anderson_darling_normal(bm.rows[:, 0], bm.family, bm.n)
        return [report]
    return list(mardia(bm.rows, bm.family, bm.n))


def reports_to_csv(reports: list[NormalityReport]) -> str:
    lines = ["family,n,test,statistic,p_value,m_used"]
    for r in reports:
        lines.append(f"{r.family},{r.n},{r.test},{r.statistic!r},{r.p_value!r},{r.m_used}")
    return "\n".join(lines) + "\n"
