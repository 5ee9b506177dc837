"""Kernel density estimates of bootstrapped parameters overlaid with the
normal density predicted by the asymptotic covariance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapMatrix
from .fisher import asymptotic_covariance
from .mle import DegenerateSample
from .textio import format_rows

__all__ = ["DensityOverlay", "silverman_bandwidth", "kde", "overlay"]

_GRID_POINTS = 512
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# grid points per kernel chunk: the chunk's buffer of 32 x m doubles is
# 1.3 MB at m = 5000, within a 2 MB L2 cache
_KDE_ROWS = 32


@dataclass
class DensityOverlay:
    family: str
    param_name: str
    n: int
    grid: np.ndarray
    kde: np.ndarray
    normal_pdf: np.ndarray

    def to_csv(self) -> str:
        return "grid,kde,normal_pdf\n" + format_rows(
            np.column_stack([self.grid, self.kde, self.normal_pdf]))


def silverman_bandwidth(xs: np.ndarray) -> float:
    if np.ptp(xs) == 0.0:
        raise DegenerateSample("constant sample has no bandwidth")
    m = xs.size
    sd = float(np.std(xs, ddof=1))
    q25, q75 = np.quantile(xs, [0.25, 0.75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * m ** (-0.2)


def kde(xs, grid) -> np.ndarray:
    """Gaussian-kernel density of xs on grid, Silverman bandwidth."""
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise DegenerateSample("kde needs at least 2 observations")
    grid = np.asarray(grid, dtype=float)
    h = silverman_bandwidth(xs)
    out = np.empty(grid.size)
    # the (grid, m) kernel matrix is built _KDE_ROWS grid points at a time in
    # one buffer reused by every chunk.  -0.5 * z**2 equals (-0.5 * z) * z bit
    # for bit, since scaling by -0.5 is exact, except where one of them
    # underflows or overflows; exp then gives 1 or 0 for both.
    buf = np.empty((min(_KDE_ROWS, grid.size), xs.size))
    for lo in range(0, grid.size, _KDE_ROWS):
        chunk = grid[lo:lo + _KDE_ROWS, None]
        w = np.subtract(chunk, xs, out=buf[:chunk.shape[0]])
        w /= h
        w *= w
        w *= -0.5
        np.exp(w, out=w)
        out[lo:lo + _KDE_ROWS] = w.sum(axis=1)
    # scaled in place: an array allocated now would sit above the buffer in
    # the heap, and the next call's buffer could then grow the heap by its
    # size (study-analysis peak RSS read 1.2 MB higher in some runs)
    out /= xs.size * h * _SQRT_2PI
    return out


def overlay(bm: BootstrapMatrix, j: int) -> DensityOverlay:
    """KDE of bootstrap column j vs. N(theta*_j, (I^{-1})_jj / n) on a shared
    512-point grid spanning both."""
    bm.check_analysable()
    col = bm.rows[:, j]
    model = bm.true_model()
    target = model.params[j]
    sd = math.sqrt(asymptotic_covariance(model, bm.n)[j, j])
    lo = min(float(col.min()), target - 4.0 * sd)
    hi = max(float(col.max()), target + 4.0 * sd)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    z = (grid - target) / sd
    normal_pdf = np.exp(-0.5 * z * z) / (sd * _SQRT_2PI)
    return DensityOverlay(
        family=bm.family,
        param_name=bm.param_names[j],
        n=bm.n,
        grid=grid,
        kde=kde(col, grid),
        normal_pdf=normal_pdf,
    )
