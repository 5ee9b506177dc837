"""Kernel density estimates of bootstrapped parameters overlaid with the
normal density predicted by the asymptotic covariance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bootstrap import BootstrapMatrix, DegenerateCell
from .fisher import asymptotic_covariance
from .special_functions import quantiles
from .textio import format_rows

__all__ = ["DensityOverlay", "silverman_bandwidth", "kde", "overlay"]

_GRID_POINTS = 512
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# doubles in the kernel buffer of the exact sum: a chunk takes
# max(1, _KDE_ELEMENTS // m) grid points, so up to m = 160,000 its buffer
# stays within 1.3 MB, inside a 2 MB L2 cache (32 points at m = 5000, 4 at
# the paper's m = 40,000)
_KDE_ELEMENTS = 160_000
# lattice steps per bandwidth on the binned path.  Linear binning replaces
# each kernel by its linear interpolant between lattice points, which is off
# by at most (step / h)**2 / 8 of the kernel's peak.  Over 60 normal overlay
# columns at m = 100 the estimate was off by up to 1.8e-6 of its peak at
# h/128 and 5.4e-7 at h/256, against the 1e-6 the tests allow
_LATTICE_PER_H = 256
# the binned path samples the kernel to +-_CUT * h and drops the rows beyond
# that from every grid point: they add less than e**-40.5 of a kernel's peak
_CUT = 9.0


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
    """0.9 min(sd, IQR / 1.34) m^-1/5 (sd alone where the IQR is 0), the
    quartiles by `quantiles`, equal to np.quantile's default bit for bit."""
    if np.ptp(xs) == 0.0:
        raise DegenerateCell("constant sample has no bandwidth")
    m = xs.size
    sd = float(np.std(xs, ddof=1))
    q25, q75 = quantiles(xs, [0.25, 0.75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * m ** (-0.2)


def kde(xs, grid) -> np.ndarray:
    """Gaussian-kernel density of xs on grid, Silverman bandwidth h.

    On an evenly spaced grid (bit-equal to ``np.linspace`` of its ends and
    size) whose spacing lies between h/256 and h, xs is binned linearly onto
    the grid refined to a step of at most h/256 and convolved once with the
    kernel sampled to +-9h (Silverman 1982, AS 176; Wand 1994); this differs
    from the exact sum by less than 1e-6 of the estimate's peak on every
    column the tests check.  Every other grid gets the exact sum over all of
    xs.  The result is a fresh array of grid's size.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size < 2:
        raise DegenerateCell("kde needs at least 2 observations")
    grid = np.asarray(grid, dtype=float)
    h = silverman_bandwidth(xs)
    step = (grid[-1] - grid[0]) / (grid.size - 1) if grid.size > 1 else 0.0
    if h / _LATTICE_PER_H <= step <= h and np.array_equal(
            grid, np.linspace(grid[0], grid[-1], grid.size)):
        out = _binned_sum(xs, grid[0], step, grid.size, h)
    else:
        out = _exact_sum(xs, grid, h)
    # scaled in place: an array allocated now would sit above the exact
    # sum's buffer in the heap, and the next call's buffer could then grow
    # the heap by its size (study-analysis peak RSS read 1.2 MB higher in
    # some runs)
    out /= xs.size * h * _SQRT_2PI
    return out


def _binned_sum(xs: np.ndarray, start: float, step: float, points: int,
                h: float) -> np.ndarray:
    """Kernel sums at start + i * step, i < points, from xs binned linearly
    onto a lattice k = ceil(256 step / h) times finer than the grid."""
    k = math.ceil(_LATTICE_PER_H * step / h)
    delta = step / k
    half = math.ceil(_CUT * h / delta)
    # lattice point i sits at start + (i - half) * delta, so grid point j is
    # lattice point half + j * k, the centre of the window that starts at j * k
    size = (points - 1) * k + 2 * half + 1
    pos = (xs - start) / delta + half
    pos = pos[(pos >= 0.0) & (pos < size - 1)]
    left = pos.astype(np.intp)
    frac = pos - left
    counts = np.bincount(left, weights=1.0 - frac, minlength=size)
    counts[1:] += np.bincount(left, weights=frac, minlength=size - 1)
    z = np.arange(-half, half + 1) * (delta / h)
    kernel = np.exp(-0.5 * z * z)
    # only the windows centred on grid points; einsum runs the strided
    # product without a copy, about twice as fast as matmul's loop for it
    return np.einsum("ij,j->i", sliding_window_view(counts, kernel.size)[::k], kernel)


def _exact_sum(xs: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Kernel sums at every grid point over all of xs."""
    out = np.empty(grid.size)
    # the (grid, m) kernel matrix is built `rows` grid points at a time in
    # one buffer reused by every chunk; each point's sum runs along its own
    # row, so the chunking changes no bit.  -0.5 * z**2 equals (-0.5 * z) * z
    # bit for bit, since scaling by -0.5 is exact, except where one of them
    # underflows or overflows; exp then gives 1 or 0 for both.
    rows = max(1, min(grid.size, _KDE_ELEMENTS // xs.size))
    buf = np.empty((rows, xs.size))
    for lo in range(0, grid.size, rows):
        chunk = grid[lo:lo + rows, None]
        w = np.subtract(chunk, xs, out=buf[:chunk.shape[0]])
        w /= h
        w *= w
        w *= -0.5
        np.exp(w, out=w)
        out[lo:lo + rows] = w.sum(axis=1)
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
