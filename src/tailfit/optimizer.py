"""Nelder-Mead simplex minimizer (derivative-free, deterministic).

Standard coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
The initial simplex perturbs each coordinate of x0 by 5% (0.00025 absolute for
zero coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimResult", "InvalidStart", "nelder_mead"]


class InvalidStart(Exception):
    """The objective is not finite at the requested start point."""


@dataclass
class OptimResult:
    argmin: np.ndarray
    fmin: float
    converged: bool
    iterations: int


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0,
    xtol: float = 1e-8,
    ftol: float = 1e-10,
    max_iterations: int | None = None,
) -> OptimResult:
    """Minimize `objective` from `x0`; returns the best vertex regardless of
    convergence.  `converged` is set iff the relative simplex diameter drops
    below xtol or the relative f-spread below ftol within the iteration cap
    (default 500 per dimension)."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if max_iterations is None:
        max_iterations = 500 * dim
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise InvalidStart(f"objective is {f0} at start point {x0}")

    verts = np.empty((dim + 1, dim))
    verts[0] = x0
    for j in range(dim):
        v = x0.copy()
        v[j] = v[j] * 1.05 if v[j] != 0.0 else 0.00025
        verts[j + 1] = v
    fvals = np.empty(dim + 1)
    fvals[0] = f0
    for j in range(dim):
        fvals[j + 1] = objective(verts[j + 1])

    def _converged() -> bool:
        lo = verts[0]
        diam = np.max(np.abs(verts[1:] - lo))
        if diam < xtol * max(1.0, np.max(np.abs(lo))):
            return True
        spread = fvals[-1] - fvals[0]
        return spread < ftol * max(1.0, abs(fvals[0]))

    converged = False
    iterations = 0
    order = np.argsort(fvals, kind="stable")
    verts, fvals = verts[order], fvals[order]

    while iterations < max_iterations:
        if _converged():
            converged = True
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + (centroid - verts[-1])
        fr = objective(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = objective(xe)
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:  # outside contraction
                xc = centroid + 0.5 * (xr - centroid)
            else:  # inside contraction
                xc = centroid - 0.5 * (centroid - verts[-1])
            fc = objective(xc)
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:  # shrink toward the best vertex
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + 0.5 * (verts[j] - verts[0])
                    fvals[j] = objective(verts[j])
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]

    return OptimResult(
        argmin=verts[0].copy(),
        fmin=float(fvals[0]),
        converged=converged,
        iterations=iterations,
    )
