"""Minimizers: batched modified Newton, and the one-run Nelder-Mead simplex.

`newton_rows` advances many independent runs in lockstep: each row of `x0` is
one run with its own iterate, iteration count and convergence flag, and each
step evaluates the objective once for all the rows that need a point.  Every
row does exactly the arithmetic a run started alone would do, so a row's
result does not depend on which rows share its batch.  It needs the
objective's gradient and Hessian.

`nelder_mead` is derivative-free and runs one start, with the standard
coefficients (reflection 1, expansion 2, contraction 0.5, shrink 0.5) and an
initial simplex that perturbs each coordinate of x0 by 5% (0.00025 absolute
for zero coordinates).  No fit uses it; the tests use it as an independent
oracle for the fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimResult", "RowsResult", "InvalidStart", "nelder_mead", "newton_rows"]


class InvalidStart(Exception):
    """The objective is not finite at the requested start point."""


@dataclass
class OptimResult:
    argmin: np.ndarray
    fmin: float
    converged: bool
    iterations: int


@dataclass
class RowsResult:
    """Per-row outcomes of `newton_rows`.  A row whose start is not finite
    (`valid` False) keeps its start as `argmin` and its objective value there
    as `fmin`, with 0 iterations."""

    argmin: np.ndarray             # (R, dim)
    fmin: np.ndarray               # (R,)
    converged: np.ndarray          # (R,) bool
    iterations: np.ndarray         # (R,) int
    valid: np.ndarray              # (R,) bool: the objective was finite at the start
    positive_definite: np.ndarray  # (R,) bool: the Hessian at argmin is positive definite


_TINY = np.finfo(float).tiny
_RTOL = 1e-12  # a run stops when its predicted decrease is <= _RTOL * max(1, |f|)
_MAX_STEP = 2.0  # the longest step in any coordinate
_MAX_ITERATIONS = 100
_ARMIJO = 1e-4  # the share of the predicted decrease a Newton step must achieve
_HALVINGS = 40  # step halvings before a Newton line search gives up


def _max1(x: np.ndarray) -> np.ndarray:
    """Python's max(1.0, x) per element."""
    return np.where(x > 1.0, x, 1.0)


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0,
    xtol: float = 1e-8,
    ftol: float = 1e-10,
    max_iterations: int | None = None,
) -> OptimResult:
    """Minimize `objective` from `x0`.  Returns the best vertex regardless of
    convergence; the run is converged iff its relative simplex diameter drops
    below xtol or its relative f-spread below ftol within the iteration cap
    (default 500 per dimension).  Raises InvalidStart if the objective is not
    finite at x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    dim = x0.size
    if max_iterations is None:
        max_iterations = 500 * dim
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise InvalidStart(f"objective is {f0} at start point {x0}")
    verts = np.repeat(x0[None, :], dim + 1, axis=0)
    diag = np.arange(dim)
    verts[diag + 1, diag] = np.where(x0 != 0.0, x0 * 1.05, 0.00025)
    fvals = np.array([f0] + [float(objective(v)) for v in verts[1:]])

    converged, iterations = False, 0
    while True:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        if iterations >= max_iterations:
            break
        if (np.max(np.abs(verts[1:] - verts[0])) < xtol * max(1.0, np.max(np.abs(verts[0])))
                or fvals[-1] - fvals[0] < ftol * max(1.0, abs(fvals[0]))):
            converged = True
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        worst = verts[-1]
        xr = centroid + (centroid - worst)
        fr = float(objective(xr))
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = float(objective(xe))
            verts[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - worst)
            fc = float(objective(xc))
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                # the contraction failed: shrink toward the best vertex
                verts[1:] = verts[0] + 0.5 * (verts[1:] - verts[0])
                fvals[1:] = [float(objective(v)) for v in verts[1:]]
    return OptimResult(argmin=verts[0].copy(), fmin=float(fvals[0]), converged=converged,
                       iterations=iterations)


def _finite(f: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    return (np.isfinite(f) & np.all(np.isfinite(grad), axis=1)
            & np.all(np.isfinite(hess), axis=(1, 2)))


def _eigh(hess: np.ndarray) -> tuple:
    """The eigenvalues (R, k) and eigenvectors (columns of (R, k, k)) of the
    symmetric matrices `hess`.  A 2x2 is diagonalized by one Jacobi rotation
    with t = tan(angle) the smaller root (Golub and Van Loan, sec. 8.5), which
    keeps a two-parameter fit off LAPACK, whose first call adds ~0.75 MB of
    resident memory; larger matrices go to `np.linalg.eigh`."""
    if hess.shape[1] != 2:
        return np.linalg.eigh(hess)
    a, b, d = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    delta = d - a
    denom = np.abs(delta) + np.hypot(delta, 2.0 * b)
    t = np.divide(np.where(delta < 0.0, -2.0, 2.0) * b, denom,
                  out=np.zeros_like(b), where=denom > 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    lam = np.stack([a - t * b, d + t * b], axis=1)
    vec = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)
    return lam, vec


def newton_rows(objective: Callable[[np.ndarray, np.ndarray], tuple], x0) -> RowsResult:
    """Minimize one smooth objective per row of `x0` (shape (R, dim)) by
    modified Newton.

    `objective(rows, thetas)` returns (f, gradient, Hessian) of run `rows[i]`
    at `thetas[i]`, shaped (r,), (r, dim) and (r, dim, dim).  Each iteration
    takes the Newton step with the Hessian's eigenvalues replaced by their
    absolute values, floored at 1e-10 of the largest, so the step descends
    even where the Hessian is not positive definite.  The step is scaled to
    at most 2 in every coordinate and then halved until f falls by at least
    1e-4 of the decrease its slope predicts (Armijo).

    A run converges when half its squared Newton decrement, the decrease the
    quadratic model predicts, is at most 1e-12 * max(1, |f|).  A run stops
    unconverged after 100 steps, or when 40 halvings find no such decrease.
    Each run reports whether the Hessian at its last point is positive
    definite.  Runs whose start is not finite are reported invalid and never
    evaluated again; the others proceed."""
    x = np.array(x0, dtype=float, ndmin=2)
    n_rows = x.shape[0]
    f, grad, hess = objective(np.arange(n_rows), x)
    f = np.array(f, dtype=float)
    valid = _finite(f, grad, hess)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)
    positive_definite = np.zeros(n_rows, dtype=bool)

    # the runs still going: `ids` maps a state row to its run
    ids = np.nonzero(valid)[0]
    grad, hess = grad[ids], hess[ids]
    steps = 0
    while ids.size:
        lam, vec = _eigh(hess)
        pd = np.min(lam, axis=1) > 0.0
        lam = np.abs(lam)
        lam = np.maximum(lam, np.maximum(1e-10 * np.max(lam, axis=1, keepdims=True), _TINY))
        vg = np.sum(vec * grad[:, :, None], axis=1)  # the gradient in the eigenbasis
        step = -np.sum(vec * (vg / lam)[:, None, :], axis=2)
        done = 0.5 * np.sum(vg * vg / lam, axis=1) <= _RTOL * _max1(np.abs(f[ids]))
        converged[ids[done]] = True
        stop = done | (steps >= _MAX_ITERATIONS)
        iterations[ids[stop]] = steps
        positive_definite[ids[stop]] = pd[stop]
        ids, grad, hess, step, pd = ids[~stop], grad[~stop], hess[~stop], step[~stop], pd[~stop]
        if not ids.size:
            break

        longest = np.max(np.abs(step), axis=1)
        step *= np.where(longest > _MAX_STEP, _MAX_STEP / longest, 1.0)[:, None]
        slope = np.sum(grad * step, axis=1)
        t = np.ones(ids.size)
        pending = np.ones(ids.size, dtype=bool)
        for _ in range(_HALVINGS + 1):
            rows = np.nonzero(pending)[0]
            trial = x[ids[rows]] + t[rows, None] * step[rows]
            ft, gt, ht = objective(ids[rows], trial)
            ok = _finite(ft, gt, ht) & (ft <= f[ids[rows]] + _ARMIJO * t[rows] * slope[rows])
            took = rows[ok]
            x[ids[took]], f[ids[took]] = trial[ok], ft[ok]
            grad[took], hess[took] = gt[ok], ht[ok]
            pending[took] = False
            t[rows[~ok]] *= 0.5
            if not pending.any():
                break
        steps += 1
        iterations[ids[pending]] = steps
        positive_definite[ids[pending]] = pd[pending]
        ids, grad, hess, pd = ids[~pending], grad[~pending], hess[~pending], pd[~pending]

    return RowsResult(argmin=x, fmin=f, converged=converged, iterations=iterations, valid=valid,
                      positive_definite=positive_definite)
