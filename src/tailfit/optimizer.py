"""Row-batched minimizers: modified Newton and the Nelder-Mead simplex.

Each advances many independent runs in lockstep: each row of `x0` is one run
with its own iterate, iteration count and convergence flag, and each step
evaluates the objective once for all the rows that need a point.  Every row
does exactly the arithmetic a run started alone would do, so a row's result
does not depend on which rows share its batch.

`newton_rows` needs the objective's gradient and Hessian.  `nelder_mead_rows`
is derivative-free, with the standard coefficients (reflection 1, expansion
2, contraction 0.5, shrink 0.5) and an initial simplex that perturbs each
coordinate of x0 by 5% (0.00025 absolute for zero coordinates);
`nelder_mead` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["OptimResult", "RowsResult", "InvalidStart", "nelder_mead", "nelder_mead_rows",
           "newton_rows"]


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
    """Per-row outcomes of `nelder_mead_rows` and `newton_rows`.  A row whose
    start is not finite (`valid` False) keeps its start as `argmin` and its
    objective value there as `fmin`, with 0 iterations."""

    argmin: np.ndarray      # (R, dim)
    fmin: np.ndarray        # (R,)
    converged: np.ndarray   # (R,) bool
    iterations: np.ndarray  # (R,) int
    valid: np.ndarray       # (R,) bool: the objective was finite at the start


_TINY = np.finfo(float).tiny
# modified Newton (`newton_rows`)
_RTOL = 1e-12  # a run stops when its predicted decrease is <= _RTOL * max(1, |f|)
_MAX_STEP = 2.0  # the longest step in any coordinate
_MAX_ITERATIONS = 100
_ARMIJO = 1e-4  # the share of the predicted decrease a Newton step must achieve
_HALVINGS = 40  # step halvings before a Newton line search gives up


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python's min(a, b) per element: b only where b < a, so a NaN b is never taken."""
    return np.where(b < a, b, a)


def _max1(x: np.ndarray) -> np.ndarray:
    """Python's max(1.0, x) per element."""
    return np.where(x > 1.0, x, 1.0)


def nelder_mead_rows(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0,
    xtol: float = 1e-8,
    ftol: float = 1e-10,
    max_iterations: int | None = None,
) -> RowsResult:
    """Minimize one objective per row of `x0` (shape (R, dim)).

    `objective(rows, thetas)` returns the objective of run `rows[i]` at
    `thetas[i]` for every i.  Each run returns its best vertex regardless of
    convergence; it is converged iff its relative simplex diameter drops below
    xtol or its relative f-spread below ftol within the iteration cap (default
    500 per dimension).  Runs whose start is not finite are reported invalid
    and never evaluated again; the others proceed."""
    x0 = np.array(x0, dtype=float, ndmin=2)
    n_rows, dim = x0.shape
    if max_iterations is None:
        max_iterations = 500 * dim

    f0 = _evaluate(objective, np.arange(n_rows), x0)
    valid = np.isfinite(f0)
    argmin, fmin = x0.copy(), f0.copy()
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)

    # the runs still going: `ids` maps a state row to its run
    ids = np.nonzero(valid)[0]
    verts = np.repeat(x0[ids, None, :], dim + 1, axis=1)
    diag = np.arange(dim)
    verts[:, diag + 1, diag] = np.where(x0[ids] != 0.0, x0[ids] * 1.05, 0.00025)
    fvals = np.empty((ids.size, dim + 1))
    fvals[:, 0] = f0[ids]
    fvals[:, 1:] = _evaluate_vertices(objective, ids, verts[:, 1:])
    verts, fvals = _sorted(verts, fvals)

    steps = 0  # every run still going has taken this many iterations
    while ids.size:
        best, fbest = verts[:, 0], fvals[:, 0]
        if steps >= max_iterations:
            finished = np.ones(ids.size, dtype=bool)
        else:
            diam = np.max(np.abs(verts[:, 1:] - best[:, None]), axis=(1, 2))
            finished = ((diam < xtol * _max1(np.max(np.abs(best), axis=1)))
                        | (fvals[:, -1] - fbest < ftol * _max1(np.abs(fbest))))
        if finished.any():
            done = ids[finished]
            argmin[done], fmin[done] = best[finished], fbest[finished]
            converged[done] = steps < max_iterations
            iterations[done] = steps
            ids, verts, fvals = ids[~finished], verts[~finished], fvals[~finished]
            if not ids.size:
                break
        steps += 1
        verts, fvals = _step(objective, ids, verts, fvals)

    return RowsResult(argmin=argmin, fmin=fmin, converged=converged,
                      iterations=iterations, valid=valid)


def _evaluate(objective, rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    if not rows.size:
        return np.empty(0)
    return np.asarray(objective(rows, thetas), dtype=float)


def _evaluate_vertices(objective, ids: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The objective at vertices (k, j, dim) of runs `ids`, shaped (k, j)."""
    k, j, dim = verts.shape
    return _evaluate(objective, np.repeat(ids, j), verts.reshape(-1, dim)).reshape(k, j)


def _sorted(verts: np.ndarray, fvals: np.ndarray):
    order = np.argsort(fvals, axis=1, kind="stable")
    return np.take_along_axis(verts, order[:, :, None], axis=1), np.take_along_axis(fvals, order, axis=1)


def _step(objective, ids, verts, fvals):
    """One Nelder-Mead iteration of every run in the state, sorted again."""
    dim = verts.shape[2]
    centroid = verts[:, :-1].mean(axis=1)
    worst = verts[:, -1]
    xr = centroid + (centroid - worst)
    fr = _evaluate(objective, ids, xr)

    expand = fr < fvals[:, 0]
    contract = ~expand & ~(fr < fvals[:, -2])
    outside = contract & (fr < fvals[:, -1])
    # the second point of a step: the expansion, or the outside or inside contraction
    second = np.nonzero(expand | contract)[0]
    c, w, r = centroid[second], worst[second], xr[second]
    e, o = expand[second], outside[second]
    i = ~e & ~o
    x2 = np.empty((second.size, dim))
    x2[e] = c[e] + 2.0 * (c[e] - w[e])
    x2[o] = c[o] + 0.5 * (r[o] - c[o])
    x2[i] = c[i] - 0.5 * (c[i] - w[i])
    f2 = _evaluate(objective, ids[second], x2)

    fr2 = fr[second]
    take2 = np.where(e, f2 < fr2, f2 < _min(fr2, fvals[second, -1]))
    xr[second[take2]], fr[second[take2]] = x2[take2], f2[take2]
    shrink = second[~e & ~take2]
    replace = np.ones(ids.size, dtype=bool)
    replace[shrink] = False
    verts[replace, -1], fvals[replace, -1] = xr[replace], fr[replace]
    if shrink.size:
        # the contraction failed: shrink toward the best vertex
        lo = verts[shrink, :1]
        verts[shrink, 1:] = lo + 0.5 * (verts[shrink, 1:] - lo)
        fvals[shrink, 1:] = _evaluate_vertices(objective, ids[shrink], verts[shrink, 1:])
    return _sorted(verts, fvals)


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0,
    xtol: float = 1e-8,
    ftol: float = 1e-10,
    max_iterations: int | None = None,
) -> OptimResult:
    """Minimize `objective` from `x0`: the one-row case of `nelder_mead_rows`.
    Raises InvalidStart if the objective is not finite at x0."""
    x0 = np.asarray(x0, dtype=float)
    res = nelder_mead_rows(lambda rows, thetas: [objective(theta) for theta in thetas],
                           x0.reshape(1, -1), xtol, ftol, max_iterations)
    if not res.valid[0]:
        raise InvalidStart(f"objective is {res.fmin[0]} at start point {x0}")
    return OptimResult(
        argmin=res.argmin[0],
        fmin=float(res.fmin[0]),
        converged=bool(res.converged[0]),
        iterations=int(res.iterations[0]),
    )


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
    Runs whose start is not finite are reported invalid and never evaluated
    again, as in `nelder_mead_rows`."""
    x = np.array(x0, dtype=float, ndmin=2)
    n_rows = x.shape[0]
    f, grad, hess = objective(np.arange(n_rows), x)
    f = np.array(f, dtype=float)
    valid = _finite(f, grad, hess)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)

    # the runs still going: `ids` maps a state row to its run
    ids = np.nonzero(valid)[0]
    grad, hess = grad[ids], hess[ids]
    steps = 0
    while ids.size:
        lam, vec = _eigh(hess)
        lam = np.abs(lam)
        lam = np.maximum(lam, np.maximum(1e-10 * np.max(lam, axis=1, keepdims=True), _TINY))
        vg = np.sum(vec * grad[:, :, None], axis=1)  # the gradient in the eigenbasis
        step = -np.sum(vec * (vg / lam)[:, None, :], axis=2)
        done = 0.5 * np.sum(vg * vg / lam, axis=1) <= _RTOL * _max1(np.abs(f[ids]))
        converged[ids[done]] = True
        stop = done | (steps >= _MAX_ITERATIONS)
        iterations[ids[stop]] = steps
        ids, grad, hess, step = ids[~stop], grad[~stop], hess[~stop], step[~stop]
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
        ids, grad, hess = ids[~pending], grad[~pending], hess[~pending]

    return RowsResult(argmin=x, fmin=f, converged=converged, iterations=iterations, valid=valid)
