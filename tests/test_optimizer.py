import numpy as np
import pytest

from tailfit import optimizer, sample
from tailfit.bootstrap import replication_rng
from tailfit.distributions import FAMILY_TABLE
from tailfit.mle import _newton_objective
from tailfit.optimizer import InvalidStart, nelder_mead, newton_rows

from conftest import STUDY_SEED, TRUE_MODELS, gb2_init


def quad(x):
    return float(np.sum((x - 3.0) ** 2))


def rosenbrock(x):
    a, b = x
    return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2


class TestNelderMead:
    def test_quadratic_bowl(self):
        # ftol tightened so the simplex collapses in x, not just in f
        res = nelder_mead(quad, np.zeros(2), ftol=1e-16)
        assert res.converged
        assert np.max(np.abs(res.argmin - 3.0)) < 1e-6
        assert res.fmin == quad(res.argmin)

    def test_rosenbrock(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]))
        assert res.converged
        assert np.max(np.abs(res.argmin - 1.0)) < 1e-4

    def test_constant_objective(self):
        res = nelder_mead(lambda x: 7.0, np.array([2.0, -1.0, 0.0]))
        assert res.converged
        assert res.iterations == 0
        assert res.fmin == 7.0
        assert np.array_equal(res.argmin, [2.0, -1.0, 0.0])

    def test_invalid_start(self):
        with pytest.raises(InvalidStart):
            nelder_mead(lambda x: float("inf"), np.array([1.0]))
        with pytest.raises(InvalidStart):
            nelder_mead(lambda x: float("nan"), np.array([1.0]))

    def test_iteration_cap_returns_best_vertex(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_iterations=3)
        assert not res.converged
        assert res.iterations == 3
        # still no worse than the start
        assert res.fmin <= rosenbrock(np.array([-1.2, 1.0]))

    def test_deterministic(self):
        a = nelder_mead(rosenbrock, np.array([0.3, -0.7]))
        b = nelder_mead(rosenbrock, np.array([0.3, -0.7]))
        assert np.array_equal(a.argmin, b.argmin)
        assert a.fmin == b.fmin
        assert a.iterations == b.iterations

    def test_penalty_plateau(self):
        # caller-style positivity penalty: minimum found inside the region
        def f(x):
            if x[0] <= 0.0:
                return 1e10
            return (x[0] - 2.0) ** 2

        res = nelder_mead(f, np.array([5.0]))
        assert res.converged
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-6)

    def test_never_worse_than_start(self):
        for cap in (0, 1, 5, 50):
            res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_iterations=cap)
            assert res.fmin <= rosenbrock(np.array([-1.2, 1.0]))
            assert res.iterations <= cap


def plateau(x):
    # positivity penalty in the first coordinate, as the mle objectives use
    if x[0] <= 0.0:
        return 1e10
    return (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2


def infinite_far_out(x):
    return float("inf") if x[0] > 10.0 else quad(x)


def reference_nelder_mead(objective, x0, xtol=1e-8, ftol=1e-10, max_iterations=None):
    """The textbook one-run loop, kept as the oracle of `nelder_mead`:
    (argmin, fmin, converged, iterations), or None for a non-finite start."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if max_iterations is None:
        max_iterations = 500 * dim
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        return None
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

    def converged_now():
        lo = verts[0]
        if np.max(np.abs(verts[1:] - lo)) < xtol * max(1.0, np.max(np.abs(lo))):
            return True
        return fvals[-1] - fvals[0] < ftol * max(1.0, abs(fvals[0]))

    converged, iterations = False, 0
    order = np.argsort(fvals, kind="stable")
    verts, fvals = verts[order], fvals[order]
    while iterations < max_iterations:
        if converged_now():
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
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - verts[-1])
            fc = objective(xc)
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                for j in range(1, dim + 1):
                    verts[j] = verts[0] + 0.5 * (verts[j] - verts[0])
                    fvals[j] = objective(verts[j])
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
    return verts[0].copy(), float(fvals[0]), converged, iterations


class TestNelderMeadReference:
    """`nelder_mead` equals the reference loop bit for bit."""

    # (objective, start): different convergence iterations, a run that needs
    # far more iterations than the others, a start next to the penalty
    # plateau, a start on it, and a start where the objective is infinite
    RUNS = [
        (quad, [0.0, 0.0]),
        (lambda x: quad(x / 7.0), [1.0, -2.0]),
        (rosenbrock, [-1.2, 1.0]),
        (plateau, [0.05, 1.0]),
        (plateau, [-1.0, -1.0]),
        (infinite_far_out, [11.0, 0.0]),
        (rosenbrock, [0.3, -0.7]),
    ]

    def assert_runs_match_reference(self, **kwargs):
        results = []
        for f, x0 in self.RUNS:
            want = reference_nelder_mead(f, x0, **kwargs)
            if want is None:
                with pytest.raises(InvalidStart):
                    nelder_mead(f, np.array(x0), **kwargs)
                results.append(None)
                continue
            one = nelder_mead(f, np.array(x0), **kwargs)
            argmin, fmin, converged, iterations = want
            assert np.array_equal(one.argmin, argmin)
            assert (one.fmin, one.converged, one.iterations) == (fmin, converged, iterations)
            results.append(one)
        return results

    def test_runs_equal_reference_loop(self):
        res = self.assert_runs_match_reference()
        assert [r is not None for r in res] == [True] * 5 + [False, True]
        assert all(res[i].converged for i in (0, 1, 2, 3, 4, 6))
        assert len({res[i].iterations for i in (0, 1, 2, 3, 6)}) == 5
        assert res[4].iterations == 0  # the whole simplex lies on the plateau
        assert res[3].fmin < 1e-8 and res[3].argmin[0] > 0.0

    def test_small_cap_equals_reference_loop(self):
        res = self.assert_runs_match_reference(max_iterations=60)
        assert all(res[i].converged and res[i].iterations < 60 for i in (0, 3))
        assert res[4].converged
        assert all(not res[i].converged and res[i].iterations == 60 for i in (1, 2, 6))


def newton_objective(runs):
    """Row objectives with analytic derivatives: `runs[i]` is ("quad", c),
    ("rosenbrock", None), ("double_well", None), ("saddle", None) or
    ("nan", None)."""
    def objective(rows, thetas):
        f = np.empty(len(rows))
        grad = np.empty((len(rows), 2))
        hess = np.empty((len(rows), 2, 2))
        for k, (r, (x, y)) in enumerate(zip(rows, thetas)):
            kind, c = runs[r]
            if kind == "quad":
                f[k] = (x - c) ** 2 + 10.0 * (y + c) ** 2
                grad[k] = [2.0 * (x - c), 20.0 * (y + c)]
                hess[k] = [[2.0, 0.0], [0.0, 20.0]]
            elif kind == "rosenbrock":
                f[k] = rosenbrock((x, y))
                grad[k] = [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]
                hess[k] = [[2.0 - 400.0 * (y - 3.0 * x * x), -400.0 * x], [-400.0 * x, 200.0]]
            elif kind == "double_well":  # x^4/4 - x^2/2 + y^2: concave in x near 0
                f[k] = x**4 / 4.0 - x * x / 2.0 + y * y
                grad[k] = [x**3 - x, 2.0 * y]
                hess[k] = [[3.0 * x * x - 1.0, 0.0], [0.0, 2.0]]
            elif kind == "saddle":  # x^2 - y^2: stationary at 0, not a minimum
                f[k] = x * x - y * y
                grad[k] = [2.0 * x, -2.0 * y]
                hess[k] = [[2.0, 0.0], [0.0, -2.0]]
            else:
                f[k], grad[k], hess[k] = np.nan, 0.0, 0.0
        return f, grad, hess
    return objective


def reference_newton_rows(objective, x0):
    """`newton_rows` with one halving per objective call, kept as the oracle
    of its batched line search."""
    x = np.array(x0, dtype=float, ndmin=2)
    n_rows = x.shape[0]
    f, grad, hess = objective(np.arange(n_rows), x)
    f = np.array(f, dtype=float)
    valid = optimizer._finite(f, grad, hess)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)
    positive_definite = np.zeros(n_rows, dtype=bool)
    ids = np.nonzero(valid)[0]
    grad, hess = grad[ids], hess[ids]
    steps = 0
    while ids.size:
        lam, vec = optimizer._eigh(hess)
        pd = np.min(lam, axis=1) > 0.0
        lam = np.abs(lam)
        lam = np.maximum(lam, np.maximum(1e-10 * np.max(lam, axis=1, keepdims=True),
                                         optimizer._TINY))
        vg = np.sum(vec * grad[:, :, None], axis=1)
        step = -np.sum(vec * (vg / lam)[:, None, :], axis=2)
        done = 0.5 * np.sum(vg * vg / lam, axis=1) <= optimizer._RTOL * optimizer._max1(
            np.abs(f[ids]))
        converged[ids[done]] = True
        stop = done | (steps >= optimizer._MAX_ITERATIONS)
        iterations[ids[stop]] = steps
        positive_definite[ids[stop]] = pd[stop]
        ids, grad, hess, step, pd = ids[~stop], grad[~stop], hess[~stop], step[~stop], pd[~stop]
        if not ids.size:
            break
        longest = np.max(np.abs(step), axis=1)
        step *= np.where(longest > optimizer._MAX_STEP, optimizer._MAX_STEP / longest,
                         1.0)[:, None]
        slope = np.sum(grad * step, axis=1)
        t = np.ones(ids.size)
        pending = np.ones(ids.size, dtype=bool)
        for _ in range(optimizer._HALVINGS + 1):
            rows = np.nonzero(pending)[0]
            trial = x[ids[rows]] + t[rows, None] * step[rows]
            ft, gt, ht = objective(ids[rows], trial)
            ok = optimizer._finite(ft, gt, ht) & (
                ft <= f[ids[rows]] + optimizer._ARMIJO * t[rows] * slope[rows])
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
    return optimizer.RowsResult(argmin=x, fmin=f, converged=converged, iterations=iterations,
                                valid=valid, positive_definite=positive_definite,
                                escaped=np.zeros(n_rows, dtype=int))


def counting(objective):
    """`objective` with a list of the rows of each call: (wrapped, calls)."""
    calls = []

    def wrapped(rows, thetas):
        calls.append(len(rows))
        return objective(rows, thetas)
    return wrapped, calls


def assert_same_result(got, want):
    for name in ("argmin", "fmin", "converged", "iterations", "valid", "positive_definite",
                 "escaped"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


class TestNewtonRows:
    RUNS = [("quad", 0.5), ("rosenbrock", None), ("double_well", None), ("nan", None),
            ("quad", -40.0), ("saddle", None)]
    STARTS = [[0.0, 0.0], [-1.2, 1.0], [0.1, 0.3], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]

    def test_minima(self):
        res = newton_rows(newton_objective(self.RUNS), self.STARTS)
        assert list(res.valid) == [True, True, True, False, True, True]
        assert list(res.converged) == [True, True, True, False, True, True]
        # a zero gradient stops the saddle at once, flagged as no minimum
        assert list(res.positive_definite) == [True, True, True, False, True, False]
        assert res.iterations[5] == 0
        assert np.array_equal(res.argmin[0], [0.5, -0.5])
        assert res.iterations[0] == 1  # a quadratic within the step cap: one step
        assert np.max(np.abs(res.argmin[1] - 1.0)) < 1e-7
        # negative curvature at the start: the clamped step still descends
        assert np.max(np.abs(res.argmin[2] - [1.0, 0.0])) < 1e-7
        # the invalid row keeps its start and its value there
        assert np.array_equal(res.argmin[3], [1.0, 1.0]) and np.isnan(res.fmin[3])
        assert res.iterations[3] == 0

    def test_step_cap(self):
        # a minimum 40 away in x: no step moves a coordinate by more than 2
        res = newton_rows(newton_objective(self.RUNS), self.STARTS)
        assert res.converged[4]
        assert 20 <= res.iterations[4] <= 22
        assert np.allclose(res.argmin[4], [-40.0, 40.0])

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_ITERATIONS", 3)
        res = newton_rows(newton_objective(self.RUNS), self.STARTS)
        assert not res.converged[4] and res.iterations[4] == 3
        assert res.converged[0]

    def test_batch_membership_does_not_matter(self):
        objective = newton_objective(self.RUNS)
        batch = newton_rows(objective, self.STARTS)
        for i, start in enumerate(self.STARTS):
            alone = newton_rows(lambda rows, t, i=i: objective(np.full(len(rows), i), t), [start])
            assert np.array_equal(alone.argmin[0], batch.argmin[i], equal_nan=True)
            assert np.array_equal(alone.fmin, batch.fmin[i:i + 1], equal_nan=True)
            assert (alone.converged[0], alone.iterations[0]) == \
                (batch.converged[i], batch.iterations[i])

    def test_three_dimensions(self):
        # a quadratic with a coupled, indefinite Hessian: the general eigensolver path
        hess = np.array([[4.0, 1.0, 0.5], [1.0, -3.0, 0.2], [0.5, 0.2, 2.0]])
        target = np.array([0.3, -0.4, 0.1])

        def objective(rows, thetas):
            d = thetas - target
            f = 0.5 * np.einsum("ri,ij,rj->r", d, hess, d) + np.sum(d**4, axis=1)
            grad = d @ hess + 4.0 * d**3
            h = hess + 12.0 * d[:, :, None] ** 2 * np.eye(3)
            return f, grad, h

        res = newton_rows(objective, np.zeros((2, 3)))
        assert res.converged.all()
        assert np.all(np.isfinite(res.fmin)) and np.all(res.iterations > 1)

    def test_two_by_two_eigensystem(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(2000, 2, 2)) * np.exp(4.0 * rng.normal(size=(2000, 1, 1)))
        h += h.transpose(0, 2, 1)
        h[:4] = [[[2.0, 0.0], [0.0, 20.0]], [[3.0, 1.0], [1.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]],
                 [[-1.0, 2.0], [2.0, 5.0]]]
        lam, vec = optimizer._eigh(h)
        scale = np.maximum(np.max(np.abs(h), axis=(1, 2)), 1e-300)
        assert np.array_equal(lam[0], [2.0, 20.0]) and np.array_equal(vec[0], np.eye(2))
        assert np.max(np.abs(np.einsum("rij,rkj->rik", vec, vec) - np.eye(2))) < 1e-15
        rebuilt = np.einsum("rij,rj,rkj->rik", vec, lam, vec)
        assert np.max(np.max(np.abs(rebuilt - h), axis=(1, 2)) / scale) < 4e-15
        lapack = np.linalg.eigh(h)[0]
        assert np.max(np.max(np.abs(np.sort(lam, axis=1) - lapack), axis=1) / scale) < 4e-15


class TestLineSearchLadder:
    """The batched line search against the one-halving-per-call oracle."""

    # a steep valley: the full step from the start overshoots by far, so
    # every iteration halves many times
    RUNS = TestNewtonRows.RUNS + [("rosenbrock", None)]
    STARTS = TestNewtonRows.STARTS + [[-30.0, 30.0]]

    @pytest.mark.parametrize("block_rows", [1, 2, 4, 163])
    def test_objectives_equal_oracle(self, block_rows):
        ref_objective, ref_calls = counting(newton_objective(self.RUNS))
        want = reference_newton_rows(ref_objective, self.STARTS)
        objective, calls = counting(newton_objective(self.RUNS))
        got = newton_rows(objective, self.STARTS, block_rows=block_rows)
        assert_same_result(got, want)
        # the nan row is invalid, and the step-cap row converges
        assert not got.valid[3] and got.converged[4]
        assert (len(calls) < len(ref_calls)) == (block_rows > 1)

    def test_halving_cap_counts_points(self):
        # f rises along every direction but the gradient says it falls: no
        # point is ever accepted, and each run gives up after 41 points
        def objective(rows, thetas):
            n = len(rows)
            return (np.sum(thetas**2, axis=1), np.tile([-1.0, -1.0], (n, 1)),
                    np.tile(np.eye(2), (n, 1, 1)))

        wrapped, calls = counting(objective)
        got = newton_rows(wrapped, [[0.0, 0.0], [1.0, 0.0]], block_rows=163)
        assert_same_result(got, reference_newton_rows(objective, [[0.0, 0.0], [1.0, 0.0]]))
        assert list(got.iterations) == [1, 1] and not got.converged.any()
        # t = 1 for both, then ten ladders of 4 halvings
        assert calls == [2, 2] + [8] * 10

    def test_gb2_study_rows_equal_oracle(self):
        # the GB2 rows of the first 100 study replications at n = 100, ridge
        # rows that run to the step cap among them
        model = TRUE_MODELS["gb2"]
        ly = np.log(np.array([sample(model, 100, replication_rng(STUDY_SEED, rep))
                              for rep in range(100)]) - model.threshold)
        x0 = np.log([gb2_init(np.exp(row)) for row in ly])
        objective = _newton_objective("gb2", ly, np.sum(ly, axis=1))
        want = reference_newton_rows(objective, x0)
        got = newton_rows(objective, x0, block_rows=163)
        assert_same_result(got, want)
        capped = got.iterations == optimizer._MAX_ITERATIONS
        assert capped.sum() >= 5 and not got.converged[capped].any()
        assert got.converged.sum() >= 50

    def test_escape_test_stops_only_escaping_runs(self):
        # the same 100 runs with GB2's escape test: 27 of the 33 that do not
        # converge stop early, higher up the slope they were descending, and
        # every other run ends bit for bit as without the test
        model = TRUE_MODELS["gb2"]
        y = np.array([sample(model, 100, replication_rng(STUDY_SEED, rep))
                      for rep in range(100)]) - model.threshold
        x0 = np.log([gb2_init(row) for row in y])
        ly = np.log(y)
        objective = _newton_objective("gb2", ly, np.sum(ly, axis=1))
        free = newton_rows(objective, x0, block_rows=163)
        got = newton_rows(objective, x0, block_rows=163,
                          escape=FAMILY_TABLE["gb2"].escape_test(x0))
        stopped = got.escaped > 0
        early = stopped & (got.iterations < free.iterations)
        assert not (stopped & got.converged).any()
        assert early.sum() == 27 and stopped.sum() == 32
        assert not free.converged[stopped].any()
        assert np.all(got.fmin[early] > free.fmin[early])
        for name in ("argmin", "fmin", "converged", "iterations"):
            assert np.array_equal(getattr(got, name)[~early], getattr(free, name)[~early]), name
        capped = got.iterations == optimizer._MAX_ITERATIONS
        assert (~got.converged).sum() == 33 and (capped & ~stopped).sum() == 1
