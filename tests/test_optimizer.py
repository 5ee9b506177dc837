import numpy as np
import pytest

from tailfit.optimizer import InvalidStart, nelder_mead, nelder_mead_rows


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
    """The one-run loop that nelder_mead_rows replaced, kept as its oracle:
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


class TestNelderMeadRows:
    """Many runs in lockstep equal the same runs made one at a time, bit for bit."""

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

    @staticmethod
    def rows_objective(runs):
        return lambda rows, thetas: [runs[r][0](theta) for r, theta in zip(rows, thetas)]

    def assert_rows_match_single_runs(self, runs, **kwargs):
        res = nelder_mead_rows(self.rows_objective(runs), [x0 for _, x0 in runs], **kwargs)
        for i, (f, x0) in enumerate(runs):
            if not res.valid[i]:
                with pytest.raises(InvalidStart):
                    nelder_mead(f, np.array(x0), **kwargs)
                assert reference_nelder_mead(f, x0, **kwargs) is None
                assert res.iterations[i] == 0 and not res.converged[i]
                continue
            one = nelder_mead(f, np.array(x0), **kwargs)
            assert np.array_equal(res.argmin[i], one.argmin)
            assert res.fmin[i] == one.fmin
            assert bool(res.converged[i]) == one.converged
            assert res.iterations[i] == one.iterations
            argmin, fmin, converged, iterations = reference_nelder_mead(f, x0, **kwargs)
            assert np.array_equal(one.argmin, argmin)
            assert (one.fmin, one.converged, one.iterations) == (fmin, converged, iterations)
        return res

    def test_rows_equal_single_runs(self):
        res = self.assert_rows_match_single_runs(self.RUNS)
        assert list(res.valid) == [True] * 5 + [False, True]
        assert res.converged[[0, 1, 2, 3, 4, 6]].all()
        assert len(set(res.iterations[[0, 1, 2, 3, 6]].tolist())) == 5
        assert res.iterations[4] == 0  # the whole simplex lies on the plateau
        assert res.fmin[3] < 1e-8 and res.argmin[3][0] > 0.0

    def test_small_cap(self):
        res = self.assert_rows_match_single_runs(self.RUNS, max_iterations=60)
        assert res.converged[[0, 3, 4]].all() and (res.iterations[[0, 3]] < 60).all()
        assert not res.converged[[1, 2, 6]].any() and (res.iterations[[1, 2, 6]] == 60).all()

    def test_batch_membership_does_not_matter(self):
        full = nelder_mead_rows(self.rows_objective(self.RUNS), [x0 for _, x0 in self.RUNS])
        order = [6, 2, 0]
        runs = [self.RUNS[i] for i in order]
        part = nelder_mead_rows(self.rows_objective(runs), [x0 for _, x0 in runs])
        assert np.array_equal(part.argmin, full.argmin[order])
        assert np.array_equal(part.fmin, full.fmin[order])
        assert np.array_equal(part.iterations, full.iterations[order])

    def test_all_invalid(self):
        res = nelder_mead_rows(lambda rows, thetas: [float("nan")] * len(rows), np.ones((3, 2)))
        assert not res.valid.any() and not res.converged.any()
        assert np.array_equal(res.argmin, np.ones((3, 2)))
