import math

import numpy as np
import pytest

from tailfit import SeverityModel, asymptotic_covariance, log_likelihood, sample
from tailfit.bootstrap import replication_rng
from tailfit.distributions import FAMILY_TABLE
from tailfit.mle import (
    LOCAL_MINIMUM_RISK,
    WEIBULL_INCONSISTENT,
    DegenerateSample,
    FitError,
    NoConvergence,
    fit,
    fit_gb2,
    fit_loglogistic,
    fit_lognormal,
    fit_pareto,
    fit_rows,
    fit_weibull,
    gb2_init,
    loglogistic_init,
)
from tailfit.optimizer import InvalidStart, nelder_mead

from conftest import STUDY_SEED, TRUE_MODELS

T = 1e5


class TestFitPareto:
    def test_all_at_t_times_e(self):
        res = fit_pareto([T * math.e] * 3, T)
        assert res.model.params[0] == pytest.approx(1.0, rel=1e-12)
        assert res.converged

    def test_half(self):
        res = fit_pareto([T * math.e**2] * 2, T)
        assert res.model.params[0] == pytest.approx(0.5, rel=1e-12)

    def test_scale_equivariance(self):
        xs = np.array([1.3e5, 2.0e5, 9.9e5, 1.07e6])
        a = fit_pareto(xs, T).model.params[0]
        b = fit_pareto(7.0 * xs, 7.0 * T).model.params[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_all_at_threshold(self):
        with pytest.raises(DegenerateSample):
            fit_pareto([T, T, T], T)

    def test_below_threshold_rejected(self):
        with pytest.raises(DegenerateSample):
            fit_pareto([T / 2.0, 2.0 * T], T)


class TestFitLognormal:
    def test_two_points(self):
        res = fit_lognormal([math.e, math.e**3], 0.0)
        mu, sigma = res.model.params
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_shift_removal(self):
        res = fit_lognormal([T + math.e, T + math.e**3], T)
        assert res.model.params == pytest.approx((2.0, 1.0), abs=1e-9)

    def test_divisor_is_n(self):
        xs = np.exp([1.0, 2.0, 4.0])
        sigma = fit_lognormal(xs, 0.0).model.params[1]
        ly = np.log(xs)
        assert sigma == pytest.approx(float(np.std(ly, ddof=0)), rel=1e-12)
        assert sigma != pytest.approx(float(np.std(ly, ddof=1)), rel=1e-6)

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_lognormal([5.0, 5.0, 5.0], 0.0)
        # the rounded mean of ln 5 leaves this sample a spread of ~1e-15
        with pytest.raises(DegenerateSample):
            fit_lognormal([T + 5.0] * 100, T)


class TestFitWeibull:
    def test_self_consistency_at_056(self):
        truth = SeverityModel("weibull", (0.56, 212303.18), 0.0)
        xs = sample(truth, 10_000, np.random.default_rng(101))
        res = fit_weibull(xs, 0.0)
        a, b = res.model.params
        assert abs(reference_weibull_profile(xs)(a)) < 1e-8
        se = math.sqrt(asymptotic_covariance(truth, 10_000)[0, 0])
        assert abs(a - 0.56) < 3.0 * se
        assert WEIBULL_INCONSISTENT in res.warnings

    def test_two_point_grid_oracle(self):
        res = fit_weibull([1.0, math.e], 0.0)
        a_hat, b_hat = res.model.params
        # brute-force maximization of the log-likelihood over a 2000x2000 grid
        a_grid = np.linspace(1.5, 3.5, 2000)
        b_grid = np.linspace(1.5, 3.0, 2000)
        aa = a_grid[:, None]
        bb = b_grid[None, :]
        ll = np.zeros((2000, 2000))
        for y in (1.0, math.e):
            ll += (np.log(aa / bb) + (aa - 1.0) * (math.log(y) - np.log(bb))
                   - (y / bb) ** aa)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        assert abs(a_hat - a_grid[i]) < 2.0 * (a_grid[1] - a_grid[0])
        assert abs(b_hat - b_grid[j]) < 2.0 * (b_grid[1] - b_grid[0])

    def test_stationarity(self):
        truth = SeverityModel("weibull", (2.0, 2e5), T)
        xs = sample(truth, 5000, np.random.default_rng(55))
        res = fit_weibull(xs, T)
        theta = np.asarray(res.model.params)
        grad = np.empty(2)
        for j in range(2):
            h = 1e-6 * theta[j]
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (log_likelihood(res.model.replace_params(dn), xs)
                       - log_likelihood(res.model.replace_params(up), xs)) / (2.0 * h)
        rel = float(np.linalg.norm(grad * theta)) / max(1.0, abs(res.nll))
        assert rel < 1e-4

    def test_no_warning_above_one(self):
        truth = SeverityModel("weibull", (2.0, 2e5), 0.0)
        xs = sample(truth, 2000, np.random.default_rng(9))
        res = fit_weibull(xs, 0.0)
        assert res.model.params[0] > 1.0
        assert WEIBULL_INCONSISTENT not in res.warnings

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_weibull([2.0, 2.0], 0.0)


class TestFitLogLogistic:
    def test_initializer_example(self):
        a0, s0 = loglogistic_init(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert s0 == 3.0
        assert a0 == pytest.approx(math.log(4.0) / math.log(5.0 / 3.0), rel=1e-12)

    def test_mc_recovery(self):
        truth = SeverityModel("loglogistic", (1.0, 84000.0), 0.0)
        xs = sample(truth, 10_000, np.random.default_rng(77))
        res = fit_loglogistic(xs, 0.0)
        cov = asymptotic_covariance(truth, 10_000)
        for j, true_val in enumerate(truth.params):
            assert abs(res.model.params[j] - true_val) < 3.0 * math.sqrt(cov[j, j])

    def test_nll_beats_init(self):
        truth = SeverityModel("loglogistic", (1.7, 5e4), T)
        xs = sample(truth, 500, np.random.default_rng(5))
        res = fit_loglogistic(xs, T)
        y = np.asarray(xs) - T
        init_model = SeverityModel("loglogistic", loglogistic_init(y), T)
        assert res.nll <= -log_likelihood(init_model, xs)


class TestFitGb2:
    TRUTH = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)

    def test_beats_every_start(self):
        xs = sample(self.TRUTH, 2500, np.random.default_rng(13))
        res = fit_gb2(xs, T)
        assert res.start_points_tried == 3
        y = np.asarray(xs) - T
        for scale in (1.0, 1.05, 0.95):
            start = SeverityModel("gb2", tuple(gb2_init(y * scale)), T)
            assert res.nll <= -log_likelihood(start, xs) + 1e-9

    def test_beats_nested_loglogistic(self):
        nested = SeverityModel("gb2", (1.2, 6e4, 1.0, 1.0), T)
        xs = sample(nested, 2000, np.random.default_rng(14))
        gb2 = fit_gb2(xs, T)
        ll = fit_loglogistic(xs, T)
        a, s = ll.model.params
        competitor = SeverityModel("gb2", (a, s, 1.0, 1.0), T)
        assert gb2.nll <= -log_likelihood(competitor, xs) + 1e-6

    def test_initializer_scale_equivariance(self):
        y = np.asarray(sample(self.TRUTH, 400, np.random.default_rng(15))) - T
        base = gb2_init(y)
        scaled = gb2_init(y * 1.05)
        assert scaled[1] == pytest.approx(1.05 * base[1], rel=1e-12)
        assert scaled[2:] == pytest.approx(base[2:])

    def test_warning_set_type(self):
        xs = sample(self.TRUTH, 300, np.random.default_rng(16))
        res = fit_gb2(xs, T)
        assert res.warnings <= {LOCAL_MINIMUM_RISK}


class TestDispatch:
    def test_dispatch_matches_pareto(self):
        xs = [1.2e5, 3.3e5, 8.8e5]
        assert fit("pareto", xs, T).model == fit_pareto(xs, T).model

    def test_empty(self):
        for family in ("pareto", "weibull", "lognormal", "loglogistic", "gb2"):
            with pytest.raises(DegenerateSample):
                fit(family, [], T)

    def test_lognormal_at_or_below_threshold(self):
        with pytest.raises(DegenerateSample):
            fit("lognormal", [T, 2.0 * T], T)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            fit("normal", [1.0], 0.0)


def assert_same_outcome(batched, family, xs):
    """A fit_rows entry equals the one-sample fit of its row: the same
    exception class, or bit-identical parameters and nll, and the same flags."""
    try:
        one = fit(family, xs, T)
    except (FitError, InvalidStart) as exc:
        assert type(batched) is type(exc)
        return
    assert not isinstance(batched, Exception)
    assert batched.model.params == one.model.params
    assert batched.nll == one.nll
    assert batched.converged == one.converged
    assert batched.warnings == one.warnings
    assert (batched.n, batched.start_points_tried) == (one.n, one.start_points_tried)


def reference_weibull_profile(y):
    """g(a) = sum y^a ln y / sum y^a - 1/a - mean(ln y) of one sample: the
    Weibull profile-likelihood equation in the shape."""
    ly = np.log(y)
    mean_ly = float(np.mean(ly))

    def g(a):
        w = a * ly
        e = np.exp(w - np.max(w))
        return float(np.sum(e * ly) / np.sum(e)) - 1.0 / a - mean_ly

    return g


def reference_weibull_shape(y):
    """The one-sample grid scan and bisection that the Newton root search
    replaced, kept as its oracle.  Its bracket ends within 1e-12 max(1, a)."""
    g = reference_weibull_profile(y)
    grid = np.geomspace(1e-3, 1e3, 200)
    vals = np.array([g(a) for a in grid])
    i = np.nonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0][0]
    lo, hi = grid[i], grid[i + 1]
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFitRows:
    """fit_rows fits many samples at once; every row equals its one-sample fit."""

    @staticmethod
    def mixed_rows(family):
        model = TRUE_MODELS[family]
        # the study's first replications: at n = 100 GB2 drops 1, 5, 6 and 7,
        # whose starts all hit the iteration cap
        xs = np.array([sample(model, 100, replication_rng(STUDY_SEED, rep)) for rep in range(8)])
        xs[2] = T if family == "pareto" else T + 1.0  # all values equal
        xs[3, 0] = 0.5 * T                             # a value below the threshold
        return xs

    @pytest.mark.parametrize("family", list(TRUE_MODELS))
    def test_mixed_rows_match_one_sample_fits(self, family):
        xs = self.mixed_rows(family)
        outcomes = fit_rows(family, xs, T)
        assert len(outcomes) == len(xs)
        for x, outcome in zip(xs, outcomes):
            assert_same_outcome(outcome, family, x)
        assert isinstance(outcomes[3], DegenerateSample)
        expected_equal_row = {"loglogistic": InvalidStart, "gb2": NoConvergence}
        assert isinstance(outcomes[2], expected_equal_row.get(family, DegenerateSample))
        if family == "gb2":
            assert all(isinstance(outcomes[i], NoConvergence) for i in (1, 5, 6, 7))
        if family == "weibull":
            # the oracle's bisection stops within its own 1e-12 tolerance
            for i in (0, 1, 4, 5, 6, 7):
                ref = reference_weibull_shape(xs[i] - T)
                assert abs(outcomes[i].model.params[0] - ref) <= 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("family", ["weibull", "loglogistic"])
    def test_newton_never_above_nelder_mead(self, family):
        # the one-run Nelder-Mead on the package's own likelihood stops short
        # of Newton: from the log-logistic fit's start, or from (1, median y)
        xs = self.mixed_rows(family)
        fitted = [(x, o) for x, o in zip(xs, fit_rows(family, xs, T))
                  if not isinstance(o, Exception)]
        assert len(fitted) == 6
        for x, res in fitted:
            y = x - T
            start = loglogistic_init(y) if family == "loglogistic" else (1.0, float(np.median(y)))

            def nll(theta, x=x, model=res.model):
                if np.any(theta <= 0.0):
                    return 1e10
                return -log_likelihood(model.replace_params(theta), x)

            nm = nelder_mead(nll, np.array(start))
            assert nm.converged
            assert nll(np.array(res.model.params)) <= nm.fmin

    def test_gb2_row_with_one_invalid_start(self):
        # median and maximum one ulp apart: scaled by 0.95 they round together
        base = 239353.6768384192
        x = np.array([1.1e5, 1.2e5, 1.3e5, 1.4e5] + [base] * 4 + [np.nextafter(base, np.inf)])
        y = x - T
        gb2_init(y)
        gb2_init(y * 1.05)
        with pytest.raises(InvalidStart):
            gb2_init(y * 0.95)
        truth = TRUE_MODELS["gb2"]
        xs = np.vstack([x, sample(truth, 9, np.random.default_rng(3)), np.full(9, 2.0 * T)])
        outcomes = fit_rows("gb2", xs, T)
        for row, outcome in zip(xs, outcomes):
            assert_same_outcome(outcome, "gb2", row)

    def test_empty_batch_and_unknown_family(self):
        assert fit_rows("gb2", np.empty((0, 20)), T) == []
        with pytest.raises(ValueError):
            fit_rows("normal", np.ones((2, 3)), 0.0)


class TestLogLogisticLikelihood:
    """The log-likelihood with its score and Hessian in (ln a, ln s) that
    the Newton fit maximizes."""

    CASES = [((1.0, 84000.0), 100, 1), ((1.7, 5e4), 2500, 2), ((0.4, 3e5), 40, 3)]

    @staticmethod
    def loglik(lt, y):
        ly = np.log(y)
        ll, score, hess = FAMILY_TABLE["loglogistic"].loglik_rows(
            np.array([lt]), ly[None, :], np.array([np.sum(ly)]))
        return ll[0], score[0], hess[0]

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_equals_log_likelihood(self, params, n, seed):
        model = SeverityModel("loglogistic", params, T)
        xs = sample(model, n, np.random.default_rng(seed))
        for scale in (1.0, 1.3, 0.6):
            a, s = params[0] * scale, params[1] / scale
            ll = self.loglik(np.log([a, s]), xs - T)[0]
            want = log_likelihood(model.replace_params((a, s)), xs)
            assert abs(ll - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_derivatives_against_central_differences(self, params, n, seed):
        model = SeverityModel("loglogistic", params, T)
        y = sample(model, n, np.random.default_rng(seed)) - T
        h = 1e-5
        for scale in (1.0, 1.3, 0.6):
            lt = np.log([params[0] * scale, params[1] / scale])
            _, score, hess = self.loglik(lt, y)
            fd_score, fd_hess = np.empty(2), np.empty((2, 2))
            for j in range(2):
                up, dn = lt.copy(), lt.copy()
                up[j] += h
                dn[j] -= h
                (l_up, s_up, _), (l_dn, s_dn, _) = self.loglik(up, y), self.loglik(dn, y)
                fd_score[j] = (l_up - l_dn) / (2.0 * h)
                fd_hess[:, j] = (s_up - s_dn) / (2.0 * h)
            assert np.max(np.abs(fd_score - score)) <= 1e-6 * np.max(np.abs(score))
            assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * np.max(np.abs(hess))


class TestClosedFormIsGlobalOptimum:
    """Nelder-Mead from a perturbed start cannot beat the closed forms."""

    def test_pareto(self):
        truth = SeverityModel("pareto", (1.11,), T)
        for seed in range(5):
            xs = sample(truth, 200, np.random.default_rng(1000 + seed))
            closed = fit_pareto(xs, T)

            def nll(theta):
                if theta[0] <= 0.0:
                    return 1e10
                return -log_likelihood(closed.model.replace_params(theta), xs)

            res = nelder_mead(nll, np.array([1.4 * closed.model.params[0]]))
            assert abs(res.fmin - closed.nll) < 1e-6

    def test_lognormal(self):
        truth = SeverityModel("lognormal", (11.3, 1.8), T)
        for seed in range(5):
            xs = sample(truth, 200, np.random.default_rng(2000 + seed))
            closed = fit_lognormal(xs, T)

            def nll(theta):
                if theta[1] <= 0.0:
                    return 1e10
                return -log_likelihood(closed.model.replace_params(theta), xs)

            start = np.asarray(closed.model.params) * np.array([1.2, 0.8])
            res = nelder_mead(nll, start)
            assert abs(res.fmin - closed.nll) < 1e-6


@pytest.mark.slow
class TestConsistencySweep:
    """Median fitted parameter over 200 replications at n = 10,000."""

    REPS = 200
    N = 10_000

    def _medians(self, truth: SeverityModel, reps=REPS, n=N) -> np.ndarray:
        fits = []
        for rep in range(reps):
            rng = np.random.default_rng((sum(map(ord, truth.family)), rep))
            xs = sample(truth, n, rng)
            fits.append(fit(truth.family, xs, truth.threshold).model.params)
        return np.median(np.asarray(fits), axis=0)

    @pytest.mark.parametrize("family,params", [
        ("pareto", (1.11,)),
        ("lognormal", (11.3, 1.8)),
        ("loglogistic", (1.0, 84000.0)),
        ("weibull", (2.0, 2e5)),
    ])
    def test_regular_families(self, family, params):
        truth = SeverityModel(family, params, T)
        med = self._medians(truth)
        assert np.max(np.abs(med / np.asarray(params) - 1.0)) < 0.02

    def test_weibull_heavy_shape(self):
        # a = 0.56: the paper warns MLE degrades here; only a loose band holds
        truth = SeverityModel("weibull", (0.56, 212303.18), T)
        med = self._medians(truth)
        assert abs(med[0] / 0.56 - 1.0) < 0.15

    def test_gb2(self):
        truth = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)
        med = self._medians(truth)
        assert np.max(np.abs(med / np.asarray(truth.params) - 1.0)) < 0.02
