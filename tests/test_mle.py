import math
import sys

import numpy as np
import pytest

from tailfit import SeverityModel, asymptotic_covariance, log_likelihood, mle, optimizer, sample
from tailfit.bootstrap import replication_rng
from tailfit.distributions import FAMILY_TABLE, logistic_sums
from tailfit.mle import (
    ENDINGS,
    LOCAL_MINIMUM_RISK,
    OUTCOMES,
    WEIBULL_INCONSISTENT,
    DegenerateSample,
    FitError,
    NestedLimit,
    NoConvergence,
    _newton_objective,
    fit,
    fit_rows,
)
from tailfit.optimizer import InvalidStart, nelder_mead, newton_rows
from tailfit.special_functions import libm_log

from conftest import STUDY_SEED, TRUE_MODELS, gb2_init, log_start, loglogistic_init

T = 1e5


class TestFitPareto:
    def test_all_at_t_times_e(self):
        res = fit("pareto", [T * math.e] * 3, T)
        assert res.model.params[0] == pytest.approx(1.0, rel=1e-12)
        assert res.converged

    def test_half(self):
        res = fit("pareto", [T * math.e**2] * 2, T)
        assert res.model.params[0] == pytest.approx(0.5, rel=1e-12)

    def test_scale_equivariance(self):
        xs = np.array([1.3e5, 2.0e5, 9.9e5, 1.07e6])
        a = fit("pareto", xs, T).model.params[0]
        b = fit("pareto", 7.0 * xs, 7.0 * T).model.params[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_degenerate_all_at_threshold(self):
        with pytest.raises(DegenerateSample):
            fit("pareto", [T, T, T], T)

    def test_below_threshold_rejected(self):
        with pytest.raises(DegenerateSample):
            fit("pareto", [T / 2.0, 2.0 * T], T)


class TestFitLognormal:
    def test_two_points(self):
        res = fit("lognormal", [math.e, math.e**3], 0.0)
        mu, sigma = res.model.params
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_shift_removal(self):
        res = fit("lognormal", [T + math.e, T + math.e**3], T)
        assert res.model.params == pytest.approx((2.0, 1.0), abs=1e-9)

    def test_divisor_is_n(self):
        xs = np.exp([1.0, 2.0, 4.0])
        sigma = fit("lognormal", xs, 0.0).model.params[1]
        ly = np.log(xs)
        assert sigma == pytest.approx(float(np.std(ly, ddof=0)), rel=1e-12)
        assert sigma != pytest.approx(float(np.std(ly, ddof=1)), rel=1e-6)

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit("lognormal", [5.0, 5.0, 5.0], 0.0)
        # the rounded mean of ln 5 leaves this sample a spread of ~1e-15
        with pytest.raises(DegenerateSample):
            fit("lognormal", [T + 5.0] * 100, T)


class TestFitWeibull:
    def test_self_consistency_at_056(self):
        truth = SeverityModel("weibull", (0.56, 212303.18), 0.0)
        xs = sample(truth, 10_000, np.random.default_rng(101))
        res = fit("weibull", xs, 0.0)
        a, b = res.model.params
        assert abs(reference_weibull_profile(xs)(a)) < 1e-8
        se = math.sqrt(asymptotic_covariance(truth, 10_000)[0, 0])
        assert abs(a - 0.56) < 3.0 * se
        assert WEIBULL_INCONSISTENT in res.warnings

    def test_two_point_grid_oracle(self):
        res = fit("weibull", [1.0, math.e], 0.0)
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
        res = fit("weibull", xs, T)
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
        res = fit("weibull", xs, 0.0)
        assert res.model.params[0] > 1.0
        assert WEIBULL_INCONSISTENT not in res.warnings

    def test_all_equal_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit("weibull", [2.0, 2.0], 0.0)

    # logs spanning the whole double range: g(1e-3) < 0 still holds, which the
    # root search takes for granted, and the root lies inside [1e-3, 1e3]
    @pytest.mark.parametrize("xs", [[5e-324, sys.float_info.max],
                                    [1e-300] * 50 + [1e300] * 50],
                             ids=["two_extremes", "fifty_each"])
    def test_extreme_samples_bracketed(self, xs):
        g = reference_weibull_profile(np.array(xs))
        assert g(1e-3) < 0.0 < g(1e3)
        a, _ = fit("weibull", xs, 0.0).model.params
        assert 1e-3 < a < 1e3
        assert abs(g(a)) < 1e-9


class TestFitLogLogistic:
    def test_initializer_example(self):
        a0, s0 = loglogistic_init(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert s0 == 3.0
        assert a0 == pytest.approx(math.log(4.0) / math.log(5.0 / 3.0), rel=1e-12)

    def test_mc_recovery(self):
        truth = SeverityModel("loglogistic", (1.0, 84000.0), 0.0)
        xs = sample(truth, 10_000, np.random.default_rng(77))
        res = fit("loglogistic", xs, 0.0)
        cov = asymptotic_covariance(truth, 10_000)
        for j, true_val in enumerate(truth.params):
            assert abs(res.model.params[j] - true_val) < 3.0 * math.sqrt(cov[j, j])

    def test_nll_beats_init(self):
        truth = SeverityModel("loglogistic", (1.7, 5e4), T)
        xs = sample(truth, 500, np.random.default_rng(5))
        res = fit("loglogistic", xs, T)
        y = np.asarray(xs) - T
        init_model = SeverityModel("loglogistic", loglogistic_init(y), T)
        assert res.nll <= -log_likelihood(init_model, xs)


class TestFitGb2:
    TRUTH = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)

    def test_beats_every_start(self):
        # the start, and the starts of the data rescaled by +-5%
        xs = sample(self.TRUTH, 2500, np.random.default_rng(13))
        res = fit("gb2", xs, T)
        assert res.warnings == set()
        y = np.asarray(xs) - T
        for scale in (1.0, 1.05, 0.95):
            start = SeverityModel("gb2", tuple(gb2_init(y * scale)), T)
            assert res.nll <= -log_likelihood(start, xs) + 1e-9

    def test_beats_nested_loglogistic(self):
        nested = SeverityModel("gb2", (1.2, 6e4, 1.0, 1.0), T)
        xs = sample(nested, 2000, np.random.default_rng(14))
        gb2 = fit("gb2", xs, T)
        ll = fit("loglogistic", xs, T)
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
        res = fit("gb2", xs, T)
        assert res.warnings <= {LOCAL_MINIMUM_RISK}


class TestDispatch:
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


def gb2_study_replication(rep):
    """Replication `rep` of the study's GB2 n = 100 cell."""
    return sample(TRUE_MODELS["gb2"], 100, replication_rng(STUDY_SEED, rep))


# Every way a fit ends without an estimate that a sample reaches: the sample,
# the exception `fit` raises, its exact message and its other attributes.  No
# sample tried reaches the other two endings: a converged Newton optimum that
# exp takes outside (0, inf), and a start at which the log-likelihood, its
# score or its Hessian is not finite.
FIT_ENDINGS = {
    "row_check_empty": ("pareto", lambda: [], T, DegenerateSample,
                        "pareto fit needs at least 1 finite values in its support above "
                        "T=100000.0", {}),
    "row_check_nan": ("gb2", lambda: [2e5] * 8 + [np.nan], T, DegenerateSample,
                      "gb2 fit needs at least 8 finite values in its support above T=100000.0",
                      {}),
    "pareto_at_threshold": ("pareto", lambda: [T] * 3, T, DegenerateSample,
                            "all observations at the threshold; shape is infinite", {}),
    "lognormal_zero_variance": ("lognormal", lambda: [T + 5.0] * 100, T, DegenerateSample,
                                "zero variance in log data", {}),
    "weibull_constant": ("weibull", lambda: [2.0, 2.0], 0.0, DegenerateSample,
                         "weibull fit needs 2 distinct observations", {}),
    "weibull_not_bracketed": ("weibull", lambda: [1.0, 1.0 + 1e-9], 0.0, NoConvergence,
                              "weibull profile root not bracketed in [1e-3, 1e3]", {}),
    "newton_unconverged": ("gb2", lambda: gb2_study_replication(91), T, NoConvergence,
                           "gb2 Newton stopped unconverged after 100 steps at "
                           "(0.09614641889921027, 142179085510.96237, 44.35264777558784, "
                           "175.59607941657663)", {}),
    "max_at_median": ("loglogistic", lambda: [T + 1.0] * 5, T, InvalidStart,
                      "max(y) must exceed median(y)", {}),
    # max / median overflows to inf, so a0 = 0
    "unusable_start": ("loglogistic", lambda: [1e-300] * 4 + [1e300], 0.0, InvalidStart,
                       "loglogistic start point (0.0, 1e-300) is unusable", {}),
    "nested_limit": ("gb2", lambda: gb2_study_replication(1), T, NestedLimit,
                     "gb2 Newton escaped toward boundary_gg after 21 steps at "
                     "(0.2652067597300243, 470150181.21602404, 5.139318584380814, "
                     "44.48164926288894)",
                     {"limit": "boundary_gg",
                      "params": (0.2652067597300243, 470150181.21602404, 5.139318584380814,
                                 44.48164926288894),
                      "nll": 1352.211506417741}),
}


@pytest.mark.parametrize("case", list(FIT_ENDINGS))
def test_fit_endings_raise_their_class_and_message(case):
    family, xs, threshold, error, message, attributes = FIT_ENDINGS[case]
    with np.errstate(over="ignore"), pytest.raises(FitError) as raised:
        fit(family, xs(), threshold)
    assert type(raised.value) is error
    assert str(raised.value) == message
    for name, value in attributes.items():
        assert getattr(raised.value, name) == value, name


def errors(rows):
    """The FitError class that ends each row of a fit_rows record, None for
    an estimate."""
    return [ENDINGS[e].error for e in rows.ending.tolist()]


def assert_same_outcome(rows, i, family, xs):
    """Row i of a fit_rows record equals the fit of its sample alone: the same
    ending and bit-identical columns, and for an estimate `fit`'s parameters."""
    one = fit_rows(family, np.asarray(xs)[None, :], T)
    assert rows.ending[i] == one.ending[0]
    for column in ("params", "nll", "iterations", "warnings"):
        assert np.array_equal(getattr(rows, column)[i], getattr(one, column)[0],
                              equal_nan=True), column
    if ENDINGS[rows.ending[i]].error is None:
        assert tuple(rows.params[i].tolist()) == fit(family, xs, T).model.params


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
        # the study's first replications: at n = 100 the GB2 likelihood of
        # 1, 5, 6 and 7 rises toward a limit of the family, and Newton stops
        # unconverged
        xs = np.array([sample(model, 100, replication_rng(STUDY_SEED, rep)) for rep in range(8)])
        xs[2] = T if family == "pareto" else T + 1.0  # all values equal
        xs[3, 0] = 0.5 * T                             # a value below the threshold
        return xs

    @pytest.mark.parametrize("family", list(TRUE_MODELS))
    def test_mixed_rows_match_one_sample_fits(self, family):
        xs = self.mixed_rows(family)
        rows = fit_rows(family, xs, T)
        assert rows.ending.shape == (len(xs),)
        assert rows.params.shape == (len(xs), len(TRUE_MODELS[family].params))
        for i, x in enumerate(xs):
            assert_same_outcome(rows, i, family, x)
        ends = errors(rows)
        assert ends[3] is DegenerateSample
        expected_equal_row = {"loglogistic": InvalidStart, "gb2": InvalidStart}
        assert ends[2] is expected_equal_row.get(family, DegenerateSample)
        if family == "gb2":
            assert all(issubclass(ends[i], NoConvergence) for i in (1, 5, 6, 7))
        if family == "weibull":
            # the oracle's bisection stops within its own 1e-12 tolerance
            for i in (0, 1, 4, 5, 6, 7):
                ref = reference_weibull_shape(xs[i] - T)
                assert abs(rows.params[i, 0] - ref) <= 1e-12 * max(1.0, ref)

    @pytest.mark.parametrize("family", ["weibull", "loglogistic", "gb2"])
    def test_newton_never_above_nelder_mead(self, family):
        # the one-run Nelder-Mead on the package's own likelihood stops short
        # of Newton: from the fit's own start, or from (1, median y)
        xs = self.mixed_rows(family)
        rows = fit_rows(family, xs, T)
        fitted = [(x, SeverityModel(family, tuple(p), T))
                  for x, p, e in zip(xs, rows.params, errors(rows)) if e is None]
        assert len(fitted) == (2 if family == "gb2" else 6)
        starts = {"loglogistic": loglogistic_init, "gb2": gb2_init,
                  "weibull": lambda y: (1.0, float(np.median(y)))}
        for x, model in fitted:
            start = starts[family](x - T)

            def nll(theta, x=x, model=model):
                if np.any(theta <= 0.0):
                    return 1e10
                return -log_likelihood(model.replace_params(theta), x)

            nm = nelder_mead(nll, np.array(start))
            assert nm.converged
            assert nll(np.array(model.params)) <= nm.fmin

    def test_empty_batch_and_unknown_family(self):
        rows = fit_rows("gb2", np.empty((0, 20)), T)
        assert rows.ending.shape == (0,) and rows.params.shape == (0, 4)
        with pytest.raises(ValueError):
            fit_rows("normal", np.ones((2, 3)), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", list(TRUE_MODELS))
    def test_non_finite_values_are_degenerate(self, family):
        # a non-finite value ends only its own row, and warns of nothing
        xs = np.array([[2, 3, v, 5, 9, 4, 6, 7, 8, 10] for v in (np.inf, np.nan, -np.inf, 11)])
        ends = errors(fit_rows(family, xs, 1.0))
        assert ends[:3] == [DegenerateSample] * 3
        assert ends[3] is not DegenerateSample

    # the fewest values each family fits
    MIN_N = {"pareto": 1, "weibull": 2, "lognormal": 2, "loglogistic": 3, "gb2": 8}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["too_few", "fewest", "at_threshold"])
    @pytest.mark.parametrize("family", list(TRUE_MODELS))
    def test_row_check_edges(self, family, case):
        # too few values, the fewest distinct ones inside the support, and
        # those plus T, which only Pareto's closed support holds
        distinct = T + 1e4 * np.arange(1.0, self.MIN_N[family] + 1.0)
        row = {"too_few": distinct[1:], "fewest": distinct,
               "at_threshold": np.append(T, distinct)}[case]
        # beside a row of NaN, which fails the check at any length
        rows = fit_rows(family, np.array([row, np.full_like(row, np.nan), row]), T)
        degenerate = case == "too_few" or (case == "at_threshold" and family != "pareto")
        ends = errors(rows)
        for i in (0, 2):
            assert (ends[i] is DegenerateSample) == degenerate
            assert_same_outcome(rows, i, family, row)
        assert ends[1] is DegenerateSample


class TestBatchedPaths:
    """`fit` runs the batched code as well, so comparing a row of `fit_rows`
    with `fit` cannot catch a slip in it; these compare it with one-sample
    oracles instead."""

    @pytest.mark.parametrize("family", ["pareto", "weibull", "lognormal"])
    def test_nll_equals_log_likelihood(self, family):
        # the nll of a fit without Newton: the batched log-density pass
        model = TRUE_MODELS[family]
        for n, reps in ((3, 200), (100, 300), (2500, 30), (40_000, 1)):
            xs = np.array([sample(model, n, replication_rng(STUDY_SEED, rep))
                           for rep in range(reps)])
            rows = fit_rows(family, xs, T)
            fitted = np.array([e is None for e in errors(rows)])
            assert fitted.sum() >= 0.9 * reps
            nll = mle._nll_rows(family, rows.params[fitted], xs[fitted], T)
            for x, params, got in zip(xs[fitted], rows.params[fitted], nll):
                assert got == -log_likelihood(SeverityModel(family, tuple(params), T), x)

    @pytest.mark.parametrize("family,init", [("loglogistic", loglogistic_init),
                                             ("gb2", gb2_init)])
    @pytest.mark.parametrize("n", [9, 100])
    def test_starts_equal_one_sample_starts(self, family, init, n):
        model = TRUE_MODELS[family]
        y = np.array([sample(model, n, replication_rng(STUDY_SEED, rep))
                      for rep in range(300)]) - T
        y[1] = 7.0  # max(y) does not exceed the median
        y[2, :-1], y[2, -1] = 1e-300, 1e300  # max / median is inf, so a0 = 0
        with np.errstate(over="ignore"):
            starts, ending = mle._log_starts(family, y)
        for row, start, code in zip(y, starts, ending.tolist()):
            try:
                with np.errstate(over="ignore"):
                    want = log_start(family, init, row)
            except InvalidStart as exc:
                assert ENDINGS[code].error is InvalidStart
                assert ENDINGS[code].message.format(
                    family=family, point=tuple(start.tolist())) == str(exc)
                continue
            assert ENDINGS[code].error is None and libm_log(start).tolist() == want
        assert [ENDINGS[code].error for code in ending[1:3]] == [InvalidStart] * 2


def loglik_one(family, lt, y):
    """`loglik_rows` of one sample y at log-parameters lt."""
    ly = np.log(y)[None, :]
    lt = np.array([lt])
    ll, score, hess = FAMILY_TABLE[family].loglik_rows(
        lt, logistic_sums(lt, ly), ly.shape[1], np.sum(ly, axis=1))
    return ll[0], score[0], hess[0]


def assert_loglik_equals_log_likelihood(model, xs):
    ll = loglik_one(model.family, np.log(model.params), xs - T)[0]
    want = log_likelihood(model, xs)
    assert abs(ll - want) <= 1e-12 * abs(want)


def assert_derivatives_match_central_differences(family, lt, y, h=1e-5):
    _, score, hess = loglik_one(family, lt, y)
    k = lt.size
    fd_score, fd_hess = np.empty(k), np.empty((k, k))
    for j in range(k):
        up, dn = lt.copy(), lt.copy()
        up[j] += h
        dn[j] -= h
        (l_up, s_up, _), (l_dn, s_dn, _) = loglik_one(family, up, y), loglik_one(family, dn, y)
        fd_score[j] = (l_up - l_dn) / (2.0 * h)
        fd_hess[:, j] = (s_up - s_dn) / (2.0 * h)
    assert np.max(np.abs(fd_score - score)) <= 1e-6 * np.max(np.abs(score))
    assert np.max(np.abs(fd_hess - hess)) <= 1e-6 * np.max(np.abs(hess))


class TestLogLogisticLikelihood:
    """The log-likelihood with its score and Hessian in (ln a, ln s) that
    the Newton fit maximizes."""

    CASES = [((1.0, 84000.0), 100, 1), ((1.7, 5e4), 2500, 2), ((0.4, 3e5), 40, 3)]

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_equals_log_likelihood(self, params, n, seed):
        model = SeverityModel("loglogistic", params, T)
        xs = sample(model, n, np.random.default_rng(seed))
        for scale in (1.0, 1.3, 0.6):
            a, s = params[0] * scale, params[1] / scale
            assert_loglik_equals_log_likelihood(model.replace_params((a, s)), xs)

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_derivatives_against_central_differences(self, params, n, seed):
        model = SeverityModel("loglogistic", params, T)
        y = sample(model, n, np.random.default_rng(seed)) - T
        for scale in (1.0, 1.3, 0.6):
            lt = np.log([params[0] * scale, params[1] / scale])
            assert_derivatives_match_central_differences("loglogistic", lt, y)


class TestGb2Likelihood:
    """The log-likelihood with its score and Hessian in (ln a, ln b, ln p,
    ln q) that the Newton fit maximizes."""

    CASES = [((0.837, 117516.887, 1.184, 1.454), 100, 1), ((2.0, 5e4, 0.7, 3.0), 2500, 2),
             ((0.5, 3e5, 4.0, 0.6), 40, 3)]
    SCALES = (np.ones(4), np.array([1.3, 1 / 1.3, 1.3, 1 / 1.3]),
              np.array([0.6, 1 / 0.6, 0.6, 1 / 0.6]))

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_equals_log_likelihood(self, params, n, seed):
        model = SeverityModel("gb2", params, T)
        xs = sample(model, n, np.random.default_rng(seed))
        for scale in self.SCALES:
            assert_loglik_equals_log_likelihood(model.replace_params(params * scale), xs)

    @pytest.mark.parametrize("params,n,seed", CASES)
    def test_derivatives_against_central_differences(self, params, n, seed):
        model = SeverityModel("gb2", params, T)
        y = sample(model, n, np.random.default_rng(seed)) - T
        for scale in self.SCALES:
            assert_derivatives_match_central_differences("gb2", np.log(params * scale), y)

    def test_likelihood_rises_past_nelder_mead_on_a_dropped_replication(self, monkeypatch):
        # study replication 50 at n = 100: Nelder-Mead from the fit's start
        # reports convergence, but the likelihood keeps rising past its stop
        # as b -> 0 and p -> infinity, toward the inverse generalized gamma
        model = TRUE_MODELS["gb2"]
        x = sample(model, 100, replication_rng(STUDY_SEED, 50))
        with pytest.raises(NoConvergence):
            fit("gb2", x, T)

        def nll(theta):
            if np.any(theta <= 0.0):
                return 1e10
            return -log_likelihood(model.replace_params(theta), x)

        nm = nelder_mead(nll, gb2_init(x - T))
        assert nm.converged
        ly = np.log(x - T)
        objective = _newton_objective("gb2", ly[None, :], np.array([np.sum(ly)]))
        path = [nm.argmin]
        for cap in (10, 20, 40, 100):
            monkeypatch.setattr(optimizer, "_MAX_ITERATIONS", cap)
            res = newton_rows(objective, np.log(nm.argmin)[None, :])
            assert not res.converged[0]
            path.append(np.exp(res.argmin[0]))
        nlls = [nll(theta) for theta in path]
        assert all(b < a for a, b in zip(nlls, nlls[1:]))
        assert nlls[0] - nlls[-1] > 0.2
        b, p = np.array(path)[:, 1], np.array(path)[:, 2]
        assert np.all(np.diff(b) < 0.0) and np.all(np.diff(p) > 0.0)
        assert b[-1] < 1e-10 * b[0] and p[-1] > 1e3 * p[0]


def prentice_nll(theta, y):
    """The negative log-likelihood of Prentice's (1974) generalized gamma at
    (mu, ln sigma, Q) for y > 0: with w = (ln y - mu) / sigma,
        ln f(y) = -ln(sigma y) + ln|Q| (1 - 2/Q^2) + (Q w - e^(Q w)) / Q^2 - lgamma(1/Q^2).
    Q > 0 is Stacy's generalized gamma, Q < 0 the inverse one (-ln y has -Q)
    and Q -> 0 the lognormal."""
    mu, log_sigma, q = theta
    if q == 0.0:
        return math.inf
    ly = np.log(y)
    qw = q * (ly - mu) / math.exp(log_sigma)
    nll = -np.sum(-log_sigma - ly + math.log(abs(q)) * (1.0 - 2.0 / q**2)
                  + (qw - np.exp(qw)) / q**2 - math.lgamma(q**-2))
    return nll if np.isfinite(nll) else math.inf


def prentice_start(limit, a, b, p, q):
    """The generalized gamma a GB2 point approaches as q -> inf (gamma) or
    p -> inf (inverse gamma): location ln b + (ln p - ln q) / a, scale
    1 / (a sqrt(k)) and Q = +-1 / sqrt(k), k the shape that stays finite."""
    k, sign = (p, 1.0) if limit == "boundary_gg" else (q, -1.0)
    return np.array([math.log(b) + (math.log(p) - math.log(q)) / a,
                     -math.log(a * math.sqrt(k)), sign / math.sqrt(k)])


def lognormal_nll(y):
    ly = np.log(y)
    mu = np.mean(ly)
    sigma = math.sqrt(np.mean((ly - mu) ** 2))
    return float(np.sum(ly + math.log(sigma) + 0.5 * math.log(2.0 * math.pi)
                        + 0.5 * ((ly - mu) / sigma) ** 2))


def double_pareto_nll(log_b, y):
    """The double Pareto (Reed 2003), GB2's limit as a -> inf with a p = beta
    and a q = alpha fixed: f(y) = alpha beta / (alpha + beta) / y * (y/b)^beta
    below b and (y/b)^-alpha above.  Profiled over alpha and beta, which
    have closed forms at fixed b."""
    lr = np.log(y) - log_b
    s1, s2 = -np.sum(lr[lr < 0.0]), np.sum(lr[lr >= 0.0])
    if s1 <= 0.0 or s2 <= 0.0:
        return math.inf
    r = math.sqrt(s2 / s1)
    alpha = y.size * r / (s2 * (1.0 + r))
    beta = alpha * r
    return -(y.size * math.log(alpha * beta / (alpha + beta)) - np.sum(np.log(y))
             - beta * s1 - alpha * s2)


class TestNestedLimits:
    """GB2 runs that escape toward a nested limit, against the limit itself."""

    # one replication of the study's GB2 n = 100 cell per limit
    ROWS = {1: "boundary_gg", 12: "boundary_igg", 45: "boundary_lognormal",
            89: "boundary_double_pareto"}

    def test_limit_family_bounds_the_stop(self):
        # where the run stopped, the limit family fits at least as well: the
        # likelihood was still rising toward it
        model = TRUE_MODELS["gb2"]
        xs = np.array([sample(model, 100, replication_rng(STUDY_SEED, rep)) for rep in self.ROWS])
        rows = fit_rows("gb2", xs, T)
        for i, ((rep, limit), x) in enumerate(zip(self.ROWS.items(), xs)):
            assert errors(rows)[i] is NestedLimit and OUTCOMES[rows.classes[i]] == limit, rep
            y = x - T
            a, b, p, q = rows.params[i].tolist()
            stop_nll = float(rows.nll[i])
            if limit == "boundary_double_pareto":
                best = nelder_mead(lambda t: double_pareto_nll(t[0], y), np.array([math.log(b)]))
                assert a > 1e3 and p < 1e-3 and q < 1e-3
            elif limit == "boundary_lognormal":
                # the corner a -> 0, p, q -> inf: the run has passed the plain
                # lognormal, and the generalized gamma, which holds it at
                # Q = 0, still bounds the stop at a Q near 0
                ln_gap = stop_nll - lognormal_nll(y)
                print(f"{limit} rep {rep}: lognormal gap {ln_gap:.4g}")
                assert abs(ln_gap) < 1e-4 * stop_nll
                ly = np.log(y)
                best = nelder_mead(lambda t: prentice_nll(t, y),
                                   np.array([np.mean(ly), math.log(np.std(ly)), 0.05]))
                assert abs(best.argmin[2]) < 0.1
            else:
                best = nelder_mead(lambda t: prentice_nll(t, y),
                                   prentice_start(limit, a, b, p, q))
                assert (best.argmin[2] > 0.0) == (limit == "boundary_gg")
            gap = stop_nll - best.fmin
            print(f"{limit} rep {rep}: GB2 nll at the stop {stop_nll:.6f}, "
                  f"limit {best.fmin:.6f}, gap {gap:.4g}")
            assert best.converged and 0.0 <= gap < 1e-4 * stop_nll

    @pytest.mark.parametrize("direction,code", [
        ((0.0, 1.0, 0.0, 0.5), 1),     # q up with b up: generalized gamma
        ((0.0, -1.0, 0.5, 0.0), 2),    # p up with b down: inverse generalized gamma
        ((-0.3, 0.0, 0.6, 0.6), 3),    # a down, p and q up: lognormal
        ((0.7, 0.0, -0.7, -0.7), 4),   # a up, p and q down: double Pareto
        ((0.0, -1.0, 0.0, 0.5), 0),    # q up with b down: no limit
    ])
    def test_escape_direction(self, direction, code):
        # a run moving steadily along `direction` from z = (0, 0, 0, 0)
        # escapes once its radius passes ln 1e3 after 5 growing steps
        test = FAMILY_TABLE["gb2"].escape_test(np.array([[0.0, 5.0, 0.0, 0.0]]))
        step = 1.5 * np.array(direction) / np.max(np.abs(direction))
        rows = np.array([0])
        for k in range(1, 9):
            got, stop = test(rows, np.array([[0.0, 5.0, 0.0, 0.0]]) + k * step)
            escaping = k >= 5 and 1.5 * k > math.log(1e3)
            assert got[0] == (code if escaping else 0), k
            assert stop[0] == (code > 0 and escaping), k

    def test_slow_runs_go_on_and_a_step_back_clears_the_escape(self):
        # both start at radius 7 in ln q and move along (0, 1, 0, 1): the
        # first grows 1.5 per 5 steps, the second steps back once, at step 9
        test = FAMILY_TABLE["gb2"].escape_test(np.array([[0.0, 0.0, 0.0, 7.0]] * 2))
        rows = np.arange(2)
        for k in range(1, 16):
            slow = 0.3 * k
            wavering = k + (2.5 if k == 8 else 0.0)
            codes, stop = test(rows, np.array([[0.0, slow, 0.0, 7.0 + slow],
                                               [0.0, wavering, 0.0, 7.0 + wavering]]))
            assert not stop[0] and codes[0] == (1 if k >= 5 else 0), k
            back = 9 <= k <= 13  # windows that hold the step back
            assert codes[1] == (0 if back or k < 5 else 1), k
            assert stop[1] == (codes[1] == 1), k


class TestClosedFormIsGlobalOptimum:
    """Nelder-Mead from a perturbed start cannot beat the closed forms."""

    def test_pareto(self):
        truth = SeverityModel("pareto", (1.11,), T)
        for seed in range(5):
            xs = sample(truth, 200, np.random.default_rng(1000 + seed))
            closed = fit("pareto", xs, T)

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
            closed = fit("lognormal", xs, T)

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
