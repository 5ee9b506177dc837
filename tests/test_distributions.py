import math

import mpmath as mp
import numpy as np
import pytest

from tailfit import SeverityModel, cdf, log_likelihood, log_pdf, pdf, quantile, sample

T = 1e5

UOM1 = {
    "pareto": SeverityModel("pareto", (1.11,), T),
    "weibull": SeverityModel("weibull", (0.56, 212303.18), T),
    "lognormal": SeverityModel("lognormal", (11.3, 1.8), T),
    "loglogistic": SeverityModel("loglogistic", (1.0, 84000.0), T),
    "gb2": SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T),
}


def ks_distance(xs: np.ndarray, model: SeverityModel) -> float:
    """One-sample Kolmogorov-Smirnov distance against the model cdf."""
    xs = np.sort(xs)
    n = xs.size
    f = cdf(model, xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def mp_gb2_log_quantile(u, a, b, p, q):
    """ln of the GB2 quantile above T, b (z / (1 - z))^(1/a) with
    I_z(p, q) = u, by bisection at 40 digits on t = ln(z / (1 - z)).  Each
    side of z = 1/2 is solved in the tail that is small there, so z and
    1 - z keep their digits however far they lie below 1."""
    with mp.workdps(40):
        u = mp.mpf(u)
        if u <= mp.betainc(p, q, 0, mp.mpf(0.5), regularized=True):
            excess = lambda t: mp.betainc(p, q, 0, 1 / (1 + mp.exp(-t)), regularized=True) - u
        else:
            excess = lambda t: 1 - u - mp.betainc(q, p, 0, 1 / (1 + mp.exp(t)), regularized=True)
        lo, hi = mp.mpf(-1), mp.mpf(1)
        while excess(lo) > 0:
            lo *= 2
        while excess(hi) < 0:
            hi *= 2
        while hi - lo > mp.mpf(10) ** -18 * max(1, abs(lo)):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                hi = mid
            else:
                lo = mid
        return float(mp.log(b) + (lo + hi) / (2 * a))


class TestModelValidation:
    def test_pareto_needs_positive_threshold(self):
        with pytest.raises(ValueError):
            SeverityModel("pareto", (1.0,), 0.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            SeverityModel("weibull", (-1.0, 2.0), 0.0)
        with pytest.raises(ValueError):
            SeverityModel("lognormal", (0.0, 0.0), 0.0)
        # lognormal meanlog is unrestricted
        SeverityModel("lognormal", (-5.0, 1.0), 0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SeverityModel("cauchy", (1.0,), 0.0)

    def test_param_count(self):
        with pytest.raises(ValueError):
            SeverityModel("gb2", (1.0, 2.0), 0.0)


class TestPdf:
    def test_pareto_at_left_endpoint(self):
        m = UOM1["pareto"]
        assert pdf(m, T) == pytest.approx(1.11 / T, rel=1e-12)
        assert pdf(m, T) == pytest.approx(1.11e-5, rel=1e-12)

    def test_gb2_nests_loglogistic(self):
        g = SeverityModel("gb2", (0.9, 84000.0, 1.0, 1.0), T)
        l = SeverityModel("loglogistic", (0.9, 84000.0), T)
        x = np.geomspace(1.001 * T, 1e9, 100)
        assert np.allclose(pdf(g, x), pdf(l, x), rtol=1e-10)

    def test_lognormal_at_exp_mu(self):
        m = SeverityModel("lognormal", (11.3, 1.8), 0.0)
        x = math.exp(11.3)
        expected = 1.0 / (math.sqrt(2.0 * math.pi) * 1.8 * x)
        assert pdf(m, x) == pytest.approx(expected, rel=1e-12)


class TestLogPdf:
    def test_pareto_at_endpoint(self):
        assert log_pdf(UOM1["pareto"], T) == pytest.approx(math.log(1.11) - math.log(T))

    @pytest.mark.parametrize("family", list(UOM1))
    def test_below_support(self, family):
        assert log_pdf(UOM1[family], T / 2.0) == -math.inf

    @pytest.mark.parametrize("family", list(UOM1))
    def test_exp_log_pdf_matches_pdf(self, family):
        m = UOM1[family]
        rng = np.random.default_rng(3)
        x = quantile(m, rng.uniform(0.01, 0.99, 100))
        assert np.allclose(np.exp(log_pdf(m, x)), pdf(m, x), rtol=1e-12)

    def test_no_underflow_far_out(self):
        # log-space evaluation stays finite out to 1e12
        for family, m in UOM1.items():
            v = log_pdf(m, 1e12)
            assert np.isfinite(v), family


class TestCdf:
    def test_loglogistic_median_is_scale(self):
        m = SeverityModel("loglogistic", (1.7, 84000.0), 0.0)
        assert cdf(m, 84000.0) == pytest.approx(0.5, abs=1e-12)

    def test_pareto_zero_at_endpoint(self):
        assert cdf(UOM1["pareto"], T) == 0.0

    def test_gb2_nests_loglogistic(self):
        g = SeverityModel("gb2", (1.3, 5e4, 1.0, 1.0), T)
        l = SeverityModel("loglogistic", (1.3, 5e4), T)
        rng = np.random.default_rng(4)
        x = T + rng.uniform(1.0, 1e7, 100)
        assert np.allclose(cdf(g, x), cdf(l, x), atol=1e-10)

    def test_gb2_upper_tail_against_mpmath(self):
        # the study row of test_gb2_far_tail_of_a_bootstrap_row: at its 0.999
        # quantile z = 1 / (1 + e^-t) rounds to 1
        a, b, p, q = params = (6.303, 57220.0, 0.131, 0.122)
        m = SeverityModel("gb2", params, T)
        x = np.concatenate([quantile(m, np.array([0.001, 0.5, 0.999])),
                            T + b * np.array([1e-3, 1.0, 1e3, 1e6])])
        with mp.workdps(40):
            for got, xi in zip(cdf(m, x), x.tolist()):
                t = a * (mp.log(mp.mpf(xi) - T) - mp.log(b))
                want = 1 - mp.betainc(q, p, 0, 1 / (1 + mp.exp(t)), regularized=True)
                assert abs(got - want) < 1e-10, xi
        assert cdf(m, quantile(m, 0.999)) == pytest.approx(0.999, abs=1e-10)

    @pytest.mark.parametrize("family", list(UOM1))
    def test_monotone_on_grid(self, family):
        m = UOM1[family]
        grid = np.linspace(T * 0.5, T * 200.0, 1000)
        vals = cdf(m, grid)
        assert np.all(np.diff(vals) >= 0.0)


class TestQuantile:
    def test_pareto_median(self):
        assert quantile(UOM1["pareto"], 0.5) == pytest.approx(T * 2.0 ** (1.0 / 1.11), rel=1e-12)

    def test_lognormal_median(self):
        m = SeverityModel("lognormal", (11.3, 1.8), T)
        assert quantile(m, 0.5) == pytest.approx(T + math.exp(11.3), rel=1e-9)

    def test_gb2_nesting_closed_form(self):
        g = SeverityModel("gb2", (0.8, 7e4, 1.0, 1.0), T)
        for u in (0.1, 0.5, 0.93):
            expected = T + 7e4 * (u / (1.0 - u)) ** (1.0 / 0.8)
            assert quantile(g, u) == pytest.approx(expected, rel=1e-9)

    def test_gb2_far_tail_of_a_bootstrap_row(self):
        # a GB2 n = 100 study row whose z = I^-1(0.999; p, q) rounds to 1,
        # and whose 1 - z is about 5e-23
        m = SeverityModel("gb2", (6.303, 57220.0, 0.131, 0.122), T)
        y = quantile(m, np.array([0.001, 0.999])) - T
        for got, u in zip(y, (0.001, 0.999)):
            assert abs(math.log(got) - mp_gb2_log_quantile(u, *m.params)) < 1e-10
        assert 1.99e8 < y[1] < 2.0e8

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.131, 20.0])
    @pytest.mark.parametrize("q", [1e-6, 1e-3, 0.122, 20.0])
    def test_gb2_against_mpmath(self, p, q):
        # far below 1e-16 in z or 1 - z, down to shapes whose quantiles
        # leave the doubles; ln y is conditioned like 1 / (a min(p, q))
        tol = 1e-10 if min(p, q) >= 1e-3 else 1e-8
        us = [1e-6, 0.001, 0.3, 0.5, 0.999, 1.0 - 1e-6]
        for a in (1.5, 1.3e6):
            m = SeverityModel("gb2", (a, 1e5, p, q), 0.0)
            for got, u in zip(quantile(m, np.array(us)), us):
                want = mp_gb2_log_quantile(u, a, 1e5, p, q)
                if want > math.log(np.finfo(float).max):
                    assert got == math.inf, (a, u)
                elif want < math.log(5e-324):
                    assert got == 0.0, (a, u)
                else:
                    assert abs(math.log(got) - want) <= tol, (a, u, got, math.exp(want))

    def test_domain(self):
        with pytest.raises(ValueError):
            quantile(UOM1["pareto"], 0.0)
        with pytest.raises(ValueError):
            quantile(UOM1["pareto"], 1.0)

    @pytest.mark.parametrize("family", list(UOM1))
    @pytest.mark.parametrize("threshold", [0.0, 1e5])
    def test_round_trip(self, family, threshold):
        if family == "pareto" and threshold == 0.0:
            pytest.skip("pareto requires a positive threshold")
        m = SeverityModel(family, UOM1[family].params, threshold)
        us = np.arange(0.01, 1.0, 0.01)
        assert np.max(np.abs(cdf(m, quantile(m, us)) - us)) < 1e-9


class TestSample:
    @pytest.mark.parametrize("family", list(UOM1))
    def test_support(self, family):
        xs = sample(UOM1[family], 5000, np.random.default_rng(7))
        assert np.all(xs > T) or (family == "pareto" and np.all(xs >= T))

    def test_pareto_ks(self):
        m = UOM1["pareto"]
        n = 100000
        xs = sample(m, n, np.random.default_rng(11))
        assert ks_distance(xs, m) < 1.63 / math.sqrt(n)

    def test_gb2_gamma_ratio_vs_quantile_transform(self):
        # the two sampler representations must draw from the same law
        m = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)
        n = 100000
        a = sample(m, n, np.random.default_rng(21))
        u = np.random.default_rng(22).uniform(1e-9, 1.0 - 1e-9, n)
        b = quantile(m, u)
        crit = 1.628 * math.sqrt(2.0 / n)  # two-sample, 1% level
        assert two_sample_ks(a, b) < crit

    def test_lognormal_moment(self):
        mu, sigma = 1.0, 1.0
        m = SeverityModel("lognormal", (mu, sigma), 0.0)
        n = 1_000_000
        xs = sample(m, n, np.random.default_rng(31))
        target = math.exp(mu + sigma**2 / 2.0)
        true_sd = math.sqrt((math.exp(sigma**2) - 1.0) * math.exp(2.0 * mu + sigma**2))
        assert abs(np.mean(xs) - target) < 3.0 * true_sd / math.sqrt(n)


class TestLogLikelihood:
    def test_empty(self):
        assert log_likelihood(UOM1["pareto"], []) == 0.0

    def test_single_point_at_pareto_endpoint(self):
        expected = math.log(1.11) - math.log(T)
        assert log_likelihood(UOM1["pareto"], [T]) == pytest.approx(expected)

    def test_point_outside_support(self):
        assert log_likelihood(UOM1["lognormal"], [T * 2.0, T / 2.0]) == -math.inf
