import numpy as np
import pytest

from tailfit import SeverityModel, anderson_darling_normal, mardia, normality_suite, run_bootstrap
from tailfit.bootstrap import BootstrapMatrix, DegenerateCell
from tailfit.fisher import asymptotic_covariance
from tailfit.normality import _ad_p_value, mardia_moments, reports_to_csv

from conftest import TRUE_MODELS

T = 1e5


def brute_force_mardia(rows: np.ndarray) -> tuple[float, float]:
    """Literal double-loop evaluation of b1 and b2."""
    m, k = rows.shape
    centered = rows - rows.mean(axis=0)
    cov_inv = np.linalg.inv(centered.T @ centered / m)
    b1 = 0.0
    for i in range(m):
        for j in range(m):
            b1 += float(centered[i] @ cov_inv @ centered[j]) ** 3
    b1 /= m**2
    b2 = sum(float(centered[i] @ cov_inv @ centered[i]) ** 2 for i in range(m)) / m
    return b1, b2


class TestAndersonDarling:
    def test_five_percent_critical_value(self):
        assert _ad_p_value(0.752) == pytest.approx(0.05, abs=0.005)

    def test_normal_draws(self):
        xs = np.random.default_rng(201).normal(size=10_000)
        report = anderson_darling_normal(xs)
        assert report.p_value > 0.001
        assert report.m_used == 10_000

    def test_exponential_draws(self):
        xs = np.random.default_rng(202).exponential(size=10_000)
        report = anderson_darling_normal(xs)
        assert report.p_value < 1e-6

    def test_location_scale_invariance(self):
        xs = np.random.default_rng(203).normal(size=500)
        base = anderson_darling_normal(xs).statistic
        moved = anderson_darling_normal(1e6 + 42.0 * xs).statistic
        assert abs(moved - base) < 1e-10

    def test_preconditions(self):
        with pytest.raises(DegenerateCell):
            anderson_darling_normal(np.arange(7.0))
        with pytest.raises(DegenerateCell):
            anderson_darling_normal(np.full(50, 3.0))
        # 1.11 is not representable: its rounded mean leaves np.std at 2.2e-16
        with pytest.raises(DegenerateCell):
            anderson_darling_normal(np.full(120, 1.11))

    def test_p_value_bounds(self):
        for stat in (0.01, 0.1, 0.25, 0.4, 0.75, 2.0, 10.0, 40.0):
            p = _ad_p_value(stat)
            assert 0.0 <= p <= 1.0


class TestMardia:
    def test_antipodal_points(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        skew, kurt = mardia(rows)
        assert skew.statistic == pytest.approx(0.0, abs=1e-12)
        assert skew.p_value == 1.0
        assert kurt.test == "MardiaKurtosis"

    def test_bivariate_normal_draws(self):
        rows = np.random.default_rng(211).normal(size=(50_000, 2))
        skew, kurt = mardia(rows)
        assert skew.p_value > 0.001
        assert kurt.p_value > 0.001

    def test_small_instance_against_brute_force(self):
        rows = np.array([
            [1.0, 2.0], [0.5, -1.0], [3.0, 0.0], [-2.0, 1.5], [0.0, 0.0],
        ])
        b1, b2 = mardia_moments(rows)
        ob1, ob2 = brute_force_mardia(rows)
        assert b1 == pytest.approx(ob1, rel=1e-12)
        assert b2 == pytest.approx(ob2, rel=1e-12)

    def test_random_instances_against_brute_force(self):
        rng = np.random.default_rng(212)
        inputs = []
        for _ in range(20):
            m = int(rng.integers(10, 201))
            k = int(rng.integers(2, 5))
            mix = rng.normal(size=(k, k)) + np.eye(k)
            inputs.append(rng.normal(size=(m, k)) @ mix + rng.normal(size=k))
        # the study's column scales: GB2 scale ~1e5 next to shapes ~1
        gb2 = TRUE_MODELS["gb2"]
        inputs.append(rng.multivariate_normal(gb2.params, asymptotic_covariance(gb2, 100),
                                              size=300))
        for rows in inputs:
            b1, b2 = mardia_moments(rows)
            ob1, ob2 = brute_force_mardia(rows)
            assert b1 == pytest.approx(ob1, rel=1e-12, abs=1e-12)
            assert b2 == pytest.approx(ob2, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(213)
        rows = rng.normal(size=(400, 3)) ** 3
        b1, b2 = mardia_moments(rows)
        amap = np.array([[2.0, 0.3, 0.0], [0.0, -1.0, 0.5], [1.0, 0.0, 4.0]])
        tb1, tb2 = mardia_moments(rows @ amap + np.array([5.0, -7.0, 0.1]))
        assert tb1 == pytest.approx(b1, rel=1e-8)
        assert tb2 == pytest.approx(b2, rel=1e-8)

    def test_singular_covariance(self):
        col = np.random.default_rng(214).normal(size=100)
        rows = np.column_stack([col, 2.0 * col])
        with pytest.raises(DegenerateCell):
            mardia(rows)
        # 11.3 is not representable: the rounded mean leaves the column a nonzero variance
        rows = np.column_stack([np.full(100, 11.3), col])
        with pytest.raises(DegenerateCell):
            mardia(rows)

    def test_precondition_m(self):
        with pytest.raises(DegenerateCell):
            mardia(np.random.default_rng(0).normal(size=(3, 2)))

    def test_skew_p_from_chi2_tail(self):
        # frozen: m=100, statistic s -> upper chi2 tail with k(k+1)(k+2)/6 df
        rng = np.random.default_rng(215)
        rows = rng.normal(size=(100, 2))
        skew, _ = mardia(rows)
        assert 0.0 <= skew.p_value <= 1.0
        assert skew.statistic >= 0.0


class TestSuite:
    def test_pareto_dispatch(self):
        bm = run_bootstrap(SeverityModel("pareto", (1.11,), T), 50, 150, seed=21)
        reports = normality_suite(bm)
        assert [r.test for r in reports] == ["AndersonDarling"]
        assert reports[0].family == "pareto"
        assert reports[0].n == 50

    def test_lognormal_dispatch(self):
        bm = run_bootstrap(SeverityModel("lognormal", (11.3, 1.8), T), 50, 150, seed=22)
        reports = normality_suite(bm)
        assert [r.test for r in reports] == ["MardiaSkew", "MardiaKurtosis"]
        assert all(r.family == "lognormal" and r.n == 50 for r in reports)

    def test_tiny_matrix_never_silent(self):
        rows = np.random.default_rng(23).normal(size=(5, 4)) + 10.0
        bm = BootstrapMatrix(
            family="gb2", true_params=(1.0, 1.0, 1.0, 1.0), threshold=T,
            n=100, m_requested=2000, m_converged=5, rows=rows, seed=0,
        )
        with pytest.raises(DegenerateCell):
            normality_suite(bm)

    def test_lognormal_skew_p_trend(self, study_matrices):
        # soft check: skew p-values improve from n=100 to n=2500
        p100 = normality_suite(study_matrices[("lognormal", 100)])[0].p_value
        p2500 = normality_suite(study_matrices[("lognormal", 2500)])[0].p_value
        assert p2500 > p100

    def test_reports_csv(self):
        bm = run_bootstrap(SeverityModel("pareto", (1.11,), T), 40, 120, seed=24)
        text = reports_to_csv(normality_suite(bm))
        lines = text.strip().splitlines()
        assert lines[0] == "family,n,test,statistic,p_value,m_used"
        assert lines[1].startswith("pareto,40,AndersonDarling,")
