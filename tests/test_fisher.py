import math

import numpy as np
import pytest

from tailfit import SeverityModel, fisher_information
from tailfit.fisher import InfoMatrix, SingularInformation, asymptotic_covariance

from conftest import TRUE_MODELS, digamma, mc_score_information, trigamma

T = 1e5


def frobenius_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def gb2_info_oracle(a, b, p, q):
    """The GB2 information from the scalar psi and psi' oracles, each
    evaluated directly at its argument, in the order `info` forms it."""
    dp, dq = digamma(p), digamma(q)
    dp1, dq1 = digamma(p + 1.0), digamma(q + 1.0)
    tp, tq, tpq = trigamma(p), trigamma(q), trigamma(p + q)
    tp1, tq1 = trigamma(p + 1.0), trigamma(q + 1.0)
    i11 = (1.0 + p * q / (p + q + 1.0) * (tp1 + tq1 + (dp1 - dq1) ** 2)) / a**2
    i12 = -p * q * (dp1 - dq1) / (b * (p + q + 1.0))
    i13 = (1.0 - q * (dp - dq)) / (a * (p + q))
    i14 = (1.0 + p * (dp - dq)) / (a * (p + q))
    i22 = a**2 * p * q / (b**2 * (p + q + 1.0))
    i23 = a * q / (b * (p + q))
    i24 = -a * p / (b * (p + q))
    return np.array([[i11, i12, i13, i14],
                     [i12, i22, i23, i24],
                     [i13, i23, tp - tpq, -tpq],
                     [i14, i24, -tpq, tq - tpq]])


class TestInfoMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            InfoMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))


class TestAnalytic:
    def test_pareto(self):
        info = fisher_information(SeverityModel("pareto", (1.11,), T))
        assert info.entries[0, 0] == pytest.approx(1.0 / 1.2321, rel=1e-12)
        assert info.entries[0, 0] == pytest.approx(0.81163, abs=1e-5)

    def test_lognormal(self):
        info = fisher_information(SeverityModel("lognormal", (11.3, 1.8), T))
        assert info.entries == pytest.approx(np.diag([0.308642, 0.617284]), abs=1e-6)

    def test_weibull(self):
        a, b = 2.0, 2e5
        info = fisher_information(SeverityModel("weibull", (a, b), T)).entries
        euler = 0.5772156649015329
        assert info[0, 0] == pytest.approx((math.pi**2 / 6.0 + (1.0 - euler) ** 2) / a**2)
        assert info[1, 1] == pytest.approx(a**2 / b**2)
        assert info[0, 1] == info[1, 0]
        assert info[0, 1] == pytest.approx(-(1.0 - euler) / b)

    def test_loglogistic(self):
        a, s = 1.0, 84000.0
        info = fisher_information(SeverityModel("loglogistic", (a, s), T)).entries
        assert info[0, 0] == pytest.approx((3.0 + math.pi**2) / 9.0)
        assert info[1, 1] == pytest.approx(1.0 / (3.0 * s**2))
        assert info[0, 1] == 0.0

    def test_gb2_at_ones(self):
        info = fisher_information(SeverityModel("gb2", (1.0, 1.0, 1.0, 1.0), T)).entries
        psi2p = math.pi**2 / 6.0 - 1.0  # psi'(2)
        assert info[0, 0] == pytest.approx(1.0 + 2.0 * psi2p / 3.0, rel=1e-12)
        assert info[0, 1] == 0.0
        assert info[0, 2] == pytest.approx(0.5)
        assert info[0, 3] == pytest.approx(0.5)
        assert info[1, 1] == pytest.approx(1.0 / 3.0)
        assert info[1, 2] == pytest.approx(0.5)
        assert info[1, 3] == pytest.approx(-0.5)
        assert info[2, 2] == pytest.approx(1.0)  # psi'(1) - psi'(2)
        assert info[2, 3] == pytest.approx(1.0 - math.pi**2 / 6.0)
        assert info[3, 3] == pytest.approx(1.0)

    def test_gb2_general_point_closed_forms(self):
        # bit for bit, at theta* and over (p, q) in [1e-3, 1e3]: psi and psi'
        # at p + 1 and q + 1 taken from psi(p) + 1/p and the like fail here
        a, b = TRUE_MODELS["gb2"].params[:2]
        grid = np.geomspace(1e-3, 1e3, 13).tolist()
        points = [TRUE_MODELS["gb2"].params] + [(a, b, p, q) for p in grid for q in grid]
        for params in points:
            info = fisher_information(SeverityModel("gb2", params, T)).entries
            assert info.tobytes() == gb2_info_oracle(*params).tobytes(), params

    def test_shift_does_not_enter(self):
        for threshold in (0.0, 1e5, 3e6):
            info = fisher_information(SeverityModel("weibull", (0.56, 212303.18), threshold))
            base = fisher_information(SeverityModel("weibull", (0.56, 212303.18), 0.0))
            assert np.array_equal(info.entries, base.entries)

    @pytest.mark.parametrize("family,grid", [
        ("pareto", [(0.5,), (1.11,), (2.0,), (5.0,), (10.0,)]),
        ("weibull", [(0.3, 1e4), (0.56, 212303.18), (1.0, 1.0), (2.0, 2e5), (5.0, 3.0)]),
        ("lognormal", [(0.0, 0.5), (11.3, 1.8), (-2.0, 1.0), (5.0, 3.0), (1.0, 0.1)]),
        ("loglogistic", [(0.5, 1.0), (1.0, 84000.0), (2.0, 10.0), (4.0, 1e6), (0.8, 0.3)]),
        ("gb2", [(1.0, 1.0, 1.0, 1.0), (0.837, 117516.887, 1.184, 1.454),
                 (2.0, 10.0, 0.5, 3.0), (0.5, 1e5, 2.0, 2.0), (3.0, 7.0, 1.5, 0.7)]),
    ])
    def test_positive_definite_grid(self, family, grid):
        for params in grid:
            threshold = T if family == "pareto" else 0.0
            info = fisher_information(SeverityModel(family, params, threshold))
            np.linalg.cholesky(info.entries)  # raises if not PD


class TestAsymptoticCovariance:
    def test_pareto(self):
        cov = asymptotic_covariance(SeverityModel("pareto", (1.11,), T), 100)
        assert cov[0, 0] == pytest.approx(0.0123210, abs=1e-7)

    def test_lognormal(self):
        cov = asymptotic_covariance(SeverityModel("lognormal", (11.3, 1.8), T), 100)
        assert cov == pytest.approx(np.diag([0.0324, 0.0162]), abs=1e-10)

    def test_diagonal_reciprocal(self):
        model = SeverityModel("loglogistic", (1.7, 500.0), 0.0)
        info = fisher_information(model).entries
        cov = asymptotic_covariance(model, 250)
        assert cov == pytest.approx(np.diag(1.0 / np.diag(info)) / 250, rel=1e-12)

    def test_product_is_identity(self):
        model = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)
        info = fisher_information(model).entries
        cov = asymptotic_covariance(model, 1)
        # b ~ 1e5 makes the information badly scaled; identity holds to ~1e-9
        assert info @ cov == pytest.approx(np.eye(4), abs=1e-6)

    def test_singular_information(self, monkeypatch):
        from tailfit import fisher

        monkeypatch.setattr(fisher, "fisher_information",
                            lambda model: InfoMatrix(np.zeros((2, 2))))
        with pytest.raises(SingularInformation):
            fisher.asymptotic_covariance(SeverityModel("lognormal", (0.0, 1.0), 0.0), 10)

    # from p or q ~ 2.6e305 on ln B(p, q) overflows; the information needs none
    @pytest.mark.parametrize("params", [(1.0, 1.0, 1e200, 1.0), (1.0, 1.0, 1e306, 1.0),
                                        (1.0, 1.0, 1.0, 1e306)])
    def test_gb2_extreme_shape_is_singular(self, params):
        with pytest.raises(SingularInformation):
            asymptotic_covariance(SeverityModel("gb2", params, T), 100)


class TestMcOracle:
    DRAWS = 200_000

    def test_pareto(self):
        model = SeverityModel("pareto", (1.11,), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(41))
        assert est.entries[0, 0] == pytest.approx(0.81163, rel=0.02)

    def test_lognormal_off_diagonal_near_zero(self):
        sigma = 1.8
        model = SeverityModel("lognormal", (11.3, sigma), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(42))
        # s_mu * s_sigma = z(z^2-1)/sigma^2, whose variance is 10/sigma^4
        se = math.sqrt(10.0 / sigma**4 / self.DRAWS)
        assert abs(est.entries[0, 1]) < 3.0 * se

    def test_loglogistic_diagonal(self):
        model = SeverityModel("loglogistic", (1.0, 84000.0), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(43))
        ana = fisher_information(model).entries
        assert est.entries[0, 0] == pytest.approx(ana[0, 0], rel=0.02)
        assert est.entries[1, 1] == pytest.approx(ana[1, 1], rel=0.02)

    def test_weibull_frobenius(self):
        model = SeverityModel("weibull", (2.0, 2e5), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(44))
        ana = fisher_information(model).entries
        assert frobenius_rel(est.entries, ana) < 0.05

    def test_gb2_frobenius(self):
        model = SeverityModel("gb2", (1.0, 1.0, 1.0, 1.0), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(45))
        ana = fisher_information(model).entries
        assert frobenius_rel(est.entries, ana) < 0.05

    def test_gb2_study_point_smoke(self):
        model = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)
        est = mc_score_information(model, self.DRAWS, np.random.default_rng(46))
        ana = fisher_information(model).entries
        # scale-balance before comparing: b is ~1e5 larger than the shapes
        d = np.sqrt(np.diag(ana))
        scale = np.outer(1.0 / d, 1.0 / d)
        assert frobenius_rel(est.entries * scale, ana * scale) < 0.10
