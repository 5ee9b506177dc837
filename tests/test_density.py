import math

import numpy as np
import pytest

from tailfit import SeverityModel, overlay
from tailfit.bootstrap import BootstrapMatrix
from tailfit.density import kde, silverman_bandwidth
from tailfit.fisher import asymptotic_covariance
from tailfit.mle import DegenerateSample
from tailfit.special_functions import std_normal_cdf

T = 1e5


def normal_matrix(model: SeverityModel, n: int, m: int, seed: int) -> BootstrapMatrix:
    """Rows drawn exactly from the normal law Theorem-style overlays predict."""
    cov = asymptotic_covariance(model, n)
    rng = np.random.default_rng(seed)
    k = len(model.params)
    rows = np.asarray(model.params) + rng.multivariate_normal(np.zeros(k), cov, size=m)
    return BootstrapMatrix(model.family, model.params, model.threshold,
                           n, m, m, rows, seed)


class TestBandwidth:
    def test_silverman_formula(self):
        xs = np.random.default_rng(401).normal(size=1000)
        sd = float(np.std(xs, ddof=1))
        q25, q75 = np.quantile(xs, [0.25, 0.75])
        expected = 0.9 * min(sd, (q75 - q25) / 1.34) * 1000 ** (-0.2)
        assert silverman_bandwidth(xs) == pytest.approx(expected, rel=1e-12)

    def test_zero_iqr_falls_back_to_sd(self):
        xs = np.array([0.0] * 20 + [1.0])
        sd = float(np.std(xs, ddof=1))
        assert silverman_bandwidth(xs) == pytest.approx(0.9 * sd * 21 ** (-0.2))

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            silverman_bandwidth(np.full(10, 2.0))
        # 11.3 is not representable: its rounded mean leaves np.std at ~1e-15
        with pytest.raises(DegenerateSample):
            silverman_bandwidth(np.full(120, 11.3))


def reference_kde(xs, grid):
    """The kernel sum as exp(-0.5 * z * z) over chunks of 64 grid points."""
    h = silverman_bandwidth(xs)
    out = np.empty(grid.size)
    for lo in range(0, grid.size, 64):
        z = (grid[lo:lo + 64, None] - xs[None, :]) / h
        out[lo:lo + 64] = np.exp(-0.5 * z * z).sum(axis=1)
    return out / (xs.size * h * math.sqrt(2.0 * math.pi))


class TestKde:
    # grid sizes against the 32-point chunks of the kernel buffer: less than
    # one chunk, an exact multiple, a multiple plus one, a partial last chunk
    @pytest.mark.parametrize("points", [10, 512, 513, 701])
    def test_bit_identical_to_reference(self, points):
        rng = np.random.default_rng(403)
        xs = np.concatenate([rng.standard_cauchy(3000), [1e-160]])
        # a point whose z**2 overflows while -0.5 * z * z does not; the grid
        # point 0 puts z**2 below the normal range for the 1e-160 point
        xs = np.append(xs, 1.6e154 * silverman_bandwidth(xs))
        grid = np.append(np.linspace(-1e3, 1e3, points - 1), 0.0)
        with np.errstate(over="ignore"):
            assert kde(xs, grid).tobytes() == reference_kde(xs, grid).tobytes()

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateSample):
            kde(np.array([1.0]), np.linspace(0, 2, 10))

    def test_spike_sample_integrates_to_one(self):
        xs = np.array([0.0] * 30 + [1.0])
        grid = np.linspace(-5.0, 6.0, 4000)
        dens = kde(xs, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_standard_normal_consistency(self):
        xs = np.random.default_rng(402).normal(size=100_000)
        grid = np.linspace(-3.0, 3.0, 601)
        dens = kde(xs, grid)
        phi = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(dens - phi)) < 0.01

    def test_nonnegative(self):
        xs = np.random.default_rng(403).exponential(size=500)
        assert np.all(kde(xs, np.linspace(-2, 10, 300)) >= 0.0)


class TestOverlay:
    MODEL = SeverityModel("lognormal", (11.3, 1.8), T)

    def test_normal_pdf_peaks_at_target(self):
        bm = normal_matrix(self.MODEL, 100, 2000, seed=404)
        ov = overlay(bm, 0)
        peak = ov.grid[int(np.argmax(ov.normal_pdf))]
        step = ov.grid[1] - ov.grid[0]
        assert abs(peak - 11.3) <= step

    def test_matches_normal_rows_at_large_m(self):
        bm = normal_matrix(self.MODEL, 100, 40_000, seed=405)
        for j in (0, 1):
            ov = overlay(bm, j)
            assert np.max(np.abs(ov.kde - ov.normal_pdf)) < 0.05 * np.max(ov.normal_pdf)

    def test_invariants(self):
        bm = normal_matrix(self.MODEL, 100, 2000, seed=406)
        ov = overlay(bm, 1)
        assert ov.grid.size == 512
        assert np.all(np.diff(ov.grid) > 0.0)
        assert ov.kde.size == ov.normal_pdf.size == ov.grid.size
        integral = np.trapezoid(ov.kde, ov.grid)
        assert 0.97 <= integral <= 1.0 + 1e-9
        # normal mass over the span, analytically
        sd = math.sqrt(asymptotic_covariance(self.MODEL, 100)[1, 1])
        mass = std_normal_cdf((ov.grid[-1] - 1.8) / sd) - std_normal_cdf((ov.grid[0] - 1.8) / sd)
        assert np.trapezoid(ov.normal_pdf, ov.grid) == pytest.approx(mass, abs=1e-3)

    def test_deterministic(self):
        bm = normal_matrix(self.MODEL, 100, 2000, seed=407)
        a, b = overlay(bm, 0), overlay(bm, 0)
        assert np.array_equal(a.kde, b.kde)

    def test_min_replications(self):
        bm = normal_matrix(self.MODEL, 100, 99, seed=408)
        with pytest.raises(ValueError):
            overlay(bm, 0)

    def test_weibull_scale_mode_displaced(self, study_matrices):
        # residual skew leaves the kde mode left of the true scale even at n=2500
        ov = overlay(study_matrices[("weibull", 2500)], 1)
        mode = ov.grid[int(np.argmax(ov.kde))]
        step = ov.grid[1] - ov.grid[0]
        assert abs(mode - 212303.18) > 5.0 * step

    def test_to_csv(self):
        bm = normal_matrix(self.MODEL, 100, 500, seed=409)
        ov = overlay(bm, 0)
        text = ov.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "grid,kde,normal_pdf"
        assert len(lines) == 513
        assert all(len(line.split(",")) == 3 for line in lines[1:])
        values = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert np.array_equal(values, np.column_stack([ov.grid, ov.kde, ov.normal_pdf]))
