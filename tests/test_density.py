import math

import numpy as np
import pytest

from tailfit import SeverityModel, density, overlay
from tailfit.bootstrap import BootstrapMatrix, DegenerateCell
from tailfit.density import _KDE_ELEMENTS, kde, silverman_bandwidth
from tailfit.fisher import asymptotic_covariance
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
        with pytest.raises(DegenerateCell):
            silverman_bandwidth(np.full(10, 2.0))
        # 11.3 is not representable: its rounded mean leaves np.std at ~1e-15
        with pytest.raises(DegenerateCell):
            silverman_bandwidth(np.full(120, 11.3))


def reference_kde(xs, grid):
    """The kernel sum as exp(-0.5 * z * z) over chunks of 64 grid points."""
    h = silverman_bandwidth(xs)
    out = np.empty(grid.size)
    for lo in range(0, grid.size, 64):
        z = (grid[lo:lo + 64, None] - xs[None, :]) / h
        out[lo:lo + 64] = np.exp(-0.5 * z * z).sum(axis=1)
    return out / (xs.size * h * math.sqrt(2.0 * math.pi))


# the binned kde's bound: at most this share of the estimate's peak away from
# the exact sum (README, numerical notes)
BINNED_BOUND = 1e-6


@pytest.fixture()
def binned_only(monkeypatch):
    """Fails any kde that falls back to the exact sum."""
    def exact_sum(*args):
        raise AssertionError("kde took the exact sum")
    monkeypatch.setattr(density, "_exact_sum", exact_sum)


def binned_error(got, xs, grid) -> float:
    """Largest distance of got from the exact sum, as a share of its peak."""
    want = reference_kde(xs, grid)
    return float(np.max(np.abs(got - want)) / np.max(want))


class TestKde:
    # grid sizes against the kernel buffer's chunks of _KDE_ELEMENTS // m
    # grid points (32 at the m = 5000 below): less than one chunk, an exact
    # multiple, a multiple plus one, a partial last chunk
    CHUNK = _KDE_ELEMENTS // 5000

    @pytest.mark.parametrize("points", [CHUNK // 3, 16 * CHUNK, 16 * CHUNK + 1, 22 * CHUNK - 3])
    def test_bit_identical_to_reference(self, points):
        rng = np.random.default_rng(403)
        xs = np.concatenate([rng.standard_cauchy(4998), [1e-160]])
        # a point whose z**2 overflows while -0.5 * z * z does not; the grid
        # point 0 puts z**2 below the normal range for the 1e-160 point
        xs = np.append(xs, 1.6e154 * silverman_bandwidth(xs))
        grid = np.append(np.linspace(-1e3, 1e3, points - 1), 0.0)
        with np.errstate(over="ignore"):
            assert kde(xs, grid).tobytes() == reference_kde(xs, grid).tobytes()

    @pytest.mark.parametrize("m", [100, 5000, 40_000])
    @pytest.mark.parametrize("model", [SeverityModel("lognormal", (11.3, 1.8), T),
                                       SeverityModel("weibull", (0.56, 212303.18), T)],
                             ids=["lognormal", "weibull"])
    def test_binned_normal_columns(self, binned_only, model, m):
        bm = normal_matrix(model, 100, m, seed=410)
        for j in (0, 1):
            ov = overlay(bm, j)
            assert binned_error(ov.kde, bm.rows[:, j], ov.grid) <= BINNED_BOUND

    def test_binned_skewed_column_with_rows_beyond_both_ends(self, binned_only):
        xs = np.random.default_rng(411).lognormal(0.0, 1.0, 5000)
        grid = np.linspace(2.0, 8.0, 512)
        h = silverman_bandwidth(xs)
        # rows more than 9h from every grid point on both sides: dropped
        assert np.any(xs < grid[0] - 9.0 * h) and np.any(xs > grid[-1] + 9.0 * h)
        assert binned_error(kde(xs, grid), xs, grid) <= BINNED_BOUND

    # the binned path runs for spacings from h/256 to h; just outside either
    # end the exact sum runs and equals the reference bit for bit
    @pytest.mark.parametrize("spacing", [0.999, 1.001, 1.001 / 256, 0.999 / 256],
                             ids=["below_h", "above_h", "above_h/256", "below_h/256"])
    def test_spacing_picks_the_path(self, spacing):
        xs = np.random.default_rng(412).normal(size=3000)
        h = silverman_bandwidth(xs)
        grid = np.linspace(-1.0, -1.0 + 511 * spacing * h, 512)
        got = kde(xs, grid)
        if 1.0 / 256 <= spacing <= 1.0:
            assert 0.0 < binned_error(got, xs, grid) <= BINNED_BOUND
        else:
            assert got.tobytes() == reference_kde(xs, grid).tobytes()

    def test_binned_resolved_cache_columns(self, binned_only, study_matrices):
        for (family, n), bm in study_matrices.items():
            if (family, n) == ("gb2", 100):
                continue
            for j in range(len(bm.param_names)):
                ov = overlay(bm, j)
                assert binned_error(ov.kde, bm.rows[:, j], ov.grid) <= BINNED_BOUND, \
                    (family, n, bm.param_names[j])

    def test_unresolved_gb2_n100_columns_exact(self, study_matrices):
        # their grids span 1.8 to 6.2e6 bandwidths per step
        bm = study_matrices[("gb2", 100)]
        for j in range(4):
            ov = overlay(bm, j)
            assert ov.kde.tobytes() == reference_kde(bm.rows[:, j], ov.grid).tobytes()

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateCell):
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

    def test_kde_owns_its_data(self, study_matrices):
        # a kde that is a view keeps its whole buffer alive while the CLI
        # holds every overlay before writing them
        for bm in study_matrices.values():
            for j in range(len(bm.param_names)):
                ov = overlay(bm, j)
                assert ov.kde.flags.owndata
                assert np.all(ov.kde >= 0.0)

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
