import json
import math

import numpy as np
import pytest

from tailfit import SeverityModel, bootstrap_ci_width, ci_error_table, normal_ci_width
from tailfit.bootstrap import BootstrapMatrix, DegenerateCell
from tailfit.ci_analysis import table_csv, table_json
from tailfit.fisher import asymptotic_covariance

T = 1e5


def synthetic_matrix(rows: np.ndarray, family="lognormal", params=(11.3, 1.8), n=100):
    rows = np.asarray(rows, dtype=float)
    return BootstrapMatrix(
        family=family, true_params=tuple(params), threshold=T, n=n,
        m_requested=rows.shape[0], m_converged=rows.shape[0], rows=rows, seed=0,
    )


class TestNormalWidth:
    def test_lognormal_meanlog(self):
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        assert normal_ci_width(model, 100, 0) == pytest.approx(2.0 * 1.959964 * 0.18, abs=1e-5)
        assert normal_ci_width(model, 100, 0) == pytest.approx(0.705587, abs=1e-5)

    def test_pareto(self):
        model = SeverityModel("pareto", (1.11,), T)
        assert normal_ci_width(model, 100, 0) == pytest.approx(0.435112, abs=1e-5)

    def test_inverse_sqrt_n_scaling(self):
        model = SeverityModel("weibull", (0.56, 212303.18), T)
        for j in (0, 1):
            assert normal_ci_width(model, 400, j) == pytest.approx(
                normal_ci_width(model, 100, j) / 2.0, rel=1e-12)

    def test_level_generalization(self):
        model = SeverityModel("pareto", (2.0,), T)
        narrow = normal_ci_width(model, 100, 0, level=0.5)
        wide = normal_ci_width(model, 100, 0, level=0.99)
        assert narrow < normal_ci_width(model, 100, 0) < wide


class TestBootstrapWidth:
    def test_integers_1_to_100(self):
        rows = np.arange(1.0, 101.0)[:, None]
        bm = synthetic_matrix(np.column_stack([rows, rows]), n=100)
        width = bootstrap_ci_width(bm, 0)
        assert width == pytest.approx(97.525 - 3.475, abs=1e-12)
        assert width == pytest.approx(94.05, abs=1e-12)

    def test_standard_normal_column(self):
        draws = np.random.default_rng(301).normal(size=(1_000_000, 2))
        bm = synthetic_matrix(draws)
        assert bootstrap_ci_width(bm, 0) == pytest.approx(2.0 * 1.959964, rel=0.01)

    def test_min_replications_guard(self):
        bm = synthetic_matrix(np.random.default_rng(1).normal(size=(99, 2)))
        with pytest.raises(ValueError):
            bootstrap_ci_width(bm, 0)

    def test_order_invariance(self):
        rng = np.random.default_rng(302)
        rows = rng.normal(size=(500, 2))
        bm = synthetic_matrix(rows)
        shuffled = synthetic_matrix(rows[rng.permutation(500)])
        assert bootstrap_ci_width(bm, 1) == bootstrap_ci_width(shuffled, 1)


class TestErrorTable:
    def test_self_consistency_on_exact_normal_rows(self):
        # rows drawn from the predicted normal: both widths must agree to MC noise
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        n = 100
        cov = asymptotic_covariance(model, n)
        rng = np.random.default_rng(303)
        rows = np.asarray(model.params) + rng.normal(size=(2000, 2)) * np.sqrt(np.diag(cov))
        table = ci_error_table([synthetic_matrix(rows, n=n)])
        for row in table:
            assert abs(row.percent_error) < 3.0

    def test_row_shape_and_convention(self):
        model = SeverityModel("pareto", (1.11,), T)
        rows = 1.11 + np.random.default_rng(304).normal(size=(500, 1)) * 0.05
        bm = BootstrapMatrix("pareto", (1.11,), T, 100, 500, 500, rows, 0)
        (row,) = ci_error_table([bm])
        assert row.family == "pareto"
        assert row.param_name == "shape"
        assert row.n == 100
        expected = 100.0 * (row.normal_width - row.boot_width) / row.boot_width
        assert row.percent_error == expected

    def test_degenerate_column_guarded(self):
        # the message names the parameter; the CLI adds the cell
        rows = np.column_stack([np.full(200, 11.3), np.full(200, 1.8)])
        with pytest.raises(DegenerateCell, match="^zero-width bootstrap interval for meanlog$"):
            ci_error_table([synthetic_matrix(rows)])

    def test_desk_scale_lognormal(self, study_matrices):
        table = ci_error_table([study_matrices[("lognormal", 100)]])
        for row in table:
            assert abs(row.percent_error) <= 3.0


class TestSerialization:
    def _rows(self):
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        cov = asymptotic_covariance(model, 100)
        rng = np.random.default_rng(305)
        out = []
        for n in (100, 2500):
            rows = np.asarray(model.params) \
                + rng.normal(size=(300, 2)) * np.sqrt(np.diag(cov) * 100 / n)
            out.append(synthetic_matrix(rows, n=n))
        return ci_error_table(out)

    def test_csv_pivot(self):
        text = table_csv(self._rows())
        lines = text.strip().splitlines()
        assert lines[0] == "family,param,100,2500"
        assert lines[1].startswith("lognormal,meanlog,")
        assert all(cell.endswith("%") for cell in lines[1].split(",")[2:])

    def test_json_full_precision(self):
        payload = json.loads(table_json(self._rows()))
        assert "normal_width - boot_width" in payload["sign_convention"]
        assert len(payload["rows"]) == 4
        row = payload["rows"][0]
        assert math.isfinite(row["percent_error"])
        assert row["boot_width"] > 0.0
