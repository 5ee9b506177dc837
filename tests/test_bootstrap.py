import math

import numpy as np
import pytest

from tailfit import SeverityModel, run_bootstrap, sample, true_model_from_losses
from tailfit.bootstrap import (
    BootstrapMatrix,
    TooFewConverged,
    _fit_replication,
    _run_chunk,
    replication_rng,
)
from tailfit.generate import generate_losses
from tailfit.mle import fit_pareto, fit_rows
from tailfit.optimizer import InvalidStart

import conftest
from conftest import STUDY_SEED, cached_bootstrap

T = 1e5


class TestDeterminism:
    def test_identical_runs(self):
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        a = run_bootstrap(model, 50, 120, seed=7)
        b = run_bootstrap(model, 50, 120, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert a.m_converged == b.m_converged

    # (model, n, m, seed); the GB2 cell drops 18 of its 60 replications
    INVARIANCE_CELLS = [
        (SeverityModel("weibull", (0.56, 212303.18), T), 60, 100, 11),
        (SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T), 100, 60, STUDY_SEED),
        (SeverityModel("loglogistic", (1.0, 84000.0), T), 100, 60, 11),
    ]

    def test_worker_count_invariance(self):
        for model, n, m, seed in self.INVARIANCE_CELLS:
            serial = run_bootstrap(model, n, m, seed=seed, workers=1)
            for workers in (2, 3):
                parallel = run_bootstrap(model, n, m, seed=seed, workers=workers)
                assert np.array_equal(serial.rows, parallel.rows)
            assert serial.m_converged == (42 if model.family == "gb2" else m)

    def test_chunk_split_invariance(self):
        # a chunk fits its replications as one batch; splitting it, or fitting
        # each replication alone, changes no row and no drop
        for model, n, m, seed in self.INVARIANCE_CELLS:
            whole = _run_chunk((model, n, seed, 0, m))
            split = _run_chunk((model, n, seed, 0, 37)) + _run_chunk((model, n, seed, 37, m))
            assert whole == split
            alone = [_fit_replication(model, n, seed, rep) for rep in range(30, 45)]
            assert alone == whole[30:45]
            if model.family == "gb2":
                assert [i for i, row in enumerate(whole) if row is None] == \
                    [1, 5, 6, 7, 11, 12, 14, 19, 22, 25, 30, 35, 37, 45, 50, 53, 55, 56]

    def test_seed_changes_rows(self):
        model = SeverityModel("pareto", (1.11,), T)
        a = run_bootstrap(model, 50, 100, seed=1)
        b = run_bootstrap(model, 50, 100, seed=2)
        assert not np.array_equal(a.rows, b.rows)

    def test_replication_streams_are_distinct(self):
        draws0 = replication_rng(5, 0).random(4)
        draws1 = replication_rng(5, 1).random(4)
        assert not np.array_equal(draws0, draws1)
        # and reproducible
        assert np.array_equal(draws0, replication_rng(5, 0).random(4))


class TestRows:
    def test_pareto_rows_match_closed_form(self):
        model = SeverityModel("pareto", (1.11,), T)
        bm = run_bootstrap(model, 100, 200, seed=31)
        assert bm.m_converged == 200
        for rep in range(10):
            xs = sample(model, 100, replication_rng(31, rep))
            assert bm.rows[rep, 0] == fit_pareto(xs, T).model.params[0]

    def test_pareto_mean_bias_factor(self, study_matrices):
        # E[alpha_hat] = alpha n/(n-1) since sum log(x/T) ~ Gamma(n, 1/alpha)
        bm = study_matrices[("pareto", 100)]
        n, m = bm.n, bm.m_converged
        expected = 1.11 * n / (n - 1)
        # sd(alpha_hat) ~ alpha n / ((n-1) sqrt(n-2))
        se = 1.11 * n / ((n - 1) * math.sqrt(n - 2)) / math.sqrt(m)
        assert abs(float(np.mean(bm.rows[:, 0])) - expected) < 3.0 * se

    def test_lognormal_sigma_small_sample_bias(self, study_matrices):
        bm = study_matrices[("lognormal", 100)]
        assert float(np.mean(bm.rows[:, 1])) < 1.8

    def test_column_order_matches_param_names(self):
        model = SeverityModel("weibull", (0.56, 212303.18), T)
        bm = run_bootstrap(model, 80, 100, seed=3)
        assert bm.param_names == ("shape", "scale")
        # scale column is orders of magnitude above the shape column
        assert np.min(bm.rows[:, 1]) > np.max(bm.rows[:, 0])

    def test_invalid_start_replications_are_dropped(self):
        # shape 3e15 rounds the draws onto a few doubles next to 1, so in some
        # samples of 3 the maximum equals the median: no log-logistic start
        model = SeverityModel("loglogistic", (3e15, 1.0), 0.0)
        xs = np.array([sample(model, 3, replication_rng(4, rep)) for rep in range(100)])
        invalid = [isinstance(o, InvalidStart) for o in fit_rows("loglogistic", xs, 0.0)]
        assert 0 < sum(invalid) < 50
        rows = _run_chunk((model, 3, 4, 0, 100))
        assert [row is None for row in rows] == invalid
        assert run_bootstrap(model, 3, 100, seed=4).m_converged == 100 - sum(invalid)

    def test_too_few_converged(self):
        # n below the GB2 minimum sample size: every replication errors out
        model = SeverityModel("gb2", (0.837, 117516.887, 1.184, 1.454), T)
        with pytest.raises(TooFewConverged):
            run_bootstrap(model, 5, 100, seed=4)


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        model = SeverityModel("loglogistic", (1.0, 84000.0), T)
        bm = run_bootstrap(model, 40, 100, seed=9)
        base = tmp_path / "boot_loglogistic_n40"
        bm.write(base)
        back = BootstrapMatrix.read(base)
        assert np.array_equal(back.rows, bm.rows)
        assert back.family == bm.family
        assert back.true_params == bm.true_params
        assert back.threshold == bm.threshold
        assert (back.n, back.m_requested, back.m_converged, back.seed) == \
            (bm.n, bm.m_requested, bm.m_converged, bm.seed)

    def test_csv_header(self, tmp_path):
        model = SeverityModel("pareto", (2.0,), T)
        bm = run_bootstrap(model, 20, 100, seed=9)
        base = tmp_path / "boot"
        bm.write(base)
        header = base.with_suffix(".csv").read_text().splitlines()[0]
        assert header == "shape"

    def test_cache_round_trip_is_exact(self, study_matrices):
        # the session cache must hand back bit-identical matrices
        bm = study_matrices[("pareto", 100)]
        again = cached_bootstrap(SeverityModel("pareto", (1.11,), T), 100)
        assert np.array_equal(bm.rows, again.rows)
        assert bm.seed == again.seed == STUDY_SEED

    def test_cache_follows_the_behaviour_fingerprint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(conftest, "_CACHE_DIR", tmp_path)
        monkeypatch.setattr(conftest, "_FINGERPRINTS", tmp_path / "fingerprints.json")
        model = SeverityModel("pareto", (1.11,), T)
        first = cached_bootstrap(model, 20, m=100, seed=5)
        (name, fingerprint), = conftest._recorded_fingerprints().items()
        assert fingerprint == conftest.behaviour_fingerprint(model, 20)
        csv_path = tmp_path / f"{name}.csv"
        written = csv_path.read_bytes()
        # an entry recorded under another fingerprint is computed again
        conftest._record_fingerprint(name, "stale")
        csv_path.write_text("shape\n1.0\n")
        again = cached_bootstrap(model, 20, m=100, seed=5)
        assert np.array_equal(again.rows, first.rows)
        assert csv_path.read_bytes() == written
        assert conftest._recorded_fingerprints() == {name: fingerprint}


class TestTrueModelFromLosses:
    def test_lognormal_recovery(self):
        truth = SeverityModel("lognormal", (11.3, 1.8), 0.0)
        losses = sample(truth, 10_000, np.random.default_rng(71))
        tm = true_model_from_losses("lognormal", losses, 0.0)
        mu, sigma = tm.model.params
        assert abs(mu - 11.3) < 3.0 * 1.8 / math.sqrt(10_000)
        assert abs(sigma - 1.8) < 3.0 * 1.8 / math.sqrt(2.0 * 10_000)
        assert tm.n_excluded == 0

    def test_threshold_filtering_and_counts(self):
        losses = np.array([5e4, 9e4, T, 2e5, 7e5])
        tm_pareto = true_model_from_losses("pareto", losses, T)
        assert tm_pareto.n_tail == 3  # x >= T keeps the threshold point
        assert tm_pareto.n_excluded == 2
        tm_ln = true_model_from_losses("lognormal", losses, T)
        assert tm_ln.n_tail == 2  # x > T drops it
        assert tm_ln.n_excluded == 3

    def test_uom1_profile_tail_fraction(self):
        losses = generate_losses("uom1", 50_000, seed=123)
        frac = float(np.mean(losses >= T))
        assert 0.17 <= frac <= 0.21
        tm = true_model_from_losses("pareto", losses, T)
        assert tm.model.params[0] == pytest.approx(1.11, abs=0.15)
