import math

import numpy as np
import pytest

from tailfit import SeverityModel, bootstrap, mle, run_bootstrap, sample, true_model_from_losses
from tailfit.bootstrap import (
    BootstrapMatrix,
    TooFewConverged,
    _chunks,
    _fit_replication,
    _run_chunk,
    replication_rng,
)
from tailfit.generate import generate_losses
from tailfit.mle import fit, fit_rows
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
        # the GB2 n = 2500 cell runs as 4 whole-batch chunks on 2 and 3 workers
        gb2_2500 = (self.INVARIANCE_CELLS[1][0], 2500, 100, STUDY_SEED)
        for model, n, m, seed in [*self.INVARIANCE_CELLS, gb2_2500]:
            serial = run_bootstrap(model, n, m, seed=seed, workers=1)
            for workers in (2, 3):
                parallel = run_bootstrap(model, n, m, seed=seed, workers=workers)
                assert np.array_equal(serial.rows, parallel.rows)
            assert serial.m_converged == (42 if (model.family, n) == ("gb2", 100) else m)

    def test_chunks_fill_whole_batches(self):
        assert _chunks(2500, 100, 2) == [(0, 25), (25, 50), (50, 75), (75, 100)]
        assert len(_chunks(2500, 100, 8)) == 8
        assert len(_chunks(100, 2000, 2)) == 4
        assert len(_chunks(100, 100, 2)) == 2

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

    @pytest.mark.parametrize("family", ["gb2", "loglogistic"])
    @pytest.mark.parametrize("n", [100, 2500])
    def test_batch_cap_invariance(self, monkeypatch, family, n):
        # the default cap fits these 30 replications in one batch at n = 100
        # and in batches of 26 and 4 at n = 2500; a cap of one value fits
        # each replication alone
        model = conftest.TRUE_MODELS[family]
        default = _run_chunk((model, n, STUDY_SEED, 0, 30))
        monkeypatch.setattr(bootstrap, "BATCH_ELEMENTS", 1)
        assert _run_chunk((model, n, STUDY_SEED, 0, 30)) == default
        if family == "gb2" and n == 100:
            assert None in default

    def test_gb2_objective_calls(self, monkeypatch):
        # the GB2 n = 100, m = 100 cell at the study seed costs 789 objective
        # calls at one line-search halving per call, and 294 with the
        # halvings batched; a count, so it repeats exactly
        calls = []
        make_objective = mle._newton_objective

        def counted(*args):
            objective = make_objective(*args)

            def wrapped(rows, thetas):
                calls.append(len(rows))
                return objective(rows, thetas)
            return wrapped

        monkeypatch.setattr(mle, "_newton_objective", counted)
        _run_chunk((conftest.TRUE_MODELS["gb2"], 100, STUDY_SEED, 0, 100))
        assert len(calls) <= 300

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
            assert bm.rows[rep, 0] == fit("pareto", xs, T).model.params[0]

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


# doubles whose decimal form a reader can round wrongly: the smallest
# subnormal, the smallest normal, the largest double, a negative zero, a
# decimal between two doubles, and 2**53 + 1 (written as 2**53)
EDGE_VALUES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -0.0, 1e23, 9007199254740993.0]


def _matrix(family, params, rows):
    rows = np.asarray(rows, dtype=float)
    return BootstrapMatrix(family, params, T, 40, 100, rows.shape[0], rows, 9)


ROUND_TRIP_CASES = {
    "bootstrap": lambda: run_bootstrap(SeverityModel("loglogistic", (1.0, 84000.0), T),
                                       40, 100, seed=9),
    "edge_values": lambda: _matrix("weibull", (0.56, 212303.18),
                                   np.reshape(EDGE_VALUES, (3, 2))),
    "one_column": lambda: _matrix("pareto", (1.11,), np.reshape(EDGE_VALUES, (6, 1))),
    "one_row": lambda: _matrix("gb2", (0.837, 117516.887, 1.184, 1.454),
                               [[0.837, 117516.887, 1.184, 1.454]]),
    "no_rows": lambda: _matrix("lognormal", (11.3, 1.8), np.empty((0, 2))),
}


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        for case, make in ROUND_TRIP_CASES.items():
            bm = make()
            base = tmp_path / f"boot_{case}"
            bm.write(base)
            back = BootstrapMatrix.read(base)
            assert back.rows.shape == bm.rows.shape, case
            assert back.rows.tobytes() == bm.rows.tobytes(), case
            assert back.family == bm.family
            assert back.true_params == bm.true_params
            assert back.threshold == bm.threshold
            assert (back.n, back.m_requested, back.m_converged, back.seed) == \
                (bm.n, bm.m_requested, bm.m_converged, bm.seed)

    @pytest.mark.parametrize("csv_path", sorted(conftest._CACHE_DIR.glob("*.csv")),
                             ids=lambda p: p.stem)
    def test_read_matches_float_per_value(self, csv_path):
        # the oracle: Python's float() on every value of the tracked cache
        lines = csv_path.read_text().splitlines()[1:]
        want = np.array([[float(v) for v in line.split(",")] for line in lines])
        base = csv_path.with_suffix("")
        assert BootstrapMatrix.read(base).rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("csv_path", sorted(conftest._CACHE_DIR.glob("*.csv")),
                             ids=lambda p: p.stem)
    def test_cache_write_read_is_exact(self, tmp_path, csv_path):
        # writing a cached matrix again gives its files byte for byte, and
        # reading that back gives its rows bit for bit
        bm = BootstrapMatrix.read(csv_path.with_suffix(""))
        base = tmp_path / "boot"
        bm.write(base)
        assert base.with_name("boot.csv").read_bytes() == csv_path.read_bytes()
        assert base.with_name("boot.json").read_bytes() == \
            csv_path.with_suffix(".json").read_bytes()
        assert BootstrapMatrix.read(base).rows.tobytes() == bm.rows.tobytes()

    def test_read_rounds_decimals_as_float(self, tmp_path):
        # decimals no writer emits, among them 2**53 + 1 spelled out: it lies
        # halfway between two doubles and must round to the even one
        texts = ["9007199254740993", "9007199254740993.0000000001", "1e23",
                 "2.4703282292062327e-324", "2.4703282292062328e-324",
                 "1.7976931348623158e308", "-0", "0.1", "1e-400"]
        bm = _matrix("pareto", (1.11,), np.zeros((len(texts), 1)))
        base = tmp_path / "boot"
        bm.write(base)
        base.with_name("boot.csv").write_text("shape\n" + "\n".join(texts) + "\n")
        want = np.array([[float(t)] for t in texts])
        assert BootstrapMatrix.read(base).rows.tobytes() == want.tobytes()

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
