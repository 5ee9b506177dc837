import math

import numpy as np
import pytest

from tailfit import (
    SeverityModel,
    bootstrap,
    distributions,
    mle,
    run_bootstrap,
    sample,
    textio,
    true_model_from_losses,
)
from tailfit.bootstrap import (
    BootstrapMatrix,
    TooFewConverged,
    _chunks,
    _run_chunk,
    replication_rng,
)
from tailfit.generate import generate_losses
from tailfit.mle import fit, fit_rows
from tailfit.textio import twin_path

import conftest
from conftest import STUDY_CELLS, STUDY_M, STUDY_SEED, fit_replication, replications

T = 1e5


def cell_name(family: str, n: int) -> str:
    """A study cell's name: its model, threshold, n, m and seed."""
    model = conftest.TRUE_MODELS[family]
    tag = "_".join(repr(p) for p in model.params)
    return f"{family}_{tag}_T{model.threshold!r}_n{n}_m{STUDY_M}_s{STUDY_SEED}"


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
            whole = replications(_run_chunk((model, n, seed, 0, m)))
            for workers in (2, 3):
                parallel = run_bootstrap(model, n, m, seed=seed, workers=workers)
                assert np.array_equal(serial.rows, parallel.rows)
                assert serial.outcomes == parallel.outcomes
                # each replication keeps its class in the chunks the workers fit
                assert [rec for lo, hi in _chunks(n, m, workers)
                        for rec in replications(_run_chunk((model, n, seed, lo, hi)))] == whole
            assert serial.m_converged == (42 if (model.family, n) == ("gb2", 100) else m)
            assert serial.outcomes["interior"] == serial.m_converged
            assert sum(serial.outcomes.values()) == m

    def test_pool_never_exceeds_the_chunks(self, tmp_path, monkeypatch):
        # a fork pool starts every worker at its first submit, so 200 workers
        # for the 100 one-replication chunks of m = 100 must ask for 100; the
        # stand-in pool maps in this process and starts none
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        written = []
        for workers in (1, 200, 2):
            base = tmp_path / f"w{workers}"
            run_bootstrap(model, 100, 100, seed=7, workers=workers).write(base)
            written.append([p.read_bytes() for p in (*BootstrapMatrix.files(base),
                                                     twin_path(f"{base}.csv"))])
        assert asked == [100, 2]
        assert written[1] == written[0] and written[2] == written[0]

    def test_chunks_fill_whole_batches(self):
        assert _chunks(2500, 100, 2) == [(0, 25), (25, 50), (50, 75), (75, 100)]
        assert len(_chunks(2500, 100, 8)) == 8
        assert len(_chunks(100, 2000, 2)) == 4
        assert len(_chunks(100, 100, 2)) == 2

    def test_chunk_split_invariance(self):
        # a chunk fits its replications as one batch; splitting it, or fitting
        # each replication alone, changes no row, no drop and no class
        for model, n, m, seed in self.INVARIANCE_CELLS:
            whole = replications(_run_chunk((model, n, seed, 0, m)))
            split = (replications(_run_chunk((model, n, seed, 0, 37)))
                     + replications(_run_chunk((model, n, seed, 37, m))))
            assert whole == split
            alone = [fit_replication(model, n, seed, rep) for rep in range(30, 45)]
            assert alone == whole[30:45]
            assert all((kind == "interior") == (row is not None) for kind, row in whole)
            if model.family == "gb2":
                assert [i for i, (_, row) in enumerate(whole) if row is None] == \
                    [1, 5, 6, 7, 11, 12, 14, 19, 22, 25, 30, 35, 37, 45, 50, 53, 55, 56]

    @pytest.mark.parametrize("family", ["gb2", "loglogistic"])
    @pytest.mark.parametrize("n", [100, 2500])
    def test_batch_cap_invariance(self, monkeypatch, family, n):
        # the default cap fits these 30 replications in one batch at n = 100
        # and in batches of 26 and 4 at n = 2500; a cap of one value fits
        # each replication alone
        model = conftest.TRUE_MODELS[family]
        default = replications(_run_chunk((model, n, STUDY_SEED, 0, 30)))
        monkeypatch.setattr(bootstrap, "BATCH_ELEMENTS", 1)
        assert replications(_run_chunk((model, n, STUDY_SEED, 0, 30))) == default
        if family == "gb2" and n == 100:
            assert any(row is None for _, row in default)

    def test_gb2_objective_calls(self, monkeypatch):
        # the GB2 n = 100, m = 100 cell at the study seed costs 789 objective
        # calls at one line-search halving per call, and 294 with the
        # halvings batched, which evaluate 11,585 rows.  Stopping the runs
        # that escape toward a nested limit leaves 202 calls of 5,624 rows.
        # Counts, so they repeat exactly
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
        assert len(calls) <= 202
        assert sum(calls) <= 5624

    def test_gb2_likelihood_algebra_runs_once_per_call(self, monkeypatch):
        # the GB2 n = 2500, m = 100 cell at the study seed makes 44 objective
        # calls over 614 rows, whose passes over the data run in blocks of 6
        # rows; ln B, psi and psi' run once per call, not per block (123)
        calls, algebra = [], []
        make_objective = mle._newton_objective
        polygamma = distributions.beta_polygamma_rows

        def counted(*args):
            objective = make_objective(*args)

            def wrapped(rows, thetas):
                calls.append(len(rows))
                return objective(rows, thetas)
            return wrapped

        def counted_polygamma(p, q):
            algebra.append(len(p))
            return polygamma(p, q)

        monkeypatch.setattr(mle, "_newton_objective", counted)
        monkeypatch.setattr(distributions, "beta_polygamma_rows", counted_polygamma)
        _run_chunk((conftest.TRUE_MODELS["gb2"], 2500, STUDY_SEED, 0, 100))
        assert len(calls) <= 44
        assert sum(calls) <= 614
        assert len(algebra) <= 44

    @pytest.mark.parametrize("seed", [0, 20260823, 2**40 + 7, 2**150 + 3])
    def test_replication_keys_equal_seed_sequence(self, seed):
        # seeds of 1, 2 and 5 words; a replication from 2**32 on has two
        # spawn words
        reps = np.concatenate([np.arange(5000), [2**32 - 1, 2**32, 2**40 + 3]])
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(int(rep),))
                .generate_state(2, np.uint64) for rep in reps]
        assert np.array_equal(bootstrap._replication_keys(seed, reps), want)

    @pytest.mark.parametrize("family", list(conftest.TRUE_MODELS))
    def test_chunk_equals_replications_fitted_alone(self, family):
        # each replication drawn from its own `replication_rng` and fitted
        # alone by `fit`: no shared generator, no batch
        model = conftest.TRUE_MODELS[family]
        for n, lo, hi in ((100, 20, 60), (2500, 3, 9)):
            want = []
            for rep in range(lo, hi):
                xs = sample(model, n, replication_rng(STUDY_SEED, rep))
                kind = mle.OUTCOMES[fit_rows(family, xs[None, :], T).classes[0]]
                want.append((kind, fit(family, xs, T).model.params if kind == "interior" else None))
            assert replications(_run_chunk((model, n, STUDY_SEED, lo, hi))) == want
            if (family, n) == ("gb2", 100):
                assert any(row is None for _, row in want)

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
        classes = fit_rows("loglogistic", xs, 0.0).classes
        invalid = (classes == mle.OUTCOMES.index("invalid_start")).tolist()
        assert 0 < sum(invalid) < 50
        rows = replications(_run_chunk((model, 3, 4, 0, 100)))
        assert [row is None for _, row in rows] == invalid
        assert [kind == "invalid_start" for kind, _ in rows] == invalid
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


def _refuse(*args, **kwargs):
    raise AssertionError("the csv was parsed")


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
    def test_write_read_identity(self, tmp_path, monkeypatch):
        # a written matrix is read from its twin, without parsing its csv,
        # and from the csv alone once the twin is gone
        for case, make in ROUND_TRIP_CASES.items():
            bm = make()
            base = tmp_path / f"boot_{case}"
            bm.write(base)
            with monkeypatch.context() as m:
                m.setattr(np, "loadtxt", _refuse)
                m.setattr(textio, "_walk", _refuse)
                from_twin = BootstrapMatrix.read(base)
            twin_path(BootstrapMatrix.files(base)[0]).unlink()
            for back in (from_twin, BootstrapMatrix.read(base)):
                assert back.rows.shape == bm.rows.shape, case
                assert back.rows.tobytes() == bm.rows.tobytes(), case
                assert back.family == bm.family
                assert back.true_params == bm.true_params
                assert back.threshold == bm.threshold
                assert (back.n, back.m_requested, back.m_converged, back.seed) == \
                    (bm.n, bm.m_requested, bm.m_converged, bm.seed)
                assert back.outcomes == bm.outcomes

    def test_twin_bytes_follow_the_rows(self, tmp_path):
        # every file of a written cell, its twin too, is the same bytes at 1
        # and 2 workers and on a second write
        model = SeverityModel("lognormal", (11.3, 1.8), T)
        serial = run_bootstrap(model, 50, 120, seed=7, workers=1)
        parallel = run_bootstrap(model, 50, 120, seed=7, workers=2)
        written = []
        for bm in (serial, parallel, parallel):
            out = tmp_path / f"run{len(written)}"
            out.mkdir()
            bm.write(out / "boot_x")
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(written[0]) == [".boot_x.csv.f64", "boot_x.csv", "boot_x.json"]
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("cell", STUDY_CELLS, ids=lambda cell: cell_name(*cell))
    def test_read_matches_float_per_value(self, tmp_path, study_matrices, cell):
        # the oracle: Python's float() on every value of a written study cell,
        # parsed from the CSV alone
        base = tmp_path / "boot"
        study_matrices[cell].write(base)
        csv_path = BootstrapMatrix.files(base)[0]
        twin_path(csv_path).unlink()
        lines = csv_path.read_text().splitlines()[1:]
        want = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert BootstrapMatrix.read(base).rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", STUDY_CELLS, ids=lambda cell: cell_name(*cell))
    def test_cache_write_read_is_exact(self, tmp_path, study_matrices, cell):
        # a study cell written, read from its CSV and written again gives its
        # files byte for byte, and each read gives its rows bit for bit
        bm = study_matrices[cell]
        first, second = tmp_path / "first", tmp_path / "second"
        bm.write(first)
        twin_path(BootstrapMatrix.files(first)[0]).unlink()
        back = BootstrapMatrix.read(first)
        back.write(second)
        for a, b in zip(BootstrapMatrix.files(first), BootstrapMatrix.files(second)):
            assert a.read_bytes() == b.read_bytes()
        for base in (first, second):
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


# The replications of the GB2 n = 100 study cell whose Newton runs used to
# converge on the flat double-Pareto ridge, at a ~ 1.2-1.5e6 and p, q ~ 5e-7.
RIDGE_REPLICATIONS = (161, 364, 395, 759, 844, 1151, 1346, 1357, 1426, 1459, 1485, 1540,
                      1603, 1608, 1784, 1883, 1907, 1981, 1984)


def test_ridge_replications_leave_the_gb2_cell(study_matrices):
    model = conftest.TRUE_MODELS["gb2"]
    xs = np.array([sample(model, 100, replication_rng(STUDY_SEED, rep))
                   for rep in RIDGE_REPLICATIONS])
    classes = fit_rows("gb2", xs, model.threshold).classes
    assert [mle.OUTCOMES[c] for c in classes] == \
        ["boundary_double_pareto"] * len(RIDGE_REPLICATIONS)
    bm = study_matrices[("gb2", 100)]
    # the cell classifies the escaping runs and holds no row from the ridge:
    # the kept rows all have a < 300
    assert bm.outcomes is not None
    assert bm.outcomes["boundary_double_pareto"] >= len(RIDGE_REPLICATIONS)
    assert np.max(bm.rows[:, 0]) < 1e3


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
