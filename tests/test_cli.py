import json

import numpy as np
import pytest

from tailfit.bootstrap import BootstrapMatrix
from tailfit.cli import ConfigError, StudyConfig, main, parse_config, read_losses


def write_config(tmp_path, **overrides):
    defaults = {
        "seed": 777,
        "threshold": 1e5,
        "families": "pareto,lognormal",
        "sample_sizes": "100",
        "replications": 120,
        "input": str(tmp_path / "losses.csv"),
        "out": str(tmp_path / "out"),
    }
    defaults.update(overrides)
    lines = [f"{k} = {v}" for k, v in defaults.items()]
    path = tmp_path / "study.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def write_tail_at_threshold(path):
    """Twelve tail losses, all exactly at the 1e5 threshold, over a body below it."""
    path.write_text("loss\n" + "\n".join(["5000.0"] * 50 + ["100000.0"] * 12) + "\n")


@pytest.fixture()
def losses_file(tmp_path):
    rc = main(["generate", "--out", str(tmp_path), "--seed", "777",
               "--profile", "uom1", "--n", "20000"])
    assert rc == 0
    return tmp_path / "losses.csv"


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(
            "seed = 9\nthreshold = 2e5\nfamilies = pareto\n"
            "sample_sizes = 100, 500\nreplications = 150\nlevel = 0.9\n"
            "input = in.csv\nout = results\n"
        )
        assert cfg.seed == 9
        assert cfg.threshold == 2e5
        assert cfg.families == ("pareto",)
        assert cfg.sample_sizes == (100, 500)
        assert cfg.replications == 150
        assert cfg.level == 0.9
        assert cfg.input == "in.csv"
        assert cfg.out == "results"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nseed = 4  # trailing\n")
        assert cfg.seed == 4

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("sample_size = 100\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("seed = twelve\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just a line\n")

    def test_validation(self):
        with pytest.raises(ConfigError):
            parse_config("sample_sizes = 500, 100\n")
        with pytest.raises(ConfigError):
            parse_config("replications = 50\n")
        with pytest.raises(ConfigError):
            parse_config("level = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("families = pareto, gaussian\n")

    def test_config_hash_ignores_out_and_threads(self):
        a = StudyConfig(seed=1, out="x", threads=1)
        b = StudyConfig(seed=1, out="y", threads=8)
        assert a.config_hash == b.config_hash
        assert a.config_hash != StudyConfig(seed=2).config_hash


class TestReadLosses:
    def test_valid(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("loss\n100.5\n2e5\n\n3.25\n")
        assert np.array_equal(read_losses(path), [100.5, 2e5, 3.25])

    def test_header_required(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("amount\n1.0\n")
        with pytest.raises(ConfigError):
            read_losses(path)

    def test_negative_loss_names_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("loss\n5.0\n-2.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_losses(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("loss\nabc\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_losses(path)


class TestGenerateCommand:
    def test_unknown_profile_exits_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--profile", "nope"]) == 2

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["generate", "--out", str(tmp_path / sub), "--seed", "5",
                       "--profile", "uom1", "--n", "3000"])
            assert rc == 0
        assert (tmp_path / "a" / "losses.csv").read_bytes() == \
            (tmp_path / "b" / "losses.csv").read_bytes()

    def test_meta_written(self, tmp_path):
        main(["generate", "--out", str(tmp_path), "--seed", "5", "--n", "1000"])
        meta = json.loads((tmp_path / "run_meta_generate.json").read_text())
        assert meta["command"] == "generate"
        assert meta["seed"] == 5
        assert len(meta["config_hash"]) == 16


class TestFitCommand:
    def test_fit_uom1_pareto(self, tmp_path, losses_file):
        cfg = write_config(tmp_path, families="pareto")
        assert main(["fit", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "true_params.json").read_text())
        assert list(payload["families"]) == ["pareto"]
        alpha = payload["families"]["pareto"]["params"]["shape"]
        assert abs(alpha - 1.11) < 0.15
        assert payload["families"]["pareto"]["n_excluded"] > 0

    def test_weibull_warning_recorded(self, tmp_path, losses_file):
        cfg = write_config(tmp_path, families="weibull")
        assert main(["fit", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "true_params.json").read_text())
        assert payload["families"]["weibull"]["warnings"] == ["WeibullInconsistent"]

    def test_bad_loss_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "losses.csv"
        bad.write_text("loss\n10.0\n-3.0\n")
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, input=str(tmp_path / "absent.csv"))
        assert main(["fit", "--config", str(cfg)]) == 2

    def test_too_few_tail_losses_exits_2(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + "\n".join(["50.0"] * 100) + "\n")
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 2

    def test_degenerate_tail_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        write_tail_at_threshold(tmp_path / "losses.csv")
        assert main(["fit", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "out" / "true_params.json").exists()


    def test_loglogistic_without_start_exits_3(self, tmp_path, capsys):
        # twelve equal tail losses: the maximum equals the median
        cfg = write_config(tmp_path, families="loglogistic")
        (tmp_path / "losses.csv").write_text(
            "loss\n" + "\n".join(["5000.0"] * 50 + ["100005.0"] * 12) + "\n")
        assert main(["fit", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith("error: fit failed for family loglogistic: ")
        assert not (tmp_path / "out" / "true_params.json").exists()


class TestPipeline:
    @pytest.fixture()
    def ran_bootstrap(self, tmp_path, losses_file):
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main(["bootstrap", "--config", str(cfg)]) == 0
        return cfg

    def test_bootstrap_outputs(self, tmp_path, ran_bootstrap):
        out = tmp_path / "out"
        for family in ("pareto", "lognormal"):
            assert (out / f"boot_{family}_n100.csv").exists()
            meta = json.loads((out / f"boot_{family}_n100.json").read_text())
            assert meta["m_converged"] <= meta["m_requested"] == 120
            assert meta["config_hash"]

    def test_bootstrap_deterministic_across_threads(self, tmp_path, ran_bootstrap):
        out = tmp_path / "out"
        first = (out / "boot_lognormal_n100.csv").read_bytes()
        assert main(["bootstrap", "--config", str(ran_bootstrap), "--threads", "2"]) == 0
        assert (out / "boot_lognormal_n100.csv").read_bytes() == first

    def test_normality_table(self, tmp_path, ran_bootstrap):
        assert main(["normality", "--config", str(ran_bootstrap)]) == 0
        lines = (tmp_path / "out" / "normality.csv").read_text().strip().splitlines()
        assert lines[0] == "family,n,test,statistic,p_value,m_used"
        tests = [line.split(",")[2] for line in lines[1:]]
        assert tests == ["AndersonDarling", "MardiaSkew", "MardiaKurtosis"]

    def test_cierror_table(self, tmp_path, ran_bootstrap):
        assert main(["cierror", "--config", str(ran_bootstrap)]) == 0
        lines = (tmp_path / "out" / "ci_error.csv").read_text().strip().splitlines()
        assert lines[0] == "family,param,100"
        assert len(lines) == 4  # pareto shape + lognormal meanlog/sdlog, plus header
        payload = json.loads((tmp_path / "out" / "ci_error.json").read_text())
        assert len(payload["rows"]) == 3

    def test_overlays_emit_per_param_files(self, tmp_path, ran_bootstrap):
        assert main(["overlays", "--config", str(ran_bootstrap)]) == 0
        out = tmp_path / "out"
        for name in ("overlay_pareto_shape_100.csv",
                     "overlay_lognormal_meanlog_100.csv",
                     "overlay_lognormal_sdlog_100.csv"):
            assert (out / name).exists()

    def test_missing_matrix_exits_5(self, tmp_path, losses_file):
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main(["normality", "--config", str(cfg)]) == 5
        assert main(["cierror", "--config", str(cfg)]) == 5
        assert main(["overlays", "--config", str(cfg)]) == 5

    def test_in_run_fit_failure_keeps_its_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        write_tail_at_threshold(tmp_path / "losses.csv")
        assert main(["bootstrap", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.count("error:") == 1
        assert not list((tmp_path / "out").glob("boot_*"))

    def test_family_missing_from_true_params_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        payload = {"families": {"pareto": {"params": {"shape": 1.11}, "threshold": 1e5}}}
        (out / "true_params.json").write_text(json.dumps(payload))
        cfg = write_config(tmp_path, families="pareto,gb2")
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "gb2" in err
        assert not list(out.glob("boot_*"))

    def test_constant_column_exits_4(self, tmp_path, capsys):
        # meanlog fixed at 11.3, which no double represents exactly
        sdlog = np.random.default_rng(1).normal(1.8, 0.1, 120)
        bm = BootstrapMatrix(family="lognormal", true_params=(11.3, 1.8), threshold=1e5,
                             n=100, m_requested=120, m_converged=120,
                             rows=np.column_stack([np.full(120, 11.3), sdlog]), seed=777)
        (tmp_path / "out").mkdir()
        bm.write(tmp_path / "out" / "boot_lognormal_n100")
        cfg = write_config(tmp_path, families="lognormal")
        for command in ("normality", "cierror", "overlays"):
            assert main([command, "--config", str(cfg)]) == 4
            err = capsys.readouterr().err
            assert err.count("error:") == 1
            assert err.startswith("error: lognormal at n=100: ")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["boot_lognormal_n100.csv", "boot_lognormal_n100.json"]

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["bootstrap", "--config", str(cfg)]) == 2

    def test_too_few_converged_to_analyse_exits_4(self, tmp_path, capsys):
        # 88 of 100 converged: fewer than the 100 an analysis needs
        rows = np.random.default_rng(0).uniform(0.5, 2.0, (88, 4)) * [1.0, 1e5, 1.0, 1.0]
        bm = BootstrapMatrix(family="gb2", true_params=(0.837, 117516.887, 1.184, 1.454),
                             threshold=1e5, n=100, m_requested=100, m_converged=88,
                             rows=rows, seed=777)
        (tmp_path / "out").mkdir()
        bm.write(tmp_path / "out" / "boot_gb2_n100")
        cfg = write_config(tmp_path, families="gb2", replications=100)
        for command in ("cierror", "overlays"):
            assert main([command, "--config", str(cfg)]) == 4
            assert "error: gb2 at n=100: need at least 100 converged replications, have 88" \
                in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("overlay_*"))
        assert not (tmp_path / "out" / "ci_error.csv").exists()


class TestParser:
    def test_threads_only_on_bootstrap(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ("fit", "normality", "cierror", "overlays", "generate"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--threads", "4"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
