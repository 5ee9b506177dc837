import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailfit
from tailfit.bootstrap import BootstrapMatrix
from tailfit.cli import (ConfigError, StudyConfig, _study_config, build_parser, main,
                         parse_config, read_losses)
from tailfit.generate import generate_losses
from tailfit.mle import OUTCOMES


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
        with pytest.raises(ConfigError, match="families names pareto more than once"):
            parse_config("families = pareto, weibull, pareto\n")
        for threshold in ("-5", "0", "nan", "inf"):
            with pytest.raises(ConfigError):
                parse_config(f"threshold = {threshold}\n")

    def test_invalid_config_cannot_be_built(self):
        with pytest.raises(ConfigError, match="replications must be at least 100"):
            StudyConfig(replications=50)
        with pytest.raises(ConfigError, match="threads must be at least 1, got 0"):
            StudyConfig(threads=0)

    def test_no_families_exits_2(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="families"):
            parse_config("families =\n")
        cfg = write_config(tmp_path, families="")
        assert main(["normality", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: families must name at least one family\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling", ["config", "flag"])
    def test_empty_out_exits_2(self, tmp_path, monkeypatch, capsys, spelling):
        # an empty out would put every output in the working directory
        write_config(tmp_path, out="" if spelling == "config" else "out")
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        flags = ["--out", ""] if spelling == "flag" else []
        assert main(["bootstrap", "--config", "study.cfg", *flags]) == 2
        assert capsys.readouterr().err == "error: out must name a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_config_hash_ignores_out_and_threads(self):
        a = StudyConfig(seed=1, input="a/losses.csv", out="x", threads=1)
        b = StudyConfig(seed=1, input="b/losses.csv", out="y", threads=8)
        assert a.config_hash == b.config_hash
        assert a.config_hash != StudyConfig(seed=2).config_hash

    def test_config_hash_pinned(self):
        # every boot_*.json, run_meta_*.json and true_params.json carries it
        assert StudyConfig().config_hash == "67ec7477016cdaef"
        cfg = parse_config("seed = 20260823\nfamilies = pareto, gb2\n"
                           "sample_sizes = 100, 2500\nreplications = 100\ninput = x.csv\n")
        assert cfg.config_hash == "5ed411b3fab31879"


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


    # each line after a valid "2.5": the values read, or the exact error text
    # (both as the one-float-per-line parser gave them)
    @pytest.mark.parametrize("line,want", [
        ("", [2.5]),
        ("1_000", [2.5, 1000.0]),
        (" 1.5 ", [2.5, 1.5]),
        ("inf", "losses must be positive, got 'inf'"),
        ("nan", "losses must be positive, got 'nan'"),
        ("1e400", "losses must be positive, got '1e400'"),
        ("0", "losses must be positive, got '0'"),
        ("-0", "losses must be positive, got '-0'"),
        ("1.0 2.0", "not a number: '1.0 2.0'"),
        ("abc", "not a number: 'abc'"),
        # a line ends at "\n" alone, not at the other breaks of str.splitlines
        ("150000.0\u2028250000.0", "not a number: '150000.0\\u2028250000.0'"),
    ])
    def test_parity(self, tmp_path, line, want):
        path = tmp_path / "l.csv"
        path.write_text(f"loss\n2.5\n{line}\n", encoding="utf-8")
        if isinstance(want, list):
            got = read_losses(path)
            assert got.dtype == np.float64
            assert got.tolist() == want
        else:
            with pytest.raises(ConfigError) as exc:
                read_losses(path)
            assert str(exc.value) == f"{path}: line 3: {want}"

    @pytest.mark.parametrize("body,want", [
        ("3\n\n-2\nabc\n", "line 4: losses must be positive, got '-2'"),
        ("3\nabc\n-2\n", "line 3: not a number: 'abc'"),
        ("1.5\f\nabc\n", "line 3: not a number: 'abc'"),
    ])
    def test_first_bad_line_named(self, tmp_path, body, want):
        path = tmp_path / "l.csv"
        path.write_text("loss\n" + body)
        with pytest.raises(ConfigError) as exc:
            read_losses(path)
        assert str(exc.value) == f"{path}: {want}"

    def test_empty_body(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("loss\n\n")
        got = read_losses(path)
        assert got.dtype == np.float64 and got.shape == (0,)

    # the matrix reader's messages, since both read through textio.read_rows
    @pytest.mark.parametrize("text,want", [
        ("loss\n1.0,2.0\n", "line 2: expected 1 values, got 2"),
        ("", "line 1: header '', expected 'loss'"),
    ])
    def test_width_and_empty_file(self, tmp_path, text, want):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            read_losses(path)
        assert str(exc.value) == f"{path}: {want}"


class TestGenerateCommand:
    def test_unknown_profile_exits_2(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--profile", "nope"]) == 2

    @pytest.mark.parametrize("argv", [["--n", "-5"], ["--n", "0"], ["--seed", "-1"]],
                             ids=["n_negative", "n_zero", "seed_negative"])
    def test_bad_size_or_seed_exits_2(self, tmp_path, capsys, argv):
        assert main(["generate", "--out", str(tmp_path / "out"), *argv]) == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "out").exists()

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["generate", "--out", str(tmp_path / sub), "--seed", "5",
                       "--profile", "uom1", "--n", "3000"])
            assert rc == 0
        assert (tmp_path / "a" / "losses.csv").read_bytes() == \
            (tmp_path / "b" / "losses.csv").read_bytes()

    def test_file_round_trips(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--seed", "5", "--n", "3000"]) == 0
        want = generate_losses("uom1", 3000, seed=5)
        assert read_losses(tmp_path / "losses.csv").tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_size_file_round_trips(self, tmp_path, seed):
        assert main(["generate", "--out", str(tmp_path), "--seed", str(seed)]) == 0
        want = generate_losses("uom1", 50000, seed=seed)
        assert read_losses(tmp_path / "losses.csv").tobytes() == want.tobytes()

    def test_meta_written(self, tmp_path):
        main(["generate", "--out", str(tmp_path), "--seed", "5", "--n", "1000"])
        meta = json.loads((tmp_path / "run_meta_generate.json").read_text())
        assert meta["command"] == "generate"
        assert meta["seed"] == 5
        assert len(meta["config_hash"]) == 16
        assert meta["threads"] == 1
        assert meta["versions"] == {"numpy": np.__version__, "python": platform.python_version(),
                                    "tailfit": tailfit.__version__}


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

    def test_non_utf8_loss_file_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "losses.csv"
        bad.write_bytes(b"loss\n\xff\xfe1.0\n")
        cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n"

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


    def test_negative_threshold_exits_2(self, tmp_path, losses_file, capsys):
        cfg = write_config(tmp_path, threshold=-5)
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: threshold must be finite and positive, got -5.0\n"
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
        # two boot_* files per cell; each csv's twin is a hidden file beside it
        assert sorted(p.name for p in out.glob("boot_*")) == [
            "boot_lognormal_n100.csv", "boot_lognormal_n100.json",
            "boot_pareto_n100.csv", "boot_pareto_n100.json"]
        assert sorted(p.name for p in out.glob(".*")) == [
            ".boot_lognormal_n100.csv.f64", ".boot_pareto_n100.csv.f64"]
        for family in ("pareto", "lognormal"):
            assert (out / f"boot_{family}_n100.csv").exists()
            meta = json.loads((out / f"boot_{family}_n100.json").read_text())
            assert meta["m_converged"] <= meta["m_requested"] == 120
            assert meta["config_hash"]
            assert meta["outcomes"] == {**dict.fromkeys(OUTCOMES, 0),
                                        "interior": meta["m_converged"]}

    def test_outputs_do_not_depend_on_the_directory(self, tmp_path, losses_file):
        # one loss file run from two directories writes the same bytes
        outputs = []
        for name in ("a", "b"):
            run = tmp_path / name
            run.mkdir()
            shutil.copyfile(losses_file, run / "losses.csv")
            cfg = write_config(run)
            assert main(["fit", "--config", str(cfg)]) == 0
            assert main(["bootstrap", "--config", str(cfg)]) == 0
            out = run / "out"
            outputs.append({p.name: p.read_bytes()
                            for p in [out / "true_params.json", *sorted(out.glob("boot_*"))]})
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]

    def test_bootstrap_deterministic_across_threads(self, tmp_path, ran_bootstrap):
        out = tmp_path / "out"
        names = ("boot_lognormal_n100.csv", ".boot_lognormal_n100.csv.f64",
                 "boot_lognormal_n100.json")
        first = [(out / name).read_bytes() for name in names]
        meta = out / "run_meta_bootstrap.json"
        assert json.loads(meta.read_text())["threads"] == 1
        assert main(["bootstrap", "--config", str(ran_bootstrap), "--threads", "2"]) == 0
        assert [(out / name).read_bytes() for name in names] == first
        # the worker count goes to the run meta alone
        assert json.loads(meta.read_text())["threads"] == 2

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

    # (defect, csv text of a weibull matrix whose sidecar says 3 rows, the
    # message after the file name)
    MALFORMED = {
        "header": ("scale,shape\n1.0,2.0\n3.0,4.0\n5.0,6.0\n",
                   "line 1: header 'scale,shape', expected 'shape,scale'"),
        "ragged_row": ("shape,scale\n1.0,2.0\n3.0\n5.0,6.0\n",
                       "line 3: expected 2 values, got 1"),
        "extra_column": ("shape,scale\n1.0,2.0,5.0\n3.0,4.0,5.0\n5.0,6.0,5.0\n",
                         "line 2: expected 2 values, got 3"),
        "row_count": ("shape,scale\n1.0,2.0\n3.0,4.0\n",
                      "2 rows, but boot_weibull_n100.json gives m_converged = 3"),
        "not_a_number": ("shape,scale\n1.0,2.0\n3.0,4.0\n5.0,six\n",
                         "line 4: not a number: 'six'"),
        "not_finite": ("shape,scale\n1.0,2.0\nnan,4.0\n5.0,6.0\n",
                       "line 3: not a finite number: 'nan'"),
    }

    @pytest.mark.parametrize("defect", MALFORMED)
    def test_malformed_matrix_exits_5(self, tmp_path, capsys, defect):
        text, message = self.MALFORMED[defect]
        base = tmp_path / "out" / "boot_weibull_n100"
        base.parent.mkdir()
        BootstrapMatrix("weibull", (0.56, 212303.18), 1e5, 100, 3, 3,
                        np.ones((3, 2)), 777).write(base)
        csv_path = BootstrapMatrix.files(base)[0]
        csv_path.write_text(text)
        cfg = write_config(tmp_path, families="weibull")
        for command in ("normality", "cierror", "overlays"):
            assert main([command, "--config", str(cfg)]) == 5
            err = capsys.readouterr().err
            assert err == f"error: {csv_path}: {message}\n"
        assert sorted(p.name for p in base.parent.iterdir()) == \
            [".boot_weibull_n100.csv.f64", "boot_weibull_n100.csv", "boot_weibull_n100.json"]

    def test_non_utf8_matrix_names_the_file(self, tmp_path, capsys):
        base = tmp_path / "out" / "boot_weibull_n100"
        base.parent.mkdir()
        BootstrapMatrix("weibull", (0.56, 212303.18), 1e5, 100, 3, 3,
                        np.ones((3, 2)), 777).write(base)
        csv_path = BootstrapMatrix.files(base)[0]
        csv_path.write_bytes(b"shape,scale\n1.0,2.0\n3.0,4.0\n5.0,\xff6.0\n")
        cfg = write_config(tmp_path, families="weibull")
        assert main(["normality", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == \
            f"error: {csv_path}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_matrix_of_another_cell_exits_5(self, tmp_path, capsys):
        # boot_pareto_n100.* copied over boot_weibull_n100.*: the file name
        # says weibull, the sidecar and rows say pareto
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(5)
        BootstrapMatrix("pareto", (1.11,), 1e5, 100, 120, 120,
                        rng.normal(1.11, 0.1, (120, 1)), 777).write(out / "boot_pareto_n100")
        BootstrapMatrix("weibull", (0.56, 212303.18), 1e5, 100, 120, 120,
                        rng.normal([0.56, 212303.18], [0.05, 2e4], (120, 2)),
                        777).write(out / "boot_weibull_n100")
        for suffix in (".csv", ".json"):
            (out / f"boot_weibull_n100{suffix}").write_bytes(
                (out / f"boot_pareto_n100{suffix}").read_bytes())
        cfg = write_config(tmp_path, families="pareto,weibull")
        assert main(["normality", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == (
            f"error: {out / 'boot_weibull_n100.json'}: holds pareto at n=100, "
            f"not weibull at n=100\n")
        assert not (out / "normality.csv").exists()

    def test_missing_sidecar_exits_5(self, tmp_path, capsys):
        base = tmp_path / "out" / "boot_pareto_n100"
        base.parent.mkdir()
        BootstrapMatrix("pareto", (1.11,), 1e5, 100, 3, 3, np.ones((3, 1)), 777).write(base)
        json_path = BootstrapMatrix.files(base)[1]
        json_path.unlink()
        cfg = write_config(tmp_path, families="pareto")
        assert main(["normality", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == f"error: missing bootstrap matrix {json_path}\n"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_unopenable_matrix_exits_5(self, tmp_path, capsys, suffix):
        # a boot_* file that is a directory: the error names it, no traceback
        base = tmp_path / "out" / "boot_pareto_n100"
        base.parent.mkdir()
        BootstrapMatrix("pareto", (1.11,), 1e5, 100, 3, 3, np.ones((3, 1)), 777).write(base)
        path = Path(f"{base}{suffix}")
        path.unlink()
        path.mkdir()
        cfg = write_config(tmp_path, families="pareto")
        for command in ("normality", "cierror", "overlays"):
            assert main([command, "--config", str(cfg)]) == 5
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith(f"error: {path}: cannot open: ")

    # a sidecar that is not JSON, one without m_converged, one of an unknown
    # family, one whose class counts do not add up to m_requested, ones whose
    # m_requested contradicts its m_converged of 3, and ones whose theta*,
    # threshold, n or seed is not a valid value of its field
    SIDECARS = {
        "not_json": lambda meta: "{",
        "no_m_converged": lambda meta: json.dumps({k: v for k, v in meta.items()
                                                   if k != "m_converged"}),
        "unknown_family": lambda meta: json.dumps({**meta, "family": "normal"}),
        "short_outcomes": lambda meta: json.dumps(
            {**meta, "outcomes": {**dict.fromkeys(OUTCOMES, 0), "interior": 2}}),
        "three_params": lambda meta: json.dumps({**meta, "true_params": [0.56, 2e5, 1.0]}),
        "string_param": lambda meta: json.dumps({**meta, "true_params": ["0.56", 2e5]}),
        "null_params": lambda meta: json.dumps({**meta, "true_params": None}),
        "negative_threshold": lambda meta: json.dumps({**meta, "threshold": -5.0}),
        "infinite_threshold": lambda meta: json.dumps({**meta, "threshold": float("inf")}),
        "string_n": lambda meta: json.dumps({**meta, "n": "100"}),
        "negative_m_requested": lambda meta: json.dumps({**meta, "m_requested": -1}),
        "m_requested_below_m_converged": lambda meta: json.dumps({**meta, "m_requested": 2}),
        "negative_seed": lambda meta: json.dumps({**meta, "seed": -5}),
    }
    # the field that the error names, where it names one
    SIDECAR_FIELDS = {"three_params": "true_params", "string_param": "true_params",
                      "null_params": "true_params", "negative_threshold": "threshold",
                      "infinite_threshold": "threshold", "string_n": "n must be",
                      "negative_m_requested": "m_requested = -1",
                      "m_requested_below_m_converged": "m_requested = 2",
                      "negative_seed": "seed must be nonnegative, got -5"}

    @pytest.mark.parametrize("command", ["normality", "cierror", "overlays"])
    @pytest.mark.parametrize("defect", SIDECARS)
    def test_malformed_sidecar_exits_5(self, tmp_path, capsys, defect, command):
        base = tmp_path / "out" / "boot_weibull_n100"
        base.parent.mkdir()
        BootstrapMatrix("weibull", (0.56, 212303.18), 1e5, 100, 3, 3,
                        np.ones((3, 2)), 777).write(base)
        json_path = BootstrapMatrix.files(base)[1]
        json_path.write_text(self.SIDECARS[defect](json.loads(json_path.read_text())))
        cfg = write_config(tmp_path, families="weibull")
        assert main([command, "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith(f"error: {json_path}: ")
        assert self.SIDECAR_FIELDS.get(defect, "") in err
        assert sorted(p.name for p in base.parent.iterdir()) == \
            [".boot_weibull_n100.csv.f64", "boot_weibull_n100.csv", "boot_weibull_n100.json"]

    def test_entry_point_reports_malformed_sidecar(self, tmp_path):
        base = tmp_path / "out" / "boot_pareto_n100"
        base.parent.mkdir()
        BootstrapMatrix("pareto", (1.11,), 1e5, 100, 3, 3, np.ones((3, 1)), 777).write(base)
        BootstrapMatrix.files(base)[1].write_text("{")
        cfg = write_config(tmp_path, families="pareto")
        src = str(Path(tailfit.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "tailfit.cli", "normality",
                               "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 5
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

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

    # true_params.json that is not JSON, lacks a parameter, or has a shape <= 0
    TRUE_PARAMS = {
        "not_json": "{",
        "no_param": json.dumps({"families": {"pareto": {"params": {}, "threshold": 1e5}}}),
        "bad_shape": json.dumps({"families": {"pareto": {"params": {"shape": -1.0},
                                                         "threshold": 1e5}}}),
        "other_threshold": json.dumps({"families": {"pareto": {"params": {"shape": 1.11},
                                                               "threshold": 2e5}}}),
    }
    # the text that follows the path, where the test pins it
    TRUE_PARAMS_TEXT = {"other_threshold": "pareto was fitted at threshold 200000.0, "
                                           "the study's threshold is 100000.0\n"}

    @pytest.mark.parametrize("defect", TRUE_PARAMS)
    def test_malformed_true_params_exits_2(self, tmp_path, capsys, defect):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "true_params.json"
        path.write_text(self.TRUE_PARAMS[defect])
        cfg = write_config(tmp_path, families="pareto")
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith(f"error: {path}: ")
        assert err.endswith(self.TRUE_PARAMS_TEXT.get(defect, ""))
        assert not list(out.glob("boot_*"))

    # true_params.json that is not UTF-8 or whose top level is not an object:
    # the file's contents, and the text that follows the path
    TRUE_PARAMS_FILES = {
        "not_utf8": (b'{"families": {}}\xff\n', "not UTF-8 text (byte 0xff: invalid start byte)"),
        "list": (b"[]\n", "not a JSON object"),
    }

    @pytest.mark.parametrize("defect", TRUE_PARAMS_FILES)
    def test_true_params_not_a_json_object_exits_2(self, tmp_path, capsys, defect):
        content, message = self.TRUE_PARAMS_FILES[defect]
        out = tmp_path / "out"
        out.mkdir()
        path = out / "true_params.json"
        path.write_bytes(content)
        cfg = write_config(tmp_path, families="pareto")
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not list(out.glob("boot_*"))

    def test_unreadable_true_params_exits_2(self, tmp_path, capsys):
        # true_params.json that is a directory: one line naming it
        path = tmp_path / "out" / "true_params.json"
        path.mkdir(parents=True)
        cfg = write_config(tmp_path, families="pareto")
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert str(path) in err
        assert not list(path.parent.glob("boot_*"))

    def test_non_utf8_sidecar_names_the_file(self, tmp_path, capsys):
        base = tmp_path / "out" / "boot_pareto_n100"
        base.parent.mkdir()
        BootstrapMatrix("pareto", (1.11,), 1e5, 100, 3, 3, np.ones((3, 1)), 777).write(base)
        json_path = BootstrapMatrix.files(base)[1]
        json_path.write_bytes(json_path.read_bytes() + b"\xff")
        cfg = write_config(tmp_path, families="pareto")
        assert main(["normality", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err == \
            f"error: {json_path}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    @pytest.mark.parametrize("command", ["generate", "fit", "bootstrap"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, losses_file, command):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        cfg = write_config(tmp_path, families="pareto")
        extra = ["--n", "100"] if command == "generate" else []
        assert main([command, "--config", str(cfg), *extra]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=-1)
        assert main(["bootstrap", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "out").exists()

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
            [".boot_lognormal_n100.csv.f64", "boot_lognormal_n100.csv", "boot_lognormal_n100.json"]

    # theta* whose GB2 information is singular: at q = 1e306 ln B(p, q)
    # overflows, and the information needs no ln B
    @pytest.mark.parametrize("command", ["cierror", "overlays"])
    @pytest.mark.parametrize("q", [1e200, 1e306])
    def test_singular_information_exits_4(self, tmp_path, capsys, command, q):
        rows = np.random.default_rng(0).uniform(0.5, 2.0, (120, 4))
        (tmp_path / "out").mkdir()
        BootstrapMatrix("gb2", (1.0, 1.0, q, 1.0), 1e5, 100, 120, 120, rows,
                        777).write(tmp_path / "out" / "boot_gb2_n100")
        cfg = write_config(tmp_path, families="gb2")
        assert main([command, "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == "error: gb2 at n=100: Matrix is not positive definite\n"
        assert not list((tmp_path / "out").glob("overlay_*"))
        assert not (tmp_path / "out" / "ci_error.csv").exists()

    # cells with fewer rows than normality's own minimum: Anderson-Darling
    # takes 8, Mardia on k parameters k + 2
    @pytest.mark.parametrize("family, params, m", [
        ("pareto", (1.11,), 0), ("pareto", (1.11,), 3), ("pareto", (1.11,), 7),
        ("weibull", (0.56, 212303.18), 0), ("weibull", (0.56, 212303.18), 3)])
    def test_too_few_rows_for_normality_exits_4(self, tmp_path, capsys, family, params, m):
        rows = np.random.default_rng(6).normal(params, np.multiply(params, 0.1),
                                               (m, len(params)))
        (tmp_path / "out").mkdir()
        BootstrapMatrix(family, params, 1e5, 100, 120, m, rows,
                        777).write(tmp_path / "out" / f"boot_{family}_n100")
        cfg = write_config(tmp_path, families=family)
        assert main(["normality", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {family} at n=100: ")
        assert not (tmp_path / "out" / "normality.csv").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert main(["bootstrap", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"], ids=["form_feed", "u2028"])
    def test_config_lines_end_at_newline_only(self, tmp_path, capsys, separator):
        # as in the loss reader, a form feed or U+2028 does not end a line
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"seed = 1{separator}replications = 200\n", encoding="utf-8")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: bad value for 'seed'")

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: not UTF-8 text (byte 0xff: invalid start byte)\n"

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
    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path)
        args = build_parser().parse_args(["bootstrap", "--config", str(cfg), "--seed", "5",
                                          "--threads", "2", "--replications", "300"])
        got = _study_config(args)
        assert (got.seed, got.threads, got.replications, got.out) == \
            (5, 2, 300, str(tmp_path / "out"))
        # --paper-scale wins over --replications; fit has no --threads
        args = build_parser().parse_args(["fit", "--config", str(cfg), "--replications", "300",
                                          "--paper-scale", "--out", "elsewhere"])
        got = _study_config(args)
        assert (got.seed, got.threads, got.replications, got.out) == (777, 1, 40000, "elsewhere")

    # a flag replaces the config value it overrides before the one validation,
    # so it rescues an invalid one
    @pytest.mark.parametrize("key,bad,flags", [
        ("replications", 50, ["--replications", "200"]),
        ("out", "", ["--out", "out"]),
        ("seed", -1, ["--seed", "4"]),
    ])
    def test_flag_replaces_invalid_config_value(self, tmp_path, losses_file, monkeypatch,
                                                key, bad, flags):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **{key: bad})
        argv = ["fit", "--config", str(cfg), *flags]
        assert main(argv) == 0
        assert (tmp_path / "out" / "true_params.json").exists()
        got = _study_config(build_parser().parse_args(argv))
        assert got == parse_config(write_config(tmp_path, **{key: flags[1]}).read_text())

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        # validation fails before any worker starts
        cfg = write_config(tmp_path)
        assert main(["bootstrap", "--config", str(cfg), "--threads", threads]) == 2
        assert capsys.readouterr().err == \
            f"error: threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "out").exists()

    def test_threads_only_on_bootstrap(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ("fit", "normality", "cierror", "overlays", "generate"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg), "--threads", "4"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
