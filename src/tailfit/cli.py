"""Batch front-end.

Commands: generate, fit, bootstrap, normality, cierror, overlays.
Exit codes: 0 success, 2 ingestion/config error or a file that cannot be
read or written (any `OSError`), 3 fit failure, 4 too few converged
replications in a bootstrap run, or a cell that normality, cierror or
overlays cannot analyse (`DegenerateCell`, or a theta* whose information is
singular), 5 a required bootstrap matrix file missing, unopenable or
malformed.  Commands raise; `main` alone prints the one `error:` line and
picks the code from `EXIT_CODES`, and `_in_cell` alone names the cell of an
analysis error.  `textio` reads and writes every JSON file and the CSVs that
are read back (the loss file and the matrices), each read as UTF-8.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, mle
from .bootstrap import (BootstrapMatrix, DegenerateCell, MalformedMatrix, TooFewConverged,
                        run_bootstrap, true_model_from_losses)
from .ci_analysis import ci_error_table, table_csv, table_json
from .density import overlay
from .distributions import FAMILIES, PARAM_NAMES, SeverityModel
from .fisher import SingularInformation
from .generate import PROFILES, generate_losses
from .normality import normality_suite, reports_to_csv
from .special_functions import median
from .textio import not_utf8, read_json, read_rows, write_json, write_rows

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_FIT = 3
EXIT_CONVERGENCE = 4
EXIT_MISSING = 5

DEFAULT_SAMPLE_SIZES = (100, 200, 300, 500, 1000, 1500, 2500)


class ConfigError(Exception):
    pass


class FitFailed(Exception):
    """`fit` could not fit a family to the loss file; the message names the
    family."""


# exception type -> exit code; the first type the error is an instance of wins
EXIT_CODES = {
    ConfigError: EXIT_INGEST,
    FitFailed: EXIT_FIT,
    TooFewConverged: EXIT_CONVERGENCE,
    DegenerateCell: EXIT_CONVERGENCE,
    SingularInformation: EXIT_CONVERGENCE,
    MalformedMatrix: EXIT_MISSING,
    OSError: EXIT_INGEST,
}


def _names(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(",") if v.strip())


# config file key -> parser of its value; config_hash covers every key but
# input and out
_KEYS = {
    "seed": int,
    "threshold": float,
    "families": _names,
    "sample_sizes": _ints,
    "replications": int,
    "level": float,
    "input": str,
    "out": str,
}


@dataclass(frozen=True)
class StudyConfig:
    """A study's settings, checked when it is built: every StudyConfig that
    exists is valid, and ConfigError names the first invalid value."""

    seed: int = 12345
    threshold: float = 1e5
    families: tuple[str, ...] = FAMILIES
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    replications: int = 2000
    level: float = 0.95
    input: str = ""
    out: str = "out"
    threads: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ConfigError(f"threshold must be finite and positive, got {self.threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not self.out:
            raise ConfigError("out must name a directory")
        if not self.families:
            raise ConfigError("families must name at least one family")
        if any(f not in FAMILIES for f in self.families):
            raise ConfigError(f"unknown family in {self.families}")
        repeated = [f for i, f in enumerate(self.families) if f in self.families[:i]]
        if repeated:
            raise ConfigError(f"families names {repeated[0]} more than once")
        if not self.sample_sizes or list(self.sample_sizes) != sorted(set(self.sample_sizes)) \
                or self.sample_sizes[0] <= 0:
            raise ConfigError("sample_sizes must be positive and strictly ascending")
        if self.replications < 100:
            raise ConfigError("replications must be at least 100")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must lie strictly between 0 and 1")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")

    def canonical(self) -> str:
        """The study's keys but the paths, so one study run from two
        directories writes the same bytes."""
        return json.dumps({key: getattr(self, key) for key in _KEYS
                           if key not in ("input", "out")}, sort_keys=True)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _config_keys(text: str) -> dict:
    """The keys of flat ``key = value`` lines, each value parsed by its
    `_KEYS` entry; unknown keys are errors."""
    keys = {}
    # a line ends at "\n" alone, as in the loss reader
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            keys[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return keys


def parse_config(text: str) -> StudyConfig:
    """The study of a config file's text, the defaults filling absent keys."""
    return StudyConfig(**_config_keys(text))


def read_losses(path: Path) -> np.ndarray:
    """CSV with a single ``loss`` header and one positive number per line."""
    try:
        rows = read_rows(path, ("loss",), lambda a: (a > 0.0) & np.isfinite(a),
                         "losses must be positive, got {!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return rows.ravel()


def _write_meta(cfg: StudyConfig, out: Path, command: str) -> None:
    versions = {"numpy": np.__version__, "python": "{}.{}.{}".format(*sys.version_info),
                "tailfit": __version__}
    meta = {"command": command, "config_hash": cfg.config_hash, "seed": cfg.seed,
            "threads": cfg.threads, "versions": versions}
    write_json(out / f"run_meta_{command}.json", meta)


def cmd_generate(cfg: StudyConfig, profile: str, n: int) -> None:
    """`losses.csv` of n losses from `profile`, and a summary line whose
    median is `median`'s, np.median's bits without loading numpy.ma."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; known: {sorted(PROFILES)}")
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    losses = generate_losses(profile, n, cfg.seed)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "losses.csv"
    write_rows(path, ("loss",), losses)
    _write_meta(cfg, out, "generate")
    frac_tail = float(np.mean(losses >= PROFILES[profile].threshold))
    print(f"wrote {path} ({n} losses)")
    print(f"  mean {np.mean(losses):.1f}  median {median(losses):.1f}  "
          f"max {np.max(losses):.1f}  tail fraction {frac_tail:.3f}")


def cmd_fit(cfg: StudyConfig) -> None:
    if not cfg.input:
        raise ConfigError("no input loss file configured")
    losses = read_losses(Path(cfg.input))
    tail_count = int(np.sum(losses >= cfg.threshold))
    if tail_count < 10:
        raise ConfigError(f"only {tail_count} tail losses at threshold {cfg.threshold}")

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = {}
    for family in cfg.families:
        try:
            tm = true_model_from_losses(family, losses, cfg.threshold)
        except mle.FitError as exc:
            raise FitFailed(f"fit failed for family {family}: {exc}") from exc
        entries[family] = {
            "params": dict(zip(PARAM_NAMES[family], tm.model.params)),
            "threshold": cfg.threshold,
            "nll": tm.fit.nll,
            "converged": tm.fit.converged,
            "warnings": sorted(tm.fit.warnings),
            "n_tail": tm.n_tail,
            "n_excluded": tm.n_excluded,
        }
    payload = {"config_hash": cfg.config_hash, "seed": cfg.seed, "families": entries}
    write_json(out / "true_params.json", payload)
    _write_meta(cfg, out, "fit")
    print(f"wrote {out / 'true_params.json'}")


def _load_true_models(cfg: StudyConfig) -> dict[str, SeverityModel]:
    path = Path(cfg.out) / "true_params.json"
    if not path.exists():
        raise ConfigError(f"{path} missing and no input losses configured")
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        entries = payload["families"]
        missing = [f for f in cfg.families if f not in entries]
        if missing:
            raise ConfigError(f"{path} has no true parameters for {', '.join(missing)}")
        models = {}
        for family in cfg.families:
            params = tuple(entries[family]["params"][name] for name in PARAM_NAMES[family])
            models[family] = model = SeverityModel(family, params, entries[family]["threshold"])
            if model.threshold != cfg.threshold:
                raise ConfigError(f"{path}: {family} was fitted at threshold {model.threshold}, "
                                  f"the study's threshold is {cfg.threshold}")
        return models
    except KeyError as exc:
        raise ConfigError(f"{path}: no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def matrix_path(out: Path, family: str, n: int) -> Path:
    return out / f"boot_{family}_n{n}"


def cmd_bootstrap(cfg: StudyConfig) -> None:
    """Every cell runs before any `boot_*` file is written, so a cell with too
    few converged replications leaves no cell's files behind.  The cells'
    rows are held until then, 8 B per parameter and replication: 18 KB for
    the five families at two sizes and m = 100, 25 MB at seven sizes and the
    paper's m = 40,000."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.input and not (out / "true_params.json").exists():
        cmd_fit(cfg)
    models = _load_true_models(cfg)
    cells = []
    for family in cfg.families:
        for n in cfg.sample_sizes:
            bm = run_bootstrap(models[family], n, cfg.replications, cfg.seed,
                               workers=cfg.threads)
            print(f"bootstrap {family} n={n}: {bm.m_converged}/{bm.m_requested} converged")
            cells.append(bm)
    for bm in cells:
        bm.write(matrix_path(out, bm.family, bm.n), extra_meta={"config_hash": cfg.config_hash})
    _write_meta(cfg, out, "bootstrap")


def _load_matrices(cfg: StudyConfig) -> list[BootstrapMatrix]:
    out = Path(cfg.out)
    bms = []
    for family in cfg.families:
        for n in cfg.sample_sizes:
            base = matrix_path(out, family, n)
            bm = BootstrapMatrix.read(base)
            if (bm.family, bm.n) != (family, n):
                raise MalformedMatrix(f"{BootstrapMatrix.files(base)[1]}: holds {bm.family} "
                                      f"at n={bm.n}, not {family} at n={n}")
            bms.append(bm)
    return bms


def _in_cell(bm: BootstrapMatrix, analyse, *args):
    """`analyse(*args)`, an analysis of `bm`; a cell it cannot analyse gains
    the prefix that names the cell."""
    try:
        return analyse(*args)
    except (DegenerateCell, SingularInformation) as exc:
        raise type(exc)(f"{bm.family} at n={bm.n}: {exc}") from exc


def cmd_normality(cfg: StudyConfig) -> None:
    reports = [r for bm in _load_matrices(cfg) for r in _in_cell(bm, normality_suite, bm)]
    out = Path(cfg.out)
    (out / "normality.csv").write_text(reports_to_csv(reports))
    _write_meta(cfg, out, "normality")
    print(f"wrote {out / 'normality.csv'} ({len(reports)} reports)")


def cmd_cierror(cfg: StudyConfig) -> None:
    rows = [r for bm in _load_matrices(cfg)
            for r in _in_cell(bm, ci_error_table, [bm], cfg.level)]
    out = Path(cfg.out)
    (out / "ci_error.csv").write_text(table_csv(rows))
    (out / "ci_error.json").write_text(table_json(rows))
    _write_meta(cfg, out, "cierror")
    print(f"wrote {out / 'ci_error.csv'} ({len(rows)} rows)")


def cmd_overlays(cfg: StudyConfig) -> None:
    overlays = [_in_cell(bm, overlay, bm, j)
                for bm in _load_matrices(cfg) for j in range(len(bm.param_names))]
    out = Path(cfg.out)
    for ov in overlays:
        (out / f"overlay_{ov.family}_{ov.param_name}_{ov.n}.csv").write_text(ov.to_csv())
    _write_meta(cfg, out, "overlays")
    print(f"wrote {len(overlays)} overlay files to {out}")


# the stages that take only the study config; generate also takes --profile and --n
STAGES = {
    "fit": cmd_fit,
    "bootstrap": cmd_bootstrap,
    "normality": cmd_normality,
    "cierror": cmd_cierror,
    "overlays": cmd_overlays,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tailfit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "generate"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--replications", type=int)
        p.add_argument("--paper-scale", action="store_true",
                       help="replications = 40000")
        if name == "bootstrap":
            p.add_argument("--threads", type=int)
        if name == "generate":
            p.add_argument("--profile", default="uom1")
            p.add_argument("--n", type=int, default=50000)
    return parser


def _study_config(args: argparse.Namespace) -> StudyConfig:
    """The config file's keys (or the defaults) under the command-line
    overrides, validated once, after all of them are known: a flag replaces
    the value it overrides, valid or not."""
    keys = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(not_utf8(args.config, exc)) from None
        keys = _config_keys(text)
    flags = vars(args) | ({"replications": 40000} if args.paper_scale else {})
    keys |= {key: flags[key] for key in ("seed", "out", "replications", "threads")
             if flags.get(key) is not None}
    return StudyConfig(**keys)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _study_config(args)
        if args.command == "generate":
            cmd_generate(cfg, args.profile, args.n)
        else:
            STAGES[args.command](cfg)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
