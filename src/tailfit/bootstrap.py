"""Parametric bootstrap engine: sample n points from theta*, refit, repeat.

Each replication draws from its own counter-based Philox stream keyed by
(seed, replication index), and the replications of a chunk are fitted
together by `mle.fit_rows`, which gives every row the fit its sample alone
would get.  So results are bit-identical for any worker count and any
chunking of the replication range.  Non-convergent replications are dropped
and counted, never imputed.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mle
from .distributions import FAMILIES, PARAM_NAMES, SeverityModel, in_support, sample
from .mle import FitResult
from .textio import format_rows, read_rows

__all__ = [
    "TooFewConverged",
    "BootstrapMatrix",
    "MalformedMatrix",
    "replication_rng",
    "run_bootstrap",
    "TrueModel",
    "true_model_from_losses",
]


class TooFewConverged(ValueError):
    """Too few replications produced an estimate: fewer than half of those
    requested in a run, or fewer than 100 in a cell to analyse."""


class MalformedMatrix(ValueError):
    """A bootstrap matrix file that is not the matrix its sidecar describes:
    a wrong header, a row that is not one finite number per parameter, or a
    row count other than the sidecar's m_converged; or a sidecar that is not
    a JSON object with every field and a known family."""


# Every field of a BootstrapMatrix but its rows, in the `<base>.json` sidecar
# (a tuple is written as a JSON list)
_SIDECAR_KEYS = ("family", "true_params", "threshold", "n", "m_requested", "m_converged",
                 "seed")


@dataclass
class BootstrapMatrix:
    family: str
    true_params: tuple[float, ...]
    threshold: float
    n: int
    m_requested: int
    m_converged: int
    rows: np.ndarray  # (m_converged, k), replication order preserved
    seed: int

    @property
    def param_names(self) -> tuple[str, ...]:
        return PARAM_NAMES[self.family]

    def true_model(self) -> SeverityModel:
        return SeverityModel(self.family, self.true_params, self.threshold)

    @staticmethod
    def files(path_base) -> tuple[Path, Path]:
        """The `<base>.csv` / `<base>.json` pair.  The suffix is appended:
        with_suffix would clobber dots inside the name."""
        return Path(f"{path_base}.csv"), Path(f"{path_base}.json")

    def check_analysable(self) -> None:
        """Interval and density estimates need at least 100 replications."""
        if self.m_converged < 100:
            raise TooFewConverged(f"{self.family} at n={self.n}: need at least 100 "
                                  f"converged replications, have {self.m_converged}")

    def write(self, path_base: Path, extra_meta: dict | None = None) -> None:
        """`<base>.csv` (header = param names, one row per converged
        replication) plus a `<base>.json` sidecar."""
        csv_path, json_path = self.files(path_base)
        csv_path.write_text(",".join(self.param_names) + "\n" + format_rows(self.rows))
        meta = {key: getattr(self, key) for key in _SIDECAR_KEYS}
        if extra_meta:
            meta.update(extra_meta)
        json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def read(cls, path_base: Path) -> "BootstrapMatrix":
        """The matrix at `path_base`; MalformedMatrix, naming the file (and
        the line of the csv), if the sidecar is malformed or the csv is not
        m_converged rows of finite numbers under the sidecar family's header."""
        csv_path, json_path = cls.files(path_base)
        meta = _read_sidecar(json_path)
        try:
            rows = read_rows(csv_path, PARAM_NAMES[meta["family"]], np.isfinite,
                             "not a finite number: {!r}")
        except ValueError as exc:
            raise MalformedMatrix(str(exc)) from None
        if rows.shape[0] != meta["m_converged"]:
            raise MalformedMatrix(f"{csv_path}: {rows.shape[0]} rows, but {json_path.name} "
                                  f"gives m_converged = {meta['m_converged']}")
        fields = {key: meta[key] for key in _SIDECAR_KEYS}
        fields["true_params"] = tuple(fields["true_params"])
        return cls(rows=rows, **fields)


def _read_sidecar(json_path: Path) -> dict:
    """The `<base>.json` fields; MalformedMatrix, naming the file, unless it
    is a JSON object with every field that `read` uses and a known family."""
    try:
        meta = json.loads(json_path.read_text())
    except ValueError as exc:
        raise MalformedMatrix(f"{json_path}: not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise MalformedMatrix(f"{json_path}: not a JSON object")
    missing = [key for key in _SIDECAR_KEYS if key not in meta]
    if missing:
        raise MalformedMatrix(f"{json_path}: no {', '.join(missing)}")
    if meta["family"] not in FAMILIES:
        raise MalformedMatrix(f"{json_path}: unknown family {meta['family']!r}")
    return meta


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The stream owned by replication `rep` of a run keyed by `seed`."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    )


# Sample values (replications x n) sampled and fitted as one batch: n = 100
# fits 655 replications at once, n = 2500 twenty-six.  Each batch holds its
# samples and their logs, 1 MiB at the cap.
BATCH_ELEMENTS = 1 << 16


def _batch_rows(n: int) -> int:
    return max(1, BATCH_ELEMENTS // n)


def _kept(outcome):
    """A replication's row: its parameters, or None if its fit raised (a
    FitError or an InvalidStart) or did not converge."""
    if isinstance(outcome, Exception):
        return None
    return outcome.model.params if outcome.converged else None


def _run_chunk(args):
    """Replications [lo, hi): each sampled from its own stream, then fitted
    in batches of at most BATCH_ELEMENTS sample values.  A batch's rows run
    their Newton iterations in lockstep, so a fuller batch pays the fixed
    cost of each step for more rows; the likelihood itself is still
    evaluated in blocks of at most mle.BLOCK_ELEMENTS values."""
    model, n, seed, lo, hi = args
    per_batch = _batch_rows(n)
    rows = []
    for start in range(lo, hi, per_batch):
        reps = range(start, min(start + per_batch, hi))
        xs = np.empty((len(reps), n))
        for i, rep in enumerate(reps):
            xs[i] = sample(model, n, replication_rng(seed, rep))
        rows.extend(_kept(o) for o in mle.fit_rows(model.family, xs, model.threshold))
    return rows


def _chunks(n: int, m: int, workers: int) -> list[tuple[int, int]]:
    """The replication ranges [lo, hi) that `workers` processes share: up to
    4 per worker, but no more than whole batches need, and at least one per
    worker.  GB2 at n = 2500, m = 100 on 2 workers runs 4 chunks of 25 rows,
    each one batch."""
    count = max(workers, min(4 * workers, -(-m // _batch_rows(n))))
    bounds = np.linspace(0, m, count + 1, dtype=int).tolist()
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _fit_replication(model: SeverityModel, n: int, seed: int, rep: int):
    """Replication `rep` alone: its parameters, or None if it is dropped."""
    return _run_chunk((model, n, seed, rep, rep + 1))[0]


def run_bootstrap(
    model: SeverityModel,
    n: int,
    m: int,
    seed: int,
    workers: int = 1,
) -> BootstrapMatrix:
    """m sample-and-refit replications of size n from `model` (theta*)."""
    if workers <= 1:
        outcomes = _run_chunk((model, n, seed, 0, m))
    else:
        tasks = [(model, n, seed, lo, hi) for lo, hi in _chunks(n, m, workers)]
        outcomes = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_chunk, tasks):
                outcomes.extend(chunk)

    rows = [params for params in outcomes if params is not None]
    k = len(PARAM_NAMES[model.family])
    matrix = np.array(rows, dtype=float).reshape(len(rows), k)
    bm = BootstrapMatrix(
        family=model.family,
        true_params=model.params,
        threshold=model.threshold,
        n=n,
        m_requested=m,
        m_converged=len(rows),
        rows=matrix,
        seed=seed,
    )
    if bm.m_converged < 0.5 * m:
        raise TooFewConverged(
            f"{model.family} at n={n}: only {bm.m_converged}/{m} replications converged"
        )
    return bm


@dataclass
class TrueModel:
    """theta* fitted to real (or synthetic) losses, with exclusion accounting."""

    fit: FitResult
    n_tail: int
    n_excluded: int

    @property
    def model(self) -> SeverityModel:
        return self.fit.model


def true_model_from_losses(family: str, losses, T: float) -> TrueModel:
    """Fit `family` to the tail of `losses` that lies in its support."""
    losses = np.asarray(losses, dtype=float)
    tail = losses[in_support(family, losses, T)]
    result = mle.fit(family, tail, T)
    return TrueModel(fit=result, n_tail=tail.size, n_excluded=losses.size - tail.size)
