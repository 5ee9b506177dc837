"""Parametric bootstrap engine: sample n points from theta*, refit, repeat.

Each replication draws from its own counter-based Philox stream, keyed by
(seed, replication index) through numpy's SeedSequence: `replication_rng`
builds it for one replication.  A chunk derives the keys of all its
replications in one vectorized pass and re-keys one generator per
replication, which then draws exactly that stream (Philox's output depends
on its key and counter alone).  The replications of a batch are fitted
together by `mle.fit_rows`, which gives every row the fit its sample alone
would get.  So results are bit-identical for any worker count and any
chunking of the replication range.  A chunk keeps two columns of the fits'
record, each replication's `mle.OUTCOMES` class and its parameters, and
builds no object per replication.  A replication without an interior
estimate is dropped, never imputed, and counted under its class in the
matrix's `outcomes`.  `DegenerateCell` is every failure of an
analysis of a matrix (normality, density, CI width) that its rows cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mle
from .distributions import FAMILIES, PARAM_NAMES, SeverityModel, in_support, sample
from .mle import FitResult
from .textio import read_json, read_rows, write_json, write_rows

__all__ = [
    "DegenerateCell",
    "TooFewConverged",
    "BootstrapMatrix",
    "MalformedMatrix",
    "replication_rng",
    "run_bootstrap",
    "TrueModel",
    "true_model_from_losses",
]


class TooFewConverged(ValueError):
    """Fewer than half of the replications a run requested produced an
    estimate."""


class DegenerateCell(ValueError):
    """A cell's rows cannot support an analysis: too few rows for it, a
    constant column, a singular sample covariance, or a zero-width bootstrap
    interval.  The message leaves naming the cell to the caller."""


class MalformedMatrix(ValueError):
    """A bootstrap matrix file that is missing or cannot be opened, or is not
    the matrix its sidecar describes: a wrong header, a row that is not one
    finite number per parameter, or a row count other than the sidecar's
    m_converged; or a sidecar that is not a UTF-8 JSON object with every
    field, a known family, integer counts that do not contradict each other,
    a nonnegative integer seed, and a valid theta* of the family."""


def _unopened(path: Path, exc: OSError) -> MalformedMatrix:
    if isinstance(exc, FileNotFoundError):
        return MalformedMatrix(f"missing bootstrap matrix {path}")
    return MalformedMatrix(f"{path}: cannot open: {exc.strerror}")


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
    # replications per `mle.OUTCOMES` class, or None for a matrix read from a
    # sidecar without them
    outcomes: dict[str, int] | None = None

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
            raise DegenerateCell(f"need at least 100 converged replications, "
                                 f"have {self.m_converged}")

    def write(self, path_base: Path, extra_meta: dict | None = None) -> None:
        """`<base>.csv` (header = param names, one row per converged
        replication) and its binary twin (see `textio`), plus a `<base>.json`
        sidecar."""
        csv_path, json_path = self.files(path_base)
        write_rows(csv_path, self.param_names, self.rows)
        meta = {key: getattr(self, key) for key in _SIDECAR_KEYS}
        if self.outcomes is not None:
            meta["outcomes"] = self.outcomes
        if extra_meta:
            meta.update(extra_meta)
        write_json(json_path, meta)

    @classmethod
    def read(cls, path_base: Path) -> "BootstrapMatrix":
        """The matrix at `path_base`; MalformedMatrix, naming the file (and
        the line of the csv), if either file is missing or cannot be opened,
        the sidecar is malformed, or the csv is not m_converged rows of
        finite numbers under the sidecar family's header."""
        csv_path, json_path = cls.files(path_base)
        meta = _read_sidecar(json_path)
        try:
            rows = read_rows(csv_path, PARAM_NAMES[meta["family"]], np.isfinite,
                             "not a finite number: {!r}")
        except OSError as exc:
            raise _unopened(csv_path, exc) from None
        except ValueError as exc:
            raise MalformedMatrix(str(exc)) from None
        if rows.shape[0] != meta["m_converged"]:
            raise MalformedMatrix(f"{csv_path}: {rows.shape[0]} rows, but {json_path.name} "
                                  f"gives m_converged = {meta['m_converged']}")
        fields = {key: meta[key] for key in _SIDECAR_KEYS}
        fields["true_params"] = tuple(fields["true_params"])
        return cls(rows=rows, outcomes=meta.get("outcomes"), **fields)


def _read_sidecar(json_path: Path) -> dict:
    """The `<base>.json` fields; MalformedMatrix, naming the file and the
    field, unless it is a JSON object with every field that `read` uses, a
    known family, integer counts with 0 <= m_converged <= m_requested, a
    nonnegative integer seed, and a true_params and threshold that make a
    SeverityModel of the family."""
    try:
        meta = read_json(json_path)
    except OSError as exc:
        raise _unopened(json_path, exc) from None
    except ValueError as exc:
        raise MalformedMatrix(str(exc)) from None
    missing = [key for key in _SIDECAR_KEYS if key not in meta]
    if missing:
        raise MalformedMatrix(f"{json_path}: no {', '.join(missing)}")
    if meta["family"] not in FAMILIES:
        raise MalformedMatrix(f"{json_path}: unknown family {meta['family']!r}")
    not_int = [key for key in ("n", "m_requested", "m_converged", "seed")
               if type(meta[key]) is not int]
    if not_int:
        raise MalformedMatrix(f"{json_path}: {', '.join(not_int)} must be integers")
    if not 0 <= meta["m_converged"] <= meta["m_requested"]:
        raise MalformedMatrix(f"{json_path}: m_converged = {meta['m_converged']} must lie "
                              f"between 0 and m_requested = {meta['m_requested']}")
    if meta["seed"] < 0:
        raise MalformedMatrix(f"{json_path}: seed must be nonnegative, got {meta['seed']}")
    params, threshold = meta["true_params"], meta["threshold"]
    if not (isinstance(params, list)
            and all(type(v) in (int, float) for v in [*params, threshold])):
        raise MalformedMatrix(f"{json_path}: true_params must be a list of numbers and "
                              f"threshold a number")
    try:
        SeverityModel(meta["family"], params, threshold)
    except ValueError as exc:
        raise MalformedMatrix(f"{json_path}: true_params or threshold: {exc}") from None
    outcomes = meta.get("outcomes")
    if outcomes is not None and not (
            isinstance(outcomes, dict) and set(outcomes) == set(mle.OUTCOMES)
            and all(type(c) is int and c >= 0 for c in outcomes.values())
            and sum(outcomes.values()) == meta["m_requested"]
            and outcomes["interior"] == meta["m_converged"]):
        raise MalformedMatrix(f"{json_path}: outcomes is not a count per class summing to "
                              f"m_requested, with m_converged interior")
    return meta


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """The stream owned by replication `rep` of a run keyed by `seed`."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
    )


# numpy's SeedSequence hash constants (its pool holds 4 uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_U32 = 0xFFFFFFFF


def _hashed(words: np.ndarray, const: int, mult: int) -> tuple:
    """SeedSequence's hash of uint32 `words` at hash constant `const`, which
    advances by `mult`: the hashed words and the next constant."""
    h = words ^ np.uint32(const)
    const = const * mult & _U32
    h *= np.uint32(const)
    h ^= h >> np.uint32(16)
    return h, const


def _replication_keys(seed: int, reps: np.ndarray) -> np.ndarray:
    """The Philox key (2 uint64 per row) of each replication in `reps`:
    SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(2, uint64),
    vectorized over reps.  The seed's words fill the pool first, mixed as in
    SeedSequence(seed) (zero-padded to 4 words, which hash as a missing word
    does), then each pool word is mixed with the hashed spawn word.  A rep
    of 2**32 or more is two spawn words; those rows take numpy's own path."""
    reps = np.asarray(reps, dtype=np.int64)
    keys = np.empty((reps.size, 2), dtype=np.uint64)
    wide = reps > _U32
    for i in np.flatnonzero(wide).tolist():
        keys[i] = np.random.SeedSequence(entropy=seed, spawn_key=(int(reps[i]),)
                                         ).generate_state(2, np.uint64)
    words = max(1, -(-int(seed).bit_length() // 32))
    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it, 4 per
    # word past the fourth
    const = _INIT_A * pow(_MULT_A, 4 * max(words, 4), 1 << 32) & _U32
    rep = reps[~wide].astype(np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool.tolist():
        h, const = _hashed(rep, const, _MULT_A)
        mixed = np.uint32(_MIX_L * word & _U32) - np.uint32(_MIX_R) * h
        mixed ^= mixed >> np.uint32(16)
        pool.append(mixed)
    # generate_state: each pool word hashed in turn, pairs read as little-endian uint64
    const, state = _INIT_B, []
    for word in pool:
        word, const = _hashed(word, const, _MULT_B)
        state.append(word.astype(np.uint64))
    keys[~wide, 0] = state[0] | state[1] << np.uint64(32)
    keys[~wide, 1] = state[2] | state[3] << np.uint64(32)
    return keys


# Sample values (replications x n) sampled and fitted as one batch: n = 100
# fits 655 replications at once, n = 2500 twenty-six.  Each batch holds its
# samples and their logs, 1 MiB at the cap.
BATCH_ELEMENTS = 1 << 16


def _batch_rows(n: int) -> int:
    return max(1, BATCH_ELEMENTS // n)


def _run_chunk(args):
    """Replications [lo, hi) as each one's `mle.OUTCOMES` index and its
    `mle.FitRows` params: each sampled from its own stream, then fitted in
    batches of at most BATCH_ELEMENTS sample values.  The chunk's keys come
    from one vectorized pass, and one generator is re-keyed per replication.
    A batch's rows run their Newton iterations in lockstep, so a fuller batch
    pays the fixed cost of each step for more rows; the passes over the data
    run in blocks of at most mle.BLOCK_ELEMENTS values."""
    model, n, seed, lo, hi = args
    per_batch = _batch_rows(n)
    keys = _replication_keys(seed, np.arange(lo, hi))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0, empty buffer; each replication sets its key
    classes, params = [np.empty(0, int)], [np.empty((0, len(model.params)))]
    for start in range(lo, hi, per_batch):
        xs = np.empty((min(per_batch, hi - start), n))
        for i, key in enumerate(keys[start - lo:start - lo + len(xs)].tolist()):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            xs[i] = sample(model, n, rng)
        fitted = mle.fit_rows(model.family, xs, model.threshold)
        classes.append(fitted.classes)
        params.append(fitted.params)
    return np.concatenate(classes), np.concatenate(params)


def _chunks(n: int, m: int, workers: int) -> list[tuple[int, int]]:
    """The replication ranges [lo, hi) that `workers` processes share: up to
    4 per worker, but no more than whole batches need, and at least one per
    worker.  GB2 at n = 2500, m = 100 on 2 workers runs 4 chunks of 25 rows,
    each one batch."""
    count = max(workers, min(4 * workers, -(-m // _batch_rows(n))))
    bounds = np.linspace(0, m, count + 1, dtype=int).tolist()
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def run_bootstrap(
    model: SeverityModel,
    n: int,
    m: int,
    seed: int,
    workers: int = 1,
) -> BootstrapMatrix:
    """m sample-and-refit replications of size n from `model` (theta*)."""
    if workers <= 1:
        chunks = [_run_chunk((model, n, seed, 0, m))]
    else:
        # Imported here, its only use: the pool pulls in multiprocessing,
        # concurrent.futures, logging, socket and subprocess, 32 modules in
        # all, which cost every one-worker stage about 1.6 MB of peak RSS and
        # 20-35 ms of import time (2 vCPU Xeon, Python 3.11).
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(model, n, seed, lo, hi) for lo, hi in _chunks(n, m, workers)]
        # a fork pool starts every worker at its first submit: none idle
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(_run_chunk, tasks))

    classes, params = map(np.concatenate, zip(*chunks))
    rows = params[classes == mle.OUTCOMES.index("interior")]
    counts = np.bincount(classes, minlength=len(mle.OUTCOMES)).tolist()
    bm = BootstrapMatrix(
        family=model.family,
        true_params=model.params,
        threshold=model.threshold,
        n=n,
        m_requested=m,
        m_converged=len(rows),
        rows=rows,
        seed=seed,
        outcomes=dict(zip(mle.OUTCOMES, counts)),
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
