"""tailfit benchmark: one workload per process.

    python3 bench/run.py --workload study-bootstrap --seed 1 --seconds 10 --trace 0

With `--trace 0` it times the workload's CLI stages untraced and reports the
end-to-end metrics; with `--trace 1` it runs a warm-up, an untraced
iteration, a traced one and another untraced one, all on the same input, and
reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json at the repository root.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
0 only if every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 1.0  # per half: set-up is timed before and after the iterations


def _import_package():
    """Import tailfit from this checkout's src/, never from elsewhere.

    BLAS is held to one thread before numpy loads: the study runs one worker
    per core, and a second BLAS thread would make timings depend on
    whatever else holds the other core."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tailfit" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'tailfit'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import tailfit
    if Path(tailfit.__file__).resolve().parent != (src / "tailfit").resolve():
        sys.exit(f"error: imported tailfit from {tailfit.__file__}, not {src}")


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "git_sha": git_sha(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kb / 1024.0


def time_setups(wl, work: Path) -> list[float]:
    """Set-up repeated at least SETUP_MIN_REPEATS times and until it has taken
    SETUP_BUDGET_S, so a sub-millisecond set-up still yields a steady median.
    Each repeat builds the inputs in an empty directory, as a first set-up
    does: rewriting existing files would time ext4's flush-on-truncate."""
    setups: list[float] = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_BUDGET_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    return setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from layers import layer_metrics
    from tracer import Tracer, instrument, patched
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    work = ROOT / ".bench_work" / args.workload
    wl = WORKLOADS[args.workload](work, args.seed)

    setups = time_setups(wl, work)

    errors: list[str] = []
    warnings: list[str] = []
    attempted = failed = 0

    def iteration(i: int) -> float:
        nonlocal attempted, failed
        t0 = time.perf_counter()
        tried, bad = wl.run(i)
        wall = time.perf_counter() - t0
        attempted, failed = attempted + tried, failed + bad
        errors.extend(wl.check(i) if not bad else [f"{bad} of {tried} operations failed"])
        return wall

    if args.trace:
        # Every iteration runs input 0.  After a warm-up, the traced iteration
        # sits between two untraced ones, so a drift in host speed cancels
        # out of the overhead.
        walls = [iteration(0), iteration(0)]
        tracer = Tracer()
        wl.tracer = tracer
        with patched(instrument(tracer)):
            traced_wall = iteration(0)
        wl.tracer = None
        walls.append(iteration(0))
        frac = wl.failed_frac(attempted, failed)
        errors += wl.after_trace()
        reference = walls[1:]
        untraced = statistics.median(reference)
        noise = (max(reference) - min(reference)) / untraced
        overhead = traced_wall / untraced - 1.0
        values = layer_metrics(tracer, wl.layer_extras(), overhead)
        own = sum(tracer.self_times())
        print(f"trace: {len(tracer)} spans; self times sum to {own:.4f} s, "
              f"untraced wall_s median {untraced:.4f} s over {len(reference)} runs "
              f"(spread {noise:.4f}); self times / wall_s - 1 = {own / untraced - 1.0:+.4f}, "
              f"overhead_frac {overhead:+.4f}")
        if overhead < -noise:
            warnings.append(f"traced run was faster than the untraced runs by "
                            f"{-overhead:.4f}, beyond their spread {noise:.4f}: host noise")
        elif own / untraced - 1.0 < -noise:
            warnings.append(f"spans cover only {own / untraced:.4f} of the untraced wall_s")
        tracer.write(work / "spans.csv")
        wanted = spec["per_layer"]
    else:
        walls = []
        t_start = time.perf_counter()
        while len(walls) < wl.min_iterations or time.perf_counter() - t_start < args.seconds:
            walls.append(iteration(len(walls)))
        frac = wl.failed_frac(attempted, failed)
        # The second half of set-up, so that setup_s samples the host over the
        # whole run, as wall_s does.  It clears the run's outputs.
        setups += time_setups(wl, work)
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]

    names = [w["name"] for w in wanted]
    if sorted(names) != sorted(values):
        missing, extra = set(names) - set(values), set(values) - set(names)
        sys.exit(f"error: metric names disagree with BENCHMARK.json: "
                 f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}

    env = environment(args.seed)
    print(json.dumps({"workload": args.workload, **env}, sort_keys=True))
    print(f"{args.workload}: {len(walls)} iteration(s), walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"failed_frac = {frac[0] / frac[1]:.4f} ({frac[0]} / {frac[1]}: {frac[2]})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for w in warnings:
        print(f"TRACE WARNING: {w}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"env": env, "walls_s": walls, "setups_s": setups,
         "failed_frac": {"failed": frac[0], "attempted": frac[1], "base": frac[2]},
         "errors": errors, "warnings": warnings, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
