"""Record a trajectory point: every workload over several seeds, one process
per run, plus one traced run per workload.

    python3 bench/record.py --label seed --seeds 1-10 --out bench/BENCH_seed.json

For each end-to-end metric it stores the per-seed values, their median and
quartiles (statistics.quantiles, n=4) and the spread: the quartile distance
as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = json.loads((ROOT / ".bench_work" / workload / "result.json").read_text())["env"]
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 'a-b'")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    point = {"label": args.label, "seeds": seeds, "run_seconds": spec["run_seconds"],
             "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        point["env"] = {k: v for k, v in traced["env"].items() if k != "workload_seed"}
        point["workloads"][name] = {
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in point["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
