"""Run every workload and print its metrics as one table.

    python3 perfbench/report.py --seed 0 --seconds 45 --trace 0
    python3 perfbench/report.py --write-baseline

Each workload runs in its own run.py process, one after another.
``--write-baseline`` records the end-to-end metrics on the baseline seed
and on the held-out seed, the traced per-layer metrics on the baseline
seed, and the environment, into baseline.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_SEED = 0
HELD_OUT_SEED = 101


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], **json.loads(lines[-1])}


def print_table(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:54s} {metric['value']:14.6g} {metric['unit']}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    if not args.write_baseline:
        for workload in workloads:
            print_table(workload, run_workload(workload, args.seed, args.seconds, args.trace))
        return

    baseline = {"baseline_seed": BASELINE_SEED, "held_out_seed": HELD_OUT_SEED,
                "seconds": args.seconds, "env": None, "workloads": {}}
    for workload in workloads:
        runs = {}
        for seed, trace in ((BASELINE_SEED, 0), (HELD_OUT_SEED, 0), (BASELINE_SEED, 1)):
            result = run_workload(workload, seed, args.seconds, trace)
            print_table(f"{workload} seed={seed} trace={trace}", result)
            baseline["env"] = baseline["env"] or {k: v for k, v in result["detail"]["env"].items() if k != "seed"}
            runs[f"seed{seed}_trace{trace}"] = {
                "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
        baseline["workloads"][workload] = runs
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
