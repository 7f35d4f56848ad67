"""Measure the baseline: every workload on several seeds, plus one traced run.

    python3 bench/baseline.py [--seeds 1-10] [--out bench/baseline.json]

For every workload it runs bench/run.py for BENCHMARK.json's ``run_seconds``
once per seed with tracing off and records each end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median), then one traced run for
the per-layer metrics.  Runs happen one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import metadata
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{proc.stdout}")
    return result


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = ap.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"meta": metadata(workload=None, seed=args.seeds, seconds=seconds, trace=None),
              "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for key, m in run(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        end_to_end = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            end_to_end[key] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "values": vals}
            print(f"{workload} {key} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.4f}", flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)["metrics"]
        report["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced.items()},
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
