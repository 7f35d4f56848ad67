"""The winset benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload wdfa-wide --seed 1 --seconds 20 --trace 0

Runs passes of the workload one after another, each in a fresh interpreter
(bench/worker.py), until ``--seconds`` have passed: a closed loop of one
client on one thread.  Every answer of every pass is checked against its
reference.  With ``--trace 0`` it reports the end-to-end metrics as medians
over the passes; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  Human-readable lines go first; the last line of
standard output is one JSON object.  The full result, with machine and
interpreter metadata, is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # a run must end within 180 s


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, timeout), env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["trace"] = trace
    return result


def summarize(passes: list[dict]) -> dict:
    """Medians over passes.  Timings come only from passes in which every
    job succeeded, so a failed job is never counted as a timed success."""
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    timed = [p for p in plain if p["wall_s"] is not None]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "passes": len(passes),
        "timed_passes": len(timed),
        "end_to_end": {},
        "per_layer": {},
    }
    for key in metric_units("end_to_end"):
        values = [p[key] for p in timed]
        out["end_to_end"][key] = quartiles(values) if values else None
    good_traced = [p for p in traced if p["wall_s"] is not None]
    if good_traced:
        layers = {
            k: statistics.median(p["layers"][k] for p in good_traced)
            for k in good_traced[0]["layers"]
        }
        if timed:
            layers["trace.overhead_s"] = (
                statistics.median(p["wall_s"] for p in good_traced)
                - statistics.median(p["wall_s"] for p in timed)
            )
        out["per_layer"] = layers
    return out


def metadata(workload, seed, seconds, trace) -> dict:
    """Machine, interpreter and checkout, recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository; git is
    kept from looking above the checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "winset" / "__init__.py").is_file():
        print(f"benchmark failed: no winset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    passes: list[dict] = []
    kinds = [False, True] if args.trace else [False]
    try:
        while True:
            trace = kinds[len(passes) % len(kinds)]
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            passes.append(run_worker(args.workload, args.seed, trace, left))
            if time.perf_counter() - start >= args.seconds and len(passes) >= len(kinds):
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2

    summary = summarize(passes)
    missing = sorted({m for p in passes for m in p.get("missing_targets", [])})
    if missing:
        print(f"not traced, no longer in winset: {', '.join(missing)}", file=sys.stderr)
    meta = metadata(**vars(args))
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"meta": meta, "summary": summary, "passes": passes}, indent=1) + "\n")

    print(f"# {json.dumps(meta)}")
    print(f"workload {args.workload}: {summary['passes']} passes, "
          f"{summary['timed_passes']} timed, seed {args.seed}")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    print(f"fail_ratio {summary['fail_ratio']:.4g} ratio "
          f"({summary['failed']} of {summary['attempted']} jobs)")
    metrics = {}
    if args.trace:
        for key, unit in metric_units("per_layer").items():
            value = summary["per_layer"][key]
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key} {value:.6g} {unit}")
    else:
        for key, unit in metric_units("end_to_end").items():
            q = summary["end_to_end"][key]
            metrics[key] = {"value": None if q is None else q[1], "unit": unit}
            if q is not None:
                print(f"{key} {q[1]:.6g} {unit} (median of {summary['timed_passes']} passes; "
                      f"quartiles {q[0]:.6g} .. {q[2]:.6g})")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
