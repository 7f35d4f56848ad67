"""One pass of a workload in a fresh interpreter; prints its result as JSON.

A fresh interpreter per pass means winset's module-level caches start
empty, as on every CLI call, and the peak RSS is this pass's own.  Order:
import winset and build the inputs through the library ``SETUP_REPEATS``
times (``setup_s`` is the import plus the median build), run every job once
in a closed loop (``wall_s``), read the peak RSS, then check every answer
against its reference outside the timed region (``oracle_s``).  A pass
with a failed job reports no ``wall_s``.

Times are reported at a reference machine speed; see ``SpeedProbe``.

    python3 bench/worker.py --workload decide --seed 1 [--trace 1]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer, cache_stats, layer_metrics

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# One build of decide's inputs took 0.10 to 0.20 s within a single run, so
# the inputs are rebuilt this often and the median kept.  Odd, so the median
# is one build's time.
SETUP_REPEATS = 9


class SpeedProbe:
    """Samples how fast this process runs plain Python while the jobs run.

    On a shared machine the speed of a core drifts by up to 2x within
    seconds, which would swamp any change in winset itself.  Every
    ``INTERVAL_S`` an interval timer interrupts the pass between bytecodes
    and times a fixed loop of dict and integer work.  ``scale`` turns a
    duration measured in the pass into seconds at the reference speed, at
    which that loop takes ``REFERENCE_S``; the loop's own time is taken out
    first.  The loop shares no state with winset.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 0.0008
    ITERATIONS = 2000

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        d, acc = {}, 0
        for i in range(self.ITERATIONS):
            m = (i * 2654435761) & 0xFFFFF
            d[m & 0xFFF] = d.get(m & 0xFFF, 0) | m
            acc ^= m & -m
        self.total += time.perf_counter() - t0
        self.count += 1

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Reference-speed seconds per measured second."""
        return self.REFERENCE_S * self.count / self.total

    def scale(self, measured_s: float, probe_s: float) -> float:
        """``measured_s`` with ``probe_s`` of sampling in it, at reference speed."""
        return (measured_s - probe_s) * self.speed


class Stopwatch:
    """Sums the time of the calls made through it, less the probe's samples
    that fell inside them."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.elapsed = 0.0
        self.sampled = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0, p0 = time.perf_counter(), self.probe.total
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - t0
            self.sampled += self.probe.total - p0

    def seconds(self) -> float:
        """The summed time at the reference speed."""
        return self.probe.scale(self.elapsed, self.sampled)


def run_jobs(jobs) -> tuple[list, list]:
    """Run each job once; returns the answers and errors."""
    answers, errors = [], []
    for job in jobs:
        try:
            answers.append(job.run())
            errors.append(None)
        except Exception as e:  # a raising job is a failed job, not a crash
            answers.append(None)
            errors.append(f"raised {type(e).__name__}: {e}")
    return answers, errors


def checked(jobs, answers, errors, wall_s: float) -> dict:
    """Check every answer against its reference, outside the timed region.

    A job fails when it raised or its answer is wrong; a pass with a failed
    job reports no ``wall_s``, so it never counts as a timed success.
    """
    failures = []
    for job, answer, error in zip(jobs, answers, errors):
        if error is None:
            try:
                error = job.check(answer)
            except Exception as e:
                error = f"reference check raised {type(e).__name__}: {e}"
        if error is not None:
            failures.append(f"{job.name}: {error}")
    return {
        "wall_s": None if failures else wall_s,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
    }


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """One pass.  A traced pass builds its inputs once, with the tracer on,
    and reports no ``setup_s`` of its own."""
    with SpeedProbe() as probe:
        importing = Stopwatch(probe)
        sys.path.insert(0, str(BENCH.parent / "src"))
        winset = importing(importlib.import_module, "winset")

        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        builds = []
        for _ in range(1 if trace else SETUP_REPEATS):
            jobs = None  # free the last build's inputs, lest they count in the peak RSS
            builds.append(Stopwatch(probe))
            jobs = workloads.build(workload, winset, seed, builds[-1], tracer)
        running = Stopwatch(probe)
        answers, errors = running(run_jobs, jobs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            caches = cache_stats(winset.game)
            tracer.uninstall()
    # outside the probe, so every time below is scaled by the speed over the
    # import, the builds and the jobs
    checking = Stopwatch(probe)
    result = checking(checked, jobs, answers, errors, running.seconds())

    build_s = [b.seconds() for b in builds]
    result.update({
        # sorted()'s middle, not statistics.median: that module's imports
        # would add 0.5 MB to peak_rss_mb
        "setup_s": importing.seconds() + sorted(build_s)[len(build_s) // 2],
        "import_s": importing.seconds(),
        "build_s": build_s,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": running.elapsed,
        "speed": probe.speed,
        "oracle_s": checking.seconds(),
    })
    if tracer is not None:
        # the spans cover the import, the build and the jobs; probe samples
        # fall inside them in proportion to their time
        timed = (importing, builds[0], running)
        share = sum(w.sampled for w in timed) / sum(w.elapsed for w in timed)
        layers = layer_metrics(tracer, caches, (1 - share) * probe.speed)
        result["layers"] = {**layers, "oracle.check_s": result["oracle_s"]}
        result["missing_targets"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracer.spans.write(OUT / f"spans_{workload}_seed{seed}.tsv.gz")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
