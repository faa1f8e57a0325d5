"""shiftlab benchmark: seeded CLI sessions, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload text-shift --seed 0 --seconds 30 --trace 0

One process runs sessions of harness commands back to back (a closed loop
with one caller and no threads) for about `--seconds` seconds, cycling
through a few program seeds derived from `--seed`. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced sessions and reports the per-layer metrics. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import layers
import workloads
from speed import SpeedSampler
from tracer import self_times, still_patched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_MIN, SETUP_MAX = 7, 15  # set-up samples per run

# (name, unit, better) of the end-to-end metrics, reported with --trace 0.
# Session times are in kref (1000 refs), not seconds: see speed.py.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_kref", "kref", "lower"),
    ("train_steps_per_kref", "1/kref", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("avg_acc", "frac", "higher"),
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import shiftlab from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "shiftlab", "__init__.py")):
        sys.exit(f"perfbench: no shiftlab package under {SRC}")
    sys.path.insert(0, SRC)
    import shiftlab
    from shiftlab import harness
    if not os.path.abspath(shiftlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported shiftlab from {shiftlab.__file__}, not {SRC}")
    return harness


def environment() -> Dict[str, object]:
    import numpy
    import scipy
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": sha, "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_env": {k: os.environ.get(k) for k in blas},
    }


def setup_once() -> float:
    """Wall time of one fresh interpreter importing shiftlab."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import shiftlab"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Loop:
    """Closed loop of sessions; stops when another would overrun the budget."""

    def __init__(self, harness, workload: str, seed: int, seconds: float, work: str):
        self.harness = harness
        self.workload = workload
        self.seeds = workloads.session_seeds(workload, seed)
        self.deadline = time.perf_counter() + seconds
        self.work = work
        self.results: Dict[bool, List[workloads.SessionResult]] = {False: [], True: []}
        self.first_quality: Dict[int, Dict[str, float]] = {}

    def run(self, seed: int, tracer=None,
            speed: Optional[SpeedSampler] = None) -> workloads.SessionResult:
        out = os.path.join(self.work, str(len(self.results[False]) + len(self.results[True])))
        try:
            result = workloads.run_session(self.harness, workloads.session(self.workload, seed),
                                           out, tracer, speed)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if result.quality:
            # a repeated seed, traced or not, must reproduce the same results
            expected = self.first_quality.setdefault(seed, result.quality)
            if result.quality != expected:
                result.errors.append(f"seed {seed}: results differ from its first session")
                result.failed_commands.add("repeat")
        self.results[tracer is not None].append(result)
        return result

    def seed_quality(self) -> List[Dict[str, float]]:
        """Quality results of each program seed that completed."""
        return [self.first_quality[s] for s in self.seeds if s in self.first_quality]

    def fits(self, round_s: float) -> bool:
        """Whether another round of `round_s` seconds ends before the deadline."""
        return time.perf_counter() + round_s < self.deadline


def run_untraced(loop: Loop) -> List[float]:
    """Every derived seed once, then more sessions while they fit.

    A fresh interpreter imports shiftlab before each session, so that the
    set-up times sample the whole run; returns those times.
    """
    setup_once()  # the first import writes the bytecode cache, as a first CLI call does
    setup: List[float] = []
    rounds: List[float] = []
    while len(rounds) < len(loop.seeds) or loop.fits(statistics.median(rounds)):
        start = time.perf_counter()
        if len(setup) < SETUP_MAX:
            setup.append(setup_once())
        with SpeedSampler() as speed:
            loop.run(loop.seeds[len(rounds) % len(loop.seeds)], speed=speed)
        rounds.append(time.perf_counter() - start)
    while len(setup) < SETUP_MIN:
        setup.append(setup_once())
    return setup


def run_traced(loop: Loop, trace_path: str) -> Dict[str, float]:
    """Alternate untraced and traced sessions of the same seed; layer metrics."""
    tracer = layers.new_tracer()
    inclusive: Dict[str, float] = defaultdict(float)
    exclusive: Dict[str, float] = defaultdict(float)
    top = 0.0
    kept = None
    done = 0
    last_round_s = 0.0
    while done == 0 or loop.fits(last_round_s):
        round_start = time.perf_counter()
        seed = loop.seeds[done % len(loop.seeds)]
        loop.run(seed)
        loop.run(seed, tracer)
        inc, exc, t = self_times(tracer.spans)
        for k, v in inc.items():
            inclusive[k] += v
        for k, v in exc.items():
            exclusive[k] += v
        top += t
        if kept is None:
            kept = list(tracer.spans)
        tracer.spans.clear()
        done += 1
        last_round_s = time.perf_counter() - round_start
    leftover = still_patched()
    if leftover:
        loop.results[True][-1].errors.append(f"still patched: {leftover}")
        loop.results[True][-1].failed_commands.add("restore")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent\n")
        t0 = kept[0][1] if kept else 0.0
        for name, start, end, parent in kept or ():
            fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
    traced = loop.results[True]
    # each traced session runs right after an untraced one of the same seed
    overhead = statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, loop.results[False])) - 1.0
    return layers.layer_metrics(
        inclusive, exclusive, top, tracer.calls, tracer.counts, len(traced),
        traced_wall_s=sum(r.wall_s for r in traced),
        bytes_written=sum(r.bytes_written for r in traced), overhead_frac=overhead,
    )


def tail(values: List[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has ten samples beyond it ({n} sessions)"
    p = 100.0 * (n - 10) / n
    return f"p{p:.0f} {sorted(values)[n - 11]:.4f} s over {n} sessions"


def end_to_end(loop: Loop, setup: List[float]) -> Dict[str, float]:
    runs = loop.results[False]
    first = loop.seed_quality()
    return {
        "setup_s": statistics.median(setup),
        "run_kref": statistics.median(r.wall_ref for r in runs) / 1e3,
        "train_steps_per_kref": statistics.median(1e3 * r.steps / r.train_ref for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_acc": statistics.mean(q["avg_acc"] for q in first) if first else 0.0,
    }


def report_extras(loop: Loop) -> Dict[str, object]:
    """Workload-specific results, printed but not listed in BENCHMARK.json."""
    runs = loop.results[False]
    first = loop.seed_quality()
    extras: Dict[str, object] = {
        "sessions": len(runs),
        "run_s": statistics.median(r.wall_s for r in runs),
        "run_s_tail": tail([r.wall_s for r in runs]),
        "train_steps_per_s": statistics.median(r.steps / r.train_s for r in runs),
        "run_cpu_s": statistics.median(r.cpu_s for r in runs),
    }
    if runs[0].wall_ref:
        extras["ref_ms"] = 1e3 * statistics.median(r.wall_s / r.wall_ref for r in runs)
    for key in ("robust_acc", "forgetting", "attack_d_tgt"):
        if first and key in first[0]:
            extras[key] = statistics.mean(q[key] for q in first)
    n_attack = workloads.attack_examples(workloads.session(loop.workload, 0))
    if n_attack:
        extras["attack_examples_per_s"] = statistics.median(n_attack / r.attack_s for r in runs)
    return extras


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    harness = import_program()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    env = environment()
    loop = Loop(harness, args.workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            metrics = run_traced(loop, os.path.join(OUT, f"trace-{args.workload}.csv"))
            units = layers.metric_names()
        else:
            metrics = end_to_end(loop, run_untraced(loop))
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sessions = loop.results[False] + loop.results[True]
    attempted = sum(r.attempted for r in sessions)
    failed = sum(min(len(r.failed_commands), r.attempted) for r in sessions)
    errors = [e for r in sessions for e in r.errors]
    extras = {**report_extras(loop), "fail_frac": failed / attempted}

    print(f"# workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"# environment {json.dumps(env)}")
    for e in errors[:20]:
        print(f"# error {e}")
    for name, unit, better in units:
        print(f"{name:<48} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    for name, value in extras.items():
        print(f"# {name}: {value}")
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in units},
    }
    with open(os.path.join(OUT, f"last-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "extras": extras,
                   "errors": errors, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
