"""Benchmark of diagideal's verification workloads.

    python3 bench/run.py --workload colon-products --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  Each
repetition is one fresh single-threaded interpreter (``worker.py``), started
one at a time, so ``lru_cache``s start cold as they do for a command-line
user.  Every verdict passes through the known-answer gate (``gate.py``).

``--trace 0`` repeats the workload at least three times and for about
``--seconds``, and reports the end-to-end metrics.  ``--trace 1`` makes one untraced and one traced
repetition plus a kernel-timing process, and reports the per-layer metrics,
including the tracing overhead.  Every metric is printed by name with its
unit, then the last line is the JSON result.  The workloads, metrics and
what each layer metric should move are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from spans import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# The whole run must end within 180 s.
DEADLINE_S = 170.0
SETUP_SAMPLES = 7
# Fewest repetitions per run, so that each instance has several timings.
MIN_REPS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = (report["ready_at"] - started) * report["speed"]
    report["elapsed_s"] = time.monotonic() - started
    return report


def wall_s(report: dict, field: str = "s") -> float:
    """Time to all verdicts of one repetition."""
    return sum(r[field] for r in report["results"])


def gate_summary(reports, answers: dict) -> dict:
    results = [r for report in reports for r in report["results"]]
    failures = [(r["key"], why) for r in results if (why := gate.failure(r, answers))]
    controls = gate.negative_controls(results, answers)
    return {
        "attempted": len(results),
        "failed": len(failures),
        "first_failures": failures[:5],
        "controls": controls,
        # Both controls must fail every instance, or the gate is vacuous.
        "correct": not failures and all(v == 1.0 for v in controls.values()),
    }


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    started = time.monotonic()
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - started + reps[-1]["elapsed_s"] <= seconds:
        reps.append(spawn(workload, seed, "timed", deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])

    times = {}
    for report in reps:
        for r in report["results"]:
            times.setdefault(r["key"], []).append((r["s"], r["raw_s"]))
    per_instance = sorted(statistics.median(s for s, _ in v) for v in times.values())
    raw_wall = sum(statistics.median(raw for _, raw in v) for v in times.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_instance),
        "verdict_p50_ms": statistics.median(per_instance) * 1e3,
        "verdict_p90_ms": statistics.quantiles(per_instance, n=10)[-1] * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps) / 1024,
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"sum over {len(per_instance)} instances of the median of {len(reps)} reps; "
        f"raw {raw_wall:.3f} s",
        "verdict_p50_ms": f"over {len(per_instance)} instances, median of {len(reps)} reps",
        "verdict_p90_ms": f"over {len(per_instance)} instances, median of {len(reps)} reps",
        "peak_rss_mb": f"median of {len(reps)} reps",
    }
    return metrics, samples, reps


def per_layer(workload: str, seed: int, deadline: float):
    untraced = spawn(workload, seed, "timed", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    kernels = spawn(workload, seed, "kernels", deadline)
    # Span times are raw; scale them by the traced repetition's mean speed.
    speed = wall_s(traced) / wall_s(traced, "raw_s")
    metrics = {
        name: value * speed if LAYER_METRICS[name][0] == "s" else value
        for name, value in traced["layers"].items()
    }
    metrics["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    metrics.update(kernels["kernels"])
    samples = {name: "1 traced rep" for name in traced["layers"]}
    samples["trace.overhead_s"] = (
        f"traced {wall_s(traced):.3f} s - untraced {wall_s(untraced):.3f} s; "
        f"raw {wall_s(traced, 'raw_s') - wall_s(untraced, 'raw_s'):.3f} s"
    )
    samples.update({name: "median of timed loops" for name in kernels["kernels"]})
    return metrics, samples, [untraced, traced]


def metadata(args) -> str:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}\n"
        f"# git={sha} src_sha256={src.hexdigest()[:16]} python={platform.python_version()} "
        f"nproc={os.cpu_count()} cpu={cpu!r}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "diagideal" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        answers = gate.load_answers(args.workload)
        if args.trace:
            metrics, samples, reps = per_layer(args.workload, args.seed, deadline)
            units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
            moves = {name: move for name, (_, _, move) in LAYER_METRICS.items()}
        else:
            metrics, samples, reps = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units, moves = END_TO_END, {}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} out of step", file=sys.stderr)
        return 2
    verdicts = gate_summary(reps, answers)

    print(metadata(args))
    for name in units:
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        tail = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name:30} {shown:>14} {units[name]:6} ({samples[name]}){tail}")
    print(
        f"{'fail_ratio':30} {verdicts['failed'] / verdicts['attempted']:14.6g} {'ratio':6} "
        f"({verdicts['failed']} of {verdicts['attempted']} verdicts failed the gate)"
    )
    for control, ratio in verdicts["controls"].items():
        print(f"{'control.' + control + '_fail_ratio':30} {ratio:14.6g} {'ratio':6} (must be 1)")
    for key, why in verdicts["first_failures"]:
        print(f"FAIL {key}: {why}")
    print(json.dumps({
        "correct": verdicts["correct"],
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
