"""One fresh interpreter: generate a workload's instances and run them.

    python3 bench/worker.py --workload NAME --seed N --mode MODE

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Prints one JSON object
on its last stdout line.  Modes:

- ``setup``: import and generate the instances, then stop.
- ``timed``: also run every instance, timing each verdict.
- ``traced``: as ``timed``, with the tracer installed after generation; the
  span records go to ``.bench_out/``.
- ``kernels``: time single monomial and field operations on corpora drawn
  from the workload's own instances, with no tracer.

``ready_at`` is ``time.monotonic()`` once the instances exist; the parent
reads the same clock before starting the process, so the difference is the
set-up time: interpreter start, import, and instance generation.

Times are reported at reference speed.  On a shared host the same
single-threaded work runs up to 1.6x slower from one minute to the next, so
the worker also times a fixed integer loop that never touches the library
(the probe), at least every ``PROBE_EVERY_S``.  A time is scaled by
``REFERENCE_S`` over the median probe time within ``PROBE_WINDOW_S`` of it.
``REFERENCE_S`` is the probe's time on a quiet host of the machine the
benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11), so a reported
time reads as seconds on that machine when quiet.  Raw times are reported
alongside.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

import gate
import spans
import workloads
from diagideal import fields, groebner, windows
from diagideal.monomials import GridMonomial

KERNEL_PAIRS = 20_000
KERNEL_REPEATS = 7
KERNEL_CORPUS = 4096
PROBE_ITERATIONS = 6000
REFERENCE_S = 0.0004
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.0


def probe() -> float:
    """Median of three timings of a fixed integer loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Probes:
    """Probe timings through a run, for scaling to reference speed."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def take(self) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(probe())

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])


def run_instances(insts, tracer=None) -> list:
    probes = Probes()
    timed = []
    clock = time.perf_counter
    for index, inst in enumerate(insts):
        if probes.due():
            probes.take()
        if tracer is not None:
            tracer.instance = index
        out = error = None
        start = clock()
        try:
            out = workloads.verdict(inst)
        except Exception as exc:  # any raise is a failed verdict, reported by the gate
            error = f"{type(exc).__name__}: {exc}"
        end = clock()
        timed.append((inst, start, end, out, error))
    probes.take()

    results = []
    for inst, start, end, out, error in timed:
        ok = error is None
        results.append({
            "key": inst.key,
            "s": (end - start) * probes.scale(start, end),
            "raw_s": end - start,
            "digest": gate.digest(workloads.canonical(inst, out)) if ok else None,
            "facts": workloads.facts(inst, out) if ok else None,
            "expected": workloads.expected(inst),
            "error": error,
        })
    return results


def _monomial_groups(workload: str, insts) -> list:
    """Monomials the workload's own instances produce, grouped by grid."""
    groups = []
    total = 0
    for inst in insts:
        if total >= KERNEL_CORPUS:
            break
        if workload == "groebner-scan":
            field = fields.make_field(inst.char)
            polys = groebner.natural_window_generators(inst.shape, inst.chain, field)
            group = sorted({m for p in polys for m, _ in p.terms}, key=lambda m: m.exps)
        else:
            group = list(windows.window_product_ideal(inst.shape, inst.chain.windows).gens)
        groups.append(group)
        total += len(group)
    return groups


def _per_op_ns(op, pairs) -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        speed = REFERENCE_S / probe()
        start = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        times.append((time.perf_counter() - start) * speed)
    return statistics.median(times) / len(pairs) * 1e9


def kernels(workload: str, seed: int, insts) -> dict:
    """Median time of one operation at reference speed, loop included,
    over seeded pairs."""
    rng = random.Random(f"kernels/{workload}/{seed}")
    groups = _monomial_groups(workload, insts)
    pairs = []
    for _ in range(KERNEL_PAIRS):
        group = rng.choice(groups)
        pairs.append((rng.choice(group), rng.choice(group)))
    qq = [
        (Fraction(rng.randint(-50, 50), rng.randint(1, 50)), Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
        for _ in range(KERNEL_PAIRS)
    ]
    gfp = [(rng.randrange(32003), rng.randrange(32003)) for _ in range(KERNEL_PAIRS)]
    return {
        "monomials.divides_ns": _per_op_ns(GridMonomial.divides, pairs),
        "monomials.mul_ns": _per_op_ns(GridMonomial.__mul__, pairs),
        "monomials.lcm_ns": _per_op_ns(GridMonomial.lcm, pairs),
        "monomials.colon_ns": _per_op_ns(GridMonomial.colon, pairs),
        "fields.qq_mul_ns": _per_op_ns(fields.make_field(0).mul, qq),
        "fields.gfp_mul_ns": _per_op_ns(fields.make_field(32003).mul, gfp),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "kernels"))
    args = parser.parse_args()

    answers = gate.load_answers(args.workload)
    insts = workloads.instances(args.workload, args.seed, answers)
    report = {"ready_at": time.monotonic(), "instances": len(insts)}
    report["speed"] = REFERENCE_S / probe()
    if args.mode == "kernels":
        report["kernels"] = kernels(args.workload, args.seed, insts)
    elif args.mode in ("timed", "traced"):
        tracer = None
        if args.mode == "traced":
            tracer = spans.Tracer()
            spans.install(tracer)
        report["results"] = run_instances(insts, tracer)
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            report["layers"] = spans.layer_metrics(tracer)
            out_dir = Path.cwd() / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
