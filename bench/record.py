"""Record the digests the gate checks against.

    python3 bench/record.py [workload ...]

Runs every instance a workload can draw (colon-products takes several
minutes) and writes ``bench/answers/<workload>.txt.gz``: one line per
instance with its key, the digest of its canonical verdict, and the number
of generators of its window product.  Refuses to record a verdict that
fails its known answer.  Re-recording changes what the benchmark accepts,
so only a change that redefines the benchmark may do it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> None:
    rows = []
    for inst in workloads.population(workload):
        gens = workloads.generator_count(inst)
        if inst.kind == "theorem" and gens > workloads.ORACLE_GENS:
            rows.append((inst.key, "-", gens))
            continue
        out = workloads.verdict(inst)
        facts = workloads.facts(inst, out)
        if facts != workloads.expected(inst):
            raise SystemExit(f"{workload} {inst.key}: {facts} fails its known answer")
        rows.append((inst.key, gate.digest(workloads.canonical(inst, out)), gens))
    gate.write_answers(workload, rows)
    print(f"{workload}: {len(rows)} instances recorded")


if __name__ == "__main__":
    for name in sys.argv[1:] or gate.WORKLOADS:
        record(name)
