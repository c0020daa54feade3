"""The benchmark's traced mode swaps ``bench/spans.py``'s wrappers into the
library: ``Polynomial``'s operators, the field methods, ``GridMonomial``'s
operators and the public layer functions.  Verdicts computed under those
wrappers must still pass the known-answer gate.

The wrappers patch classes and module bindings for the whole interpreter,
so the run happens in a subprocess.  It runs every colon product of the
seed-1 ``colon-products`` sample, since those verdicts pass ideals and
their keys through every wrapped layer function, and the cheapest recorded
instance with at least three generators of each other kind: a theorem at
char 0 and at char 32003, a conjecture and an anchor.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import gate, spans, worker, workloads

tracer = spans.Tracer()
spans.install(tracer)
failures = {}
for workload in gate.WORKLOADS:
    answers = gate.load_answers(workload)
    cheapest = {}
    for inst in workloads.population(workload):
        kind = (inst.kind, inst.char if inst.kind == "theorem" else None)
        cost = (answers[inst.key][1], inst.key)
        if cost[0] >= 3 and (kind not in cheapest or cost < cheapest[kind][0]):
            cheapest[kind] = (cost, inst)
    insts = [inst for _, inst in cheapest.values()]
    if workload == "colon-products":
        insts = workloads.instances(workload, 1, answers)
    for result in worker.run_instances(insts, tracer):
        failures[f"{workload} {result['key']}"] = gate.failure(result, answers)
print(json.dumps({"failures": failures, "arith_calls": tracer.stats["polynomials.arith"][0]}))
"""


def test_traced_verdicts_pass_the_gate():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    failures = report["failures"]
    products = [key for key in failures if key.startswith("colon-products ")]
    assert len(products) == 357 and len(failures) == 357 + 4, sorted(failures)
    assert {key: why for key, why in failures.items() if why is not None} == {}
    # The wrapped Polynomial operators ran.
    assert report["arith_calls"] > 0
