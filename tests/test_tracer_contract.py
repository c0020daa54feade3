"""The benchmark's traced mode swaps ``bench/spans.py``'s wrappers into the
library: ``Polynomial``'s operators, the field methods, ``GridMonomial``'s
operators and the public layer functions.  Verdicts computed under those
wrappers must still pass the known-answer gate.

The wrappers patch classes and module bindings for the whole interpreter,
so the run happens in a subprocess.  It takes the cheapest recorded
instance with at least three generators of each kind: a colon product, a
theorem at char 0 and at char 32003, a conjecture and an anchor.
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
    for result in worker.run_instances(insts, tracer):
        failures[result["key"]] = gate.failure(result, answers)
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
    assert len(failures) == 5, failures
    assert {key: why for key, why in failures.items() if why is not None} == {}
    # The wrapped Polynomial operators ran.
    assert report["arith_calls"] > 0
