"""Known-answer gate: recorded digests, known answers, and negative controls.

Standard library only, so the orchestrating process can check verdicts
without importing the library under test.

Each instance result is a dict with ``key``, ``digest`` (of the canonical
verdict), ``facts`` (the verdict fields the known answers speak about),
``expected`` (those known answers, derived from the instance alone, never
from the program's output) and ``error`` (what it raised, if anything).  An instance
fails when it raised, when its facts differ from the known answers, or when
its digest differs from the one recorded for its key.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

WORKLOADS = ("colon-products", "betti-oracle", "groebner-scan")
ANSWERS_DIR = Path(__file__).resolve().parent / "answers"


def digest(obj) -> str:
    """First 64 bits of the SHA-256 of the canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answers_path(workload: str) -> Path:
    return ANSWERS_DIR / f"{workload}.txt.gz"


def load_answers(workload: str) -> dict:
    """{key: (digest, gens)} recorded for the workload's whole population."""
    answers = {}
    with gzip.open(answers_path(workload), "rt", encoding="ascii") as handle:
        for line in handle:
            key, recorded, gens = line.rstrip("\n").split("\t")
            answers[key] = (recorded, int(gens))
    return answers


def write_answers(workload: str, rows) -> None:
    """Write ``(key, digest, gens)`` rows, sorted by key, byte-stable."""
    lines = "".join(f"{key}\t{d}\t{gens}\n" for key, d, gens in sorted(rows))
    with open(answers_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(lines.encode("ascii"))


def failure(result, answers: dict):
    """Why the instance result fails the gate, or None when it passes."""
    if result["error"] is not None:
        return f"raised {result['error']}"
    if result["facts"] != result["expected"]:
        return f"known answer {result['expected']} but got {result['facts']}"
    recorded = answers.get(result["key"])
    if recorded is None:
        return "no recorded digest"
    if result["digest"] != recorded[0]:
        return f"digest {result['digest']} but recorded {recorded[0]}"
    return None


def _wrong_answer(expected: dict) -> dict:
    """The known answers with one value made wrong."""
    name = sorted(expected)[0]
    value = expected[name]
    wrong = (not value) if isinstance(value, bool) else value + 1
    return {**expected, name: wrong}


def negative_controls(results, answers: dict) -> dict:
    """Fail ratios of the gate when fed deliberately wrong expectations.

    ``digest``: every recorded digest is replaced by a wrong one.
    ``known_answer``: every known answer has one value made wrong.
    A gate that is not vacuous fails every instance in both controls.
    """
    wrong_digests = {key: ("!" + d, gens) for key, (d, gens) in answers.items()}
    bad_digest = sum(failure(r, wrong_digests) is not None for r in results)
    bad_answer = sum(
        failure({**r, "expected": _wrong_answer(r["expected"])}, answers) is not None
        for r in results
    )
    return {
        "digest": bad_digest / len(results),
        "known_answer": bad_answer / len(results),
    }
