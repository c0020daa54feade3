"""Acceptance gate: one test per release criterion.

Each test performs the full check, asserts its runtime budget, and prints
one PASS/FAIL line (visible with `pytest -s` or in captured output).
"""
from __future__ import annotations

import time

import property_suites

from diagideal.checks import (
    conjecture_scan,
    iter_shapes,
    product_chain_report,
    remarks_report,
    sample_product_chains,
    sweep_product_chains,
    sweep_single_windows,
    theorem_report,
)
from diagideal.monomials import GridShape
from diagideal.fields import make_field
from diagideal.groebner import (
    buchberger,
    initial_ideal,
    is_groebner_basis,
    natural_window_generators,
)
from diagideal.replay import run_paper_replay
from diagideal.windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    iter_sorted_chains,
    window_product_ideal,
)


def _finish(num: int, label: str, started: float, budget: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {label} ({elapsed:.2f}s / {budget:.0f}s){tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_golden_replay():
    started = time.perf_counter()
    records = run_paper_replay()
    ok = len(records) == 18 and all(r["ok"] for r in records)
    bad = [r["name"] for r in records if not r["ok"]]
    _finish(
        1, "golden replay reproduces all recorded values bit-exactly",
        started, 1.0, ok,
        detail=f"{len(records)} records" + (f", failing: {bad}" if bad else ""),
    )


def test_criterion_2_single_window_colons_exhaustive():
    started = time.perf_counter()
    reports = list(sweep_single_windows(max_rows=3, max_cols=8))
    ok = bool(reports) and all(r["ok"] for r in reports)
    _finish(
        2, "every window chain up to 3x8 matches the closed-form colon "
        "and certifies linear quotients",
        started, 60.0, ok, detail=f"{len(reports)} windows",
    )


def test_criterion_3_product_colons():
    started = time.perf_counter()
    pair_reports = list(sweep_product_chains(2, max_rows=3, max_cols=8))
    samples = sample_product_chains(3, 50, seed=20260816)
    triple_reports = [product_chain_report(shape, chain) for shape, chain in samples]
    ok = (
        bool(pair_reports)
        and all(r["ok"] for r in pair_reports)
        and len(triple_reports) >= 50
        and all(r["ok"] for r in triple_reports)
    )
    _finish(
        3, "closed-form colons hold for all two-window chains up to 3x8 "
        "and 50 sampled three-window chains",
        started, 300.0, ok,
        detail=f"{len(pair_reports)} pairs, {len(triple_reports)} triples",
    )


def test_criterion_4_negative_controls():
    started = time.perf_counter()
    records = remarks_report()
    ok = len(records) == 2 and all(r["ok"] for r in records)
    _finish(
        4, "both unsorted-chain counterexamples reproduce as strict "
        "ideal inequalities",
        started, 5.0, ok, detail=", ".join(r["name"] for r in records),
    )


def test_criterion_5_linear_resolution_by_homology():
    started = time.perf_counter()
    checked = 0
    failures = []
    for shape in iter_shapes(3, 6):
        for length in (1, 2):
            for chain in iter_sorted_chains(shape, length):
                product = window_product_ideal(shape, chain.windows)
                if len(product.gens) > 12:
                    continue
                report = theorem_report(shape, chain, characteristic=0)
                checked += 1
                if not report["linear"] or report["cone_agrees"] is False:
                    failures.append(report)
    ok = checked == 422 and not failures
    _finish(
        5, "homology-oracle regularity equals windows*rows with a linear "
        "resolution on every small product, cone counts agreeing",
        started, 600.0, ok,
        detail=f"{checked} products"
        + (f", first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_6_classical_groebner_anchor():
    started = time.perf_counter()
    checked = 0
    ok = True
    detail = ""
    for rows in (2, 3):
        for cols in range(rows, 6):
            grid = GridShape(rows, cols)
            chain = WindowChain.of((1, cols))
            for characteristic in (0, 32003):
                field = make_field(characteristic)
                minors = natural_window_generators(grid, chain, field)
                basis = buchberger(minors)
                same = sorted(map(str, basis.polys)) == sorted(map(str, minors))
                ini_ok = initial_ideal(basis.polys) == diagonal_ideal(
                    grid, Window(1, cols)
                )
                posthoc = is_groebner_basis(basis.polys)
                if not (same and ini_ok and posthoc):
                    ok = False
                    detail = (
                        f"{rows}x{cols} char {characteristic}: "
                        f"basis unchanged={same}, initial ideal={ini_ok}, "
                        f"posthoc={posthoc}"
                    )
                checked += 1
    _finish(
        6, "maximal minors are already the reduced basis with the diagonal "
        "initial ideal over the rationals and GF(32003)",
        started, 60.0, ok and checked == 14,
        detail=detail or f"{checked} grid/char pairs",
    )


def test_criterion_7_conjecture_scan():
    started = time.perf_counter()
    verdicts = list(conjecture_scan(3, 6, 2, characteristic=32003))
    skipped = [v for v in verdicts if v.get("skipped")]
    false = [
        v for v in verdicts
        if not v.get("skipped")
        and not (v["ini_equals_J"] and v["natural_gens_are_GB"])
    ]
    for v in false:
        # a false verdict is a finding and must surface with its witness
        print(
            f"  false verdict at {v['shape']} chain {v['chain']}: "
            f"witness {v.get('witness', '<missing>')}"
        )
    ok = bool(verdicts) and not skipped and not false
    _finish(
        7, "initial-ideal conjecture scan over every grid up to 3x6 with "
        "up to two factors records a true verdict on every instance",
        started, 600.0, ok,
        detail=f"{len(verdicts)} verdicts, {len(skipped)} skipped, "
        f"{len(false)} false",
    )


def test_criterion_8_property_suites():
    started = time.perf_counter()
    counts = property_suites.run_all(seed=20260816)
    total = sum(counts.values())
    ok = total >= 10_000 and set(counts) == set(property_suites.BUDGETS)
    _finish(
        8, "seeded property suites cover pruned-vs-all-pairs Buchberger, "
        "certificate-vs-Buchberger initial ideals, colon membership, distributivity, "
        "homology-vs-Taylor Euler characteristics and mapping cones, "
        "key-walk-vs-colon-chain linear quotients, minimalization, order laws, "
        "packed-vs-dense monomial arithmetic, and redistribution invariants",
        started, 120.0, ok, detail=f"{total} checks",
    )
