"""The three verification workloads: instance generation and verdict calls.

Every verdict goes through a public entry point of the library, called by
module attribute so that the tracer's wrappers are seen.  The seed picks the
sample and the instance order; the library receives only the generated
``GridShape``/``WindowChain`` inputs.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from diagideal import checks, fields, groebner, windows
from diagideal.monomials import GridShape

# colon-products: every two-window product with at least this many generators
# is always in the sample.  They are the heavy tail (3x8 1,8:1,8 has 1176).
HEAVY_GENS = 700
# The other chains are sorted by cost and one is drawn from each run of this
# many, so that every seed gets the same cost profile and wall_s, p50 and p90
# move with the code rather than with the seed.
LIGHT_STRIDE = 6
THREE_WINDOW_STRIDE = 200
# betti-oracle: products the homology oracle accepts under the default caps.
ORACLE_GENS = 12
ORACLE_CHARS = (0, 32003)
# groebner-scan: char and grids of the initial-ideal scan.
SCAN_CHAR = 32003
SCAN_SHAPES = ((2, 6), (3, 5))


class Instance(NamedTuple):
    key: str
    kind: str  # "product", "theorem", "conjecture" or "anchor"
    shape: GridShape
    chain: windows.WindowChain
    char: int


def chain_key(shape: GridShape, chain) -> str:
    return f"{shape.rows}x{shape.cols} {chain}"


def _product(shape, chain) -> Instance:
    return Instance(chain_key(shape, chain), "product", shape, chain, 0)


def _theorem(shape, chain, char) -> Instance:
    return Instance(f"c{char} {chain_key(shape, chain)}", "theorem", shape, chain, char)


def _conjecture(shape, chain) -> Instance:
    return Instance(chain_key(shape, chain), "conjecture", shape, chain, SCAN_CHAR)


def _anchor(shape, char) -> Instance:
    chain = windows.WindowChain.of((1, shape.cols))
    return Instance(f"anchor c{char} {shape.rows}x{shape.cols}", "anchor", shape, chain, char)


def population(workload: str) -> list:
    """Every instance the workload can draw, in enumeration order."""
    if workload == "colon-products":
        return _two_window_products() + _three_window_products()
    if workload == "betti-oracle":
        return [
            _theorem(shape, chain, char)
            for char in ORACLE_CHARS
            for shape in checks.iter_shapes(3, 6)
            for length in (1, 2)
            for chain in windows.iter_sorted_chains(shape, length)
        ]
    if workload == "groebner-scan":
        scan = [
            _conjecture(shape, chain)
            for shape in (GridShape(r, c) for r, c in SCAN_SHAPES)
            for length in (1, 2)
            for chain in windows.iter_sorted_chains(shape, length)
        ]
        anchors = [
            _anchor(GridShape(rows, cols), char)
            for rows in (2, 3)
            for cols in range(rows, 6)
            for char in (0, 32003)
        ]
        return scan + anchors
    raise ValueError(f"unknown workload {workload!r}")


def instances(workload: str, seed: int, answers: dict) -> list:
    """The seeded instance list of one run.

    ``answers`` ({key: (digest, gens)}) supplies recorded generator counts,
    which pick the heavy colon products and the oracle-sized products.
    """
    rng = random.Random(f"{workload}/{seed}")

    def gens(inst):
        # An unrecorded instance still runs, and fails the gate.
        return answers.get(inst.key, ("", 0))[1]

    if workload == "colon-products":

        def cost(inst):
            # Each colon step minimalizes about as many candidates as the
            # product has generators, and minimalization is quadratic.
            return (gens(inst) ** 2 * _colon_steps(inst), inst.key)

        pairs = _two_window_products()
        picked = [inst for inst in pairs if gens(inst) >= HEAVY_GENS]
        light = sorted((inst for inst in pairs if gens(inst) < HEAVY_GENS), key=cost)
        triples = sorted(_three_window_products(), key=cost)
        for group, stride in ((light, LIGHT_STRIDE), (triples, THREE_WINDOW_STRIDE)):
            picked += [rng.choice(group[k : k + stride]) for k in range(0, len(group), stride)]
        rng.shuffle(picked)
        return picked
    if workload == "betti-oracle":
        products = [inst for inst in population(workload) if gens(inst) <= ORACLE_GENS]
        passes = []
        for char in ORACLE_CHARS:
            one = [inst for inst in products if inst.char == char]
            rng.shuffle(one)
            passes += one
        return passes
    if workload == "groebner-scan":
        picked = population(workload)
        rng.shuffle(picked)
        return picked
    raise ValueError(f"unknown workload {workload!r}")


def _two_window_products() -> list:
    return [
        _product(shape, chain)
        for shape in checks.iter_shapes(checks.SWEEP_MAX_ROWS, checks.SWEEP_MAX_COLS)
        for chain in windows.iter_sorted_chains(shape, 2)
    ]


def _three_window_products() -> list:
    """The pool ``sample_product_chains`` draws its three-window chains from."""
    pool = checks.sample_product_chains(3, 10**9, seed=0)
    return [_product(shape, chain) for shape, chain in pool]


def _colon_steps(inst: Instance) -> int:
    return comb(inst.chain.windows[0].width, inst.shape.rows)


def verdict(inst: Instance):
    """Run the instance through the library's public entry point."""
    if inst.kind == "product":
        return checks.product_chain_report(inst.shape, inst.chain)
    if inst.kind == "theorem":
        return checks.theorem_report(inst.shape, inst.chain, characteristic=inst.char)
    if inst.kind == "conjecture":
        return groebner.conjecture_check(inst.shape, inst.chain, characteristic=inst.char)
    field = fields.make_field(inst.char)
    minors = groebner.natural_window_generators(inst.shape, inst.chain, field)
    basis = groebner.buchberger(minors)
    return {
        "shape": [inst.shape.rows, inst.shape.cols],
        "char": inst.char,
        "basis": [str(p) for p in basis.polys],
        "basis_is_minors": sorted(map(str, basis.polys)) == sorted(map(str, minors)),
        "initial_is_diagonal": groebner.initial_ideal(basis.polys)
        == windows.diagonal_ideal(inst.shape, inst.chain.windows[0]),
        "posthoc_groebner": groebner.is_groebner_basis(basis.polys),
    }


def canonical(inst: Instance, out) -> dict:
    """The part of a verdict that must stay byte-stable.

    ``millis`` is a timing and ``spairs`` a work count that pair pruning may
    legitimately move, so neither is hashed.
    """
    if inst.kind == "conjecture":
        return {k: v for k, v in out.items() if k not in ("millis", "spairs")}
    return out


def facts(inst: Instance, out) -> dict:
    """The verdict fields that the known answers speak about."""
    if inst.kind == "product":
        steps = out["steps"]
        return {
            "steps": len(steps),
            "brute_equals_closed": all(
                s["equal"] and s["brute"] == s["closed"] for s in steps
            ),
            "ok": out["ok"],
        }
    if inst.kind == "theorem":
        return {
            "reg": out["reg"],
            "linear": out["linear"],
            "cone_agrees": out["cone_agrees"],
            "ok": out["ok"],
        }
    if inst.kind == "conjecture":
        return {
            "ini_equals_J": out["ini_equals_J"],
            "natural_gens_are_GB": out["natural_gens_are_GB"],
        }
    return {
        "basis_is_minors": out["basis_is_minors"],
        "initial_is_diagonal": out["initial_is_diagonal"],
        "posthoc_groebner": out["posthoc_groebner"],
    }


def expected(inst: Instance) -> dict:
    """Known answers, from the instance alone.

    Lemma 2: a sorted product has one colon step per diagonal of its first
    window, each with brute force equal to the closed form.  Theorem: the
    product resolves linearly with regularity (windows x rows), and the
    mapping cone agrees with homology.  Criteria 6 and 7: maximal minors are
    their own reduced basis, and products of them lead with the diagonal
    product.
    """
    if inst.kind == "product":
        return {"steps": _colon_steps(inst), "brute_equals_closed": True, "ok": True}
    if inst.kind == "theorem":
        return {
            "reg": len(inst.chain) * inst.shape.rows,
            "linear": True,
            "cone_agrees": True,
            "ok": True,
        }
    if inst.kind == "conjecture":
        return {"ini_equals_J": True, "natural_gens_are_GB": True}
    return {"basis_is_minors": True, "initial_is_diagonal": True, "posthoc_groebner": True}


def generator_count(inst: Instance) -> int:
    """Generators of the instance's window product (maximal minors for anchors)."""
    return len(windows.window_product_ideal(inst.shape, inst.chain.windows).gens)
