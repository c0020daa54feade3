"""Randomized law checks for the core algebra.

Each suite draws seeded random instances, asserts the law on every one,
and returns the number of individual checks performed.  The budgets below
are what test_properties.py and the acceptance gate run.
"""
from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations_with_replacement

from diagideal import groebner, quotients, resolution
from diagideal.caps import DEFAULT_CAPS
from diagideal.checks import iter_shapes
from diagideal.errors import DomainError, ResourceLimitError
from diagideal.fields import make_field
from diagideal.groebner import (
    buchberger,
    initial_ideal,
    is_groebner_basis,
    reduce,
    s_polynomial,
)
from diagideal.ideals import MonomialIdeal, minimal_generators
from diagideal.monomials import MAX_EXPONENT, GridMonomial, GridShape, _from_key, _radical
from diagideal.polynomials import Polynomial
from diagideal.quotients import quotient_chain, redistribute
from diagideal.windows import (
    Window,
    WindowChain,
    enumerate_diagonals,
    iter_sorted_chains,
    iter_windows,
    selection_of,
    window_product_ideal,
)

BUDGETS = {
    "buchberger_vs_all_pairs": 2000,
    "certificate_vs_buchberger": 150,
    "colon_membership": 3000,
    "colon_over_sum": 1500,
    "homology_vs_taylor": 150,
    "linear_quotients_vs_chain": 1500,
    "minimalize": 1500,
    "order_laws": 3000,
    "packed_vs_dense": 4000,
    "redistribute": 1200,
}


def random_shape(rng: random.Random) -> GridShape:
    rows = rng.randint(1, 3)
    cols = rng.randint(rows, 6)
    return GridShape(rows, cols)


def random_monomial(rng: random.Random, shape: GridShape, max_vars: int = 4) -> GridMonomial:
    variables = list(shape.variables())
    count = rng.randint(0, min(max_vars, len(variables)))
    exps: dict = {}
    for i, j in rng.sample(variables, count):
        exps[(i, j)] = exps.get((i, j), 0) + rng.randint(1, 2)
    return GridMonomial.from_exponents(shape, exps)


def random_ideal(rng: random.Random, shape: GridShape, max_gens: int = 6) -> MonomialIdeal:
    gens = [random_monomial(rng, shape) for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal(shape, gens)


def colon_membership_suite(rng: random.Random, cases: int) -> int:
    """h lies in I : f exactly when h*f lies in I."""
    done = 0
    while done < cases:
        shape = random_shape(rng)
        ideal = random_ideal(rng, shape)
        f = random_monomial(rng, shape)
        quotient = ideal.colon(f)
        probes = [random_monomial(rng, shape) for _ in range(3)]
        for g in quotient:
            probes.append(g)
            probes.append(g * random_monomial(rng, shape, max_vars=2))
        for h in probes:
            claim = quotient.contains(h)
            truth = ideal.contains(h * f)
            assert claim == truth, (
                f"colon membership broke: I={ideal}, f={f}, h={h}, "
                f"claimed {claim}, direct check {truth}"
            )
            done += 1
    return done


def colon_over_sum_suite(rng: random.Random, cases: int) -> int:
    """(I + J) : f equals (I : f) + (J : f)."""
    done = 0
    while done < cases:
        shape = random_shape(rng)
        left = random_ideal(rng, shape)
        right = random_ideal(rng, shape)
        f = random_monomial(rng, shape)
        combined = (left + right).colon(f)
        split = left.colon(f) + right.colon(f)
        assert combined == split, (
            f"colon does not distribute over sum: I={left}, J={right}, f={f}, "
            f"(I+J):f={combined}, (I:f)+(J:f)={split}"
        )
        done += 1
    return done


def _naive_minimal(monomials) -> set:
    kept = set()
    pool = set(monomials)
    for m in pool:
        if any(other != m and other.divides(m) for other in pool):
            continue
        kept.add(m)
    return kept


def minimalize_suite(rng: random.Random, cases: int) -> int:
    """minimal_generators agrees with the naive filter, idempotently,
    without changing the ideal."""
    done = 0
    while done < cases:
        shape = random_shape(rng)
        raw = [random_monomial(rng, shape) for _ in range(rng.randint(1, 8))]
        # salt with guaranteed multiples so the filter has work to do
        for _ in range(rng.randint(0, 3)):
            raw.append(rng.choice(raw) * random_monomial(rng, shape, max_vars=2))
        # and sometimes with single-variable powers up to the exponent
        # bound, a few times another variable: one-bit keys that are not
        # variables, and their multiples
        if rng.random() < 0.4:
            variables = list(shape.variables())
            for _ in range(rng.randint(1, 3)):
                v, w = rng.choice(variables), rng.choice(variables)
                power = {v: rng.choice((1, 2, 64, MAX_EXPONENT, rng.randint(1, MAX_EXPONENT)))}
                raw.append(GridMonomial.from_exponents(shape, power))
                if w != v and rng.random() < 0.5:
                    raw.append(GridMonomial.from_exponents(shape, {**power, w: 1}))
        minimal = minimal_generators(shape, raw)
        expected = _naive_minimal(m for m in raw if not m.is_unit or len(raw) == 1)
        if any(m.is_unit for m in raw):
            expected = {GridMonomial.unit(shape)}
        assert set(minimal) == expected, (
            f"minimalization mismatch on {sorted(map(str, raw))}: "
            f"got {sorted(map(str, minimal))}, expected {sorted(map(str, expected))}"
        )
        again = minimal_generators(shape, minimal)
        assert set(again) == set(minimal), f"not idempotent on {minimal}"
        ideal = MonomialIdeal(shape, minimal)
        assert all(ideal.contains(m) for m in raw), (
            f"minimalization changed the ideal on {sorted(map(str, raw))}"
        )
        done += 1
    return done


def order_law_suite(rng: random.Random, cases: int) -> int:
    """The grid order is a total order compatible with multiplication,
    refines divisibility, and has the unit at the bottom."""
    done = 0
    while done < cases:
        shape = random_shape(rng)
        a = random_monomial(rng, shape)
        b = random_monomial(rng, shape)
        c = random_monomial(rng, shape)

        flags = (a < b, a == b, b < a)
        assert sum(flags) == 1, f"trichotomy broke on {a}, {b}: {flags}"

        low, mid, high = sorted([a, b, c])
        assert low <= mid <= high and low <= high, (
            f"transitivity broke on {a}, {b}, {c}"
        )

        if a < b:
            assert a * c < b * c, (
                f"multiplication broke monotonicity: {a} < {b} but "
                f"{a * c} !< {b * c}"
            )

        if a.divides(b) and a != b:
            assert a < b, f"proper divisor {a} not below {b}"

        unit = GridMonomial.unit(shape)
        assert unit <= a, f"unit above {a}"
        done += 4
    return done


# Dense exponent-tuple arithmetic: the oracle for the packed monomial keys.

def dense_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def dense_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def dense_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def dense_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(min(x, y) for x, y in zip(a, b))


def dense_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def dense_colon(a: tuple, b: tuple) -> tuple:
    return tuple(x - y if x > y else 0 for x, y in zip(a, b))


def dense_radical(a: tuple) -> tuple:
    return tuple(min(x, 1) for x in a)


def dense_str(shape: GridShape, exps: tuple) -> str:
    parts = []
    for (i, j), e in zip(shape.variables(), exps):
        if e:
            parts.append(f"x[{i},{j}]" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) or "1"


_EXPONENT_PICKS = (0, 0, 0, 1, 2, 63, 64, 126, MAX_EXPONENT)


def _random_exps(rng: random.Random, shape: GridShape) -> tuple:
    return tuple(
        rng.choice(_EXPONENT_PICKS) if rng.random() < 0.7 else rng.randint(0, MAX_EXPONENT)
        for _ in range(shape.variable_count)
    )


def _raises_domain_error(action) -> bool:
    try:
        action()
    except DomainError:
        return True
    return False


def packed_vs_dense_suite(rng: random.Random, cases: int) -> int:
    """Packed monomial keys agree with dense exponent tuples on divides,
    *, /, gcd, lcm, colon, radical, order, degree and text over the full
    exponent range, and every way out of the range raises DomainError."""
    done = 0
    while done < cases:
        shape = random_shape(rng)
        ea = _random_exps(rng, shape)
        if rng.random() < 0.4:
            # a multiple of ea, so that divisibility and / get exercised
            eb = tuple(rng.randint(x, MAX_EXPONENT) for x in ea)
        else:
            eb = _random_exps(rng, shape)
        a = GridMonomial(shape, ea)
        b = GridMonomial(shape, eb)
        context = f"a={ea}, b={eb} on {shape}"

        assert a.exps == ea and b.exps == eb, f"exps round trip broke: {context}"
        assert a.degree == sum(ea), f"degree broke: {context}"
        assert str(a) == dense_str(shape, ea), f"text broke: {context}"
        assert a.divides(b) == dense_divides(ea, eb), f"divides broke: {context}"
        assert b.divides(a) == dense_divides(eb, ea), f"divides broke: {context}"
        assert (a < b, a == b, a > b) == (ea < eb, ea == eb, ea > eb), f"order broke: {context}"
        assert a.gcd(b).exps == dense_gcd(ea, eb), f"gcd broke: {context}"
        assert a.lcm(b).exps == dense_lcm(ea, eb), f"lcm broke: {context}"
        assert a.colon(b).exps == dense_colon(ea, eb), f"colon broke: {context}"
        assert b.colon(a).exps == dense_colon(eb, ea), f"colon broke: {context}"
        radical = _from_key(shape, _radical(a.key, shape))
        assert radical.exps == dense_radical(ea), f"radical broke: {context}"
        done += 10

        if dense_divides(ea, eb):
            assert (b / a).exps == dense_div(eb, ea), f"division broke: {context}"
        else:
            assert _raises_domain_error(lambda: b / a), f"inexact division passed: {context}"
        product = dense_mul(ea, eb)
        if max(product) <= MAX_EXPONENT:
            assert (a * b).exps == product, f"product broke: {context}"
        else:
            assert _raises_domain_error(lambda: a * b), f"product overflow passed: {context}"
        # a cofactor whose product with a stays in range, often exactly at it
        ec = tuple(rng.choice((0, MAX_EXPONENT - x, rng.randint(0, MAX_EXPONENT - x))) for x in ea)
        c = GridMonomial(shape, ec)
        assert (a * c).exps == dense_mul(ea, ec), f"product broke: {context}, c={ec}"
        assert (a * c) / c == a, f"division broke: {context}, c={ec}"
        done += 4

        wide = list(ea)
        wide[rng.randrange(len(wide))] = rng.randint(MAX_EXPONENT + 1, 300)
        assert _raises_domain_error(lambda: GridMonomial(shape, tuple(wide))), (
            f"exponent out of range accepted: {wide} on {shape}"
        )
        done += 1
    return done


def _sorted_chains_cache():
    cache: dict = {}

    def chains_for(shape: GridShape, length: int):
        key = (shape, length)
        if key not in cache:
            windows = list(iter_windows(shape))
            found = []
            for combo in combinations_with_replacement(windows, length):
                firsts = [w.first for w in combo]
                lasts = [w.last for w in combo]
                if firsts == sorted(firsts) and lasts == sorted(lasts):
                    found.append(WindowChain(combo))
            cache[key] = found
        return cache[key]

    return chains_for


def redistribute_suite(rng: random.Random, cases: int) -> int:
    """Rebalancing a factorization preserves the product, produces
    diagonal factors in the right windows, and is idempotent."""
    chains_for = _sorted_chains_cache()
    done = 0
    while done < cases:
        rows = rng.randint(1, 3)
        cols = rng.randint(rows + 1, rows + 4)
        shape = GridShape(rows, cols)
        length = rng.randint(2, 3)
        options = chains_for(shape, length)
        if not options:
            continue
        chain = rng.choice(options)
        factors = [
            rng.choice(enumerate_diagonals(shape, window))
            for window in chain.windows
        ]
        outputs = redistribute(shape, chain, factors)

        product_in = GridMonomial.unit(shape)
        for g in factors:
            product_in = product_in * g
        product_out = GridMonomial.unit(shape)
        for h in outputs:
            product_out = product_out * h
        assert product_in == product_out, (
            f"product changed: {factors} -> {outputs}"
        )

        selections = []
        for window, h in zip(chain.windows, outputs):
            sel = selection_of(h)
            assert sel is not None, f"output {h} is not diagonal"
            sel.check_against(shape, window)
            selections.append(sel)

        for i in range(rows):
            incoming = sorted(selection_of(g).cols[i] for g in factors)
            outgoing = [sel.cols[i] for sel in selections]
            assert incoming == outgoing, (
                f"row {i + 1} columns reshuffled wrongly: "
                f"{incoming} vs {outgoing}"
            )

        assert redistribute(shape, chain, outputs) == outputs, (
            f"not idempotent on {outputs}"
        )
        done += 1
    return done


# Plain Buchberger with no pair criteria: the oracle for the pruned engine.

def all_pairs_groebner(gens, max_nonzero: int = 24):
    """Reduced Groebner basis from reducing every pair of the growing basis,
    and the number of nonzero remainders met on the way; None once more
    than ``max_nonzero`` remainders are nonzero, since every pair of a
    large basis costs a reduction."""
    basis = []
    for g in gens:
        g = g.monic()
        if not g.is_zero and g not in basis:
            basis.append(g)
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    nonzero = 0
    while pairs:
        # smallest lcm first keeps the basis small; no pair is ever skipped
        i, j = min(pairs, key=lambda p: basis[p[0]].leading_monomial.lcm(
            basis[p[1]].leading_monomial).key)
        pairs.remove((i, j))
        remainder = reduce(s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero:
            nonzero += 1
            if nonzero > max_nonzero:
                return None
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(remainder.monic())
    # minimal: drop every element whose lead another lead divides (of equal
    # leads keep the first), then one tail-reduction pass reaches the unique
    # reduced basis because no lead moves
    minimal = [
        g for n, g in enumerate(basis)
        if not any(
            h.leading_monomial.divides(g.leading_monomial)
            and (h.leading_monomial != g.leading_monomial or m < n)
            for m, h in enumerate(basis) if m != n
        )
    ]
    reduced = [
        reduce(g, [h for h in minimal if h is not g]).monic() for g in minimal
    ]
    reduced.sort(key=lambda g: g.leading_monomial.key, reverse=True)
    return tuple(reduced), nonzero


_SMALL_SHAPES = (GridShape(1, 1), GridShape(1, 2), GridShape(1, 3), GridShape(1, 4), GridShape(2, 2))
_GROEBNER_FIELDS = (make_field(0), make_field(7), make_field(32003))


def _random_sparse_polynomial(rng: random.Random, shape: GridShape, field) -> Polynomial:
    """1-3 terms of one degree in 1..3.  Homogeneous inputs keep every
    exponent of the basis within its degree, far below the exponent bound."""
    variables = list(shape.variables())
    degree = rng.randint(1, 3)
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps: dict = {}
        for _ in range(degree):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        coeff = rng.choice((-1, 1)) * rng.randint(1, 5)
        terms.append((GridMonomial.from_exponents(shape, exps), coeff))
    return Polynomial.from_terms(shape, field, terms)


def buchberger_vs_all_pairs_suite(rng: random.Random, cases: int) -> int:
    """The pruned Buchberger returns the same reduced basis as reducing
    every pair, and that basis passes the unpruned S-pair check.  At least
    a third of the draws must meet a nonzero remainder, so the pruning is
    tested on inputs that grow their basis; at most one in a hundred may
    outgrow the reference's remainder cap and be skipped."""
    done = draws = growing = oversized = 0
    while done < cases:
        shape = rng.choice(_SMALL_SHAPES)
        field = rng.choice(_GROEBNER_FIELDS)
        gens = [_random_sparse_polynomial(rng, shape, field) for _ in range(rng.randint(2, 4))]
        if all(g.is_zero for g in gens):
            continue
        draws += 1
        oracle = all_pairs_groebner(gens)
        if oracle is None:
            oversized += 1
            continue
        reference, nonzero = oracle
        got = buchberger(gens).polys
        context = f"{[str(g) for g in gens]} over {field} on {shape}"
        assert got == reference, (
            f"pruned basis {[str(g) for g in got]} != all-pairs "
            f"{[str(g) for g in reference]} for {context}"
        )
        assert is_groebner_basis(got), f"not a Groebner basis for {context}"
        growing += nonzero > 0
        done += 2
    assert 3 * growing >= draws, (
        f"only {growing} of {draws} draws met a nonzero remainder"
    )
    assert 100 * oversized <= draws, (
        f"{oversized} of {draws} draws outgrew the all-pairs reference"
    )
    return done


# Sorted chains of at most two windows up to 3x5, and a Buchberger S-pair
# cap under which all but a few of the perturbed inputs finish.
_CERTIFICATE_CHAINS = [
    (shape, chain)
    for shape in iter_shapes(3, 5)
    for length in (1, 2)
    for chain in iter_sorted_chains(shape, length)
]
_CERTIFICATE_FIELDS = (make_field(7), make_field(32003), make_field(0))
_ORACLE_CAPS = replace(DEFAULT_CAPS, max_spairs=300)


def _lower_term(rng: random.Random, shape: GridShape, field, lead: GridMonomial) -> Polynomial:
    """A random term below the lead, of degree at most the lead's."""
    variables = list(shape.variables())
    while True:
        exps: dict = {}
        for _ in range(rng.randint(0, lead.degree)):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        mono = GridMonomial.from_exponents(shape, exps)
        if mono < lead:
            return Polynomial.from_terms(shape, field, [(mono, rng.randint(1, 6))])


def certificate_vs_buchberger_suite(rng: random.Random, cases: int) -> int:
    """The linear-quotients certificate certifies a set of natural window
    generators exactly when the initial ideal of its reduced basis is the
    diagonal product.  Half the draws add a term below the lead to one
    generator, which may stop the set from being a Groebner basis.  Over
    measured runs of 150 draws about two thirds certified and a quarter to
    two fifths did not, so each outcome must reach a fixed share; at most
    one draw in twenty may outgrow the oracle's S-pair cap and be skipped
    (at most 3% did)."""
    done = draws = certified = oversized = 0
    while done < cases:
        shape, chain = rng.choice(_CERTIFICATE_CHAINS)
        field = rng.choice(_CERTIFICATE_FIELDS)
        named = groebner._natural_products(shape, chain, field, DEFAULT_CAPS)
        if rng.random() < 0.5:
            # a changed generator is no natural product: a fresh name and a
            # fresh empty record keep the certificate from reusing the
            # reductions of its multiset
            k = rng.randrange(len(named))
            g = named[k][1]
            named[k] = (object(), g + _lower_term(rng, shape, field, g.leading_monomial), None, {})
        polys = [g for _, g, _, _ in named]
        draws += 1
        product = window_product_ideal(shape, chain.windows)
        try:
            truth = initial_ideal(buchberger(polys, _ORACLE_CAPS).polys) == product
        except ResourceLimitError:
            oversized += 1
            continue
        claim = groebner._certificate(named, product, DEFAULT_CAPS) is not None
        assert claim == truth, (
            f"certificate says {claim}, Buchberger says {truth} for "
            f"{[str(g) for g in polys]} over {field} on {shape}"
        )
        certified += claim
        done += 1
    assert 5 * certified >= 2 * draws, f"only {certified} of {draws} draws certified"
    assert 6 * (done - certified) >= draws, (
        f"only {done - certified} of {draws} draws failed the certificate"
    )
    assert 20 * oversized <= draws, f"{oversized} of {draws} draws outgrew the S-pair cap"
    return done


def linear_quotients_vs_chain_suite(rng: random.Random, cases: int) -> int:
    """The V_j walk finds linear quotients exactly when the brute colon chain
    certifies them, and then each V_j is the minimal generators of its chain
    step, each variable with the first k whose colon it is.  Four draws in five are random ideals of up to 8 generators, of
    which about a fifth lack linear quotients, so at least a tenth of the
    draws must; the rest are window products up to 3x5."""
    failed = 0
    for _ in range(cases):
        if rng.random() < 0.2:
            shape, chain = rng.choice(_CERTIFICATE_CHAINS)
            ideal = window_product_ideal(shape, chain.windows)
        else:
            ideal = random_ideal(rng, random_shape(rng), max_gens=8)
        colons = quotient_chain(ideal)
        walk = quotients._linear_quotients([g.key for g in ideal.gens], ideal.shape)
        assert (walk is None) == (not colons.certifies_linear_quotients), str(ideal)
        if walk is None:
            failed += 1
            continue
        assert walk[0] == {}
        for j, step in enumerate(colons.steps, start=1):
            assert sorted(walk[j], reverse=True) == [g.key for g in step.gens], (str(ideal), j)
            colons_j = [g.colon(ideal.gens[j]).key for g in ideal.gens[:j]]
            assert all(colons_j.index(v) == k for v, k in walk[j].items()), (str(ideal), j)
    assert 10 * failed >= cases, f"only {failed} of {cases} draws lacked linear quotients"
    return cases


def _taylor_euler(ideal: MonomialIdeal) -> dict:
    """Sum of (-1)^(|s|+1) over the nonempty generator subsets s, per degree
    of lcm(s): the graded Euler characteristic of the Taylor resolution."""
    gens = ideal.gens
    lcms = [None] * (1 << len(gens))
    euler = {}
    for mask in range(1, len(lcms)):
        low = mask & -mask
        g = gens[low.bit_length() - 1]
        lcms[mask] = g if mask == low else lcms[mask ^ low].lcm(g)
        degree = lcms[mask].degree
        euler[degree] = euler.get(degree, 0) + (1 if mask.bit_count() % 2 else -1)
    return {j: e for j, e in euler.items() if e}


def homology_vs_taylor_suite(rng: random.Random, cases: int) -> int:
    """The homology oracle's table has the Taylor resolution's graded Euler
    characteristic, sum_i (-1)^i beta_{i,j}, in every degree j, and equals
    the mapping cone's table whenever the canonical order has linear
    quotients.  Each draw is 2 to 7 monomials of one or two variables, with
    exponents 1 or 2, on a grid up to 3x4, at char 0, 2 or 32003.  Over
    measured runs of 150 draws a quarter to a half had linear quotients
    after minimalization, so each outcome must reach a fifth."""
    linear = 0
    for _ in range(cases):
        rows = rng.randint(1, 3)
        shape = GridShape(rows, rng.randint(rows, 4))
        variables = list(shape.variables())
        gens = []
        for _ in range(rng.randint(2, 7)):
            support = rng.sample(variables, rng.randint(1, min(2, len(variables))))
            gens.append(GridMonomial.from_exponents(shape, {v: rng.randint(1, 2) for v in support}))
        ideal = MonomialIdeal(shape, gens)
        char = rng.choice((0, 2, 32003))
        table = resolution.betti_table(ideal, char)
        euler = {}
        for i, j, beta in table.cells:
            euler[j] = euler.get(j, 0) + (-1) ** i * beta
        context = f"{ideal} at char {char}: {table!r}"
        assert {j: e for j, e in euler.items() if e} == _taylor_euler(ideal), context
        cone = resolution._cone(ideal, char)
        if cone is not None:
            assert cone == table, f"cone {cone!r} for {context}"
            linear += 1
    assert 5 * linear >= cases, f"only {linear} of {cases} draws had linear quotients"
    assert 5 * (cases - linear) >= cases, f"only {cases - linear} of {cases} draws lacked them"
    return cases


SUITES = {
    "buchberger_vs_all_pairs": buchberger_vs_all_pairs_suite,
    "certificate_vs_buchberger": certificate_vs_buchberger_suite,
    "colon_membership": colon_membership_suite,
    "colon_over_sum": colon_over_sum_suite,
    "homology_vs_taylor": homology_vs_taylor_suite,
    "linear_quotients_vs_chain": linear_quotients_vs_chain_suite,
    "minimalize": minimalize_suite,
    "order_laws": order_law_suite,
    "packed_vs_dense": packed_vs_dense_suite,
    "redistribute": redistribute_suite,
}


def run_all(seed: int = 20260816) -> dict:
    """Run every suite at its budget; returns name -> checks performed."""
    counts = {}
    for name, suite in SUITES.items():
        rng = random.Random(f"{seed}:{name}")
        counts[name] = suite(rng, BUDGETS[name])
    return counts
