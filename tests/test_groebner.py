from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iter_product
from math import comb

import pytest

import diagideal.groebner as groebner
import diagideal.windows as windows
from diagideal.caps import DEFAULT_CAPS, Caps
from diagideal.checks import conjecture_scan, iter_shapes
from diagideal.errors import (
    DiagIdealError,
    DomainError,
    EngineError,
    ResourceLimitError,
    ShapeMismatchError,
)
from diagideal.fields import make_field
from diagideal.groebner import (
    GroebnerBasis,
    buchberger,
    conjecture_check,
    initial_ideal,
    is_groebner_basis,
    natural_window_generators,
    reduce,
    s_polynomial,
)
from diagideal.ideals import MonomialIdeal
from diagideal.monomials import GridMonomial, GridShape, _degree, parse_monomial
from diagideal.polynomials import Polynomial
from diagideal.quotients import quotient_chain
from diagideal.resolution import mapping_cone_betti
from diagideal.windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    iter_sorted_chains,
    minor,
    window_product_ideal,
)

QQ = make_field(0)
GF = make_field(32003)


def poly(shape, field, *pairs):
    return Polynomial.from_terms(
        shape, field, [(parse_monomial(shape, text), coeff) for text, coeff in pairs]
    )


def minors_of(shape, field, cols_list):
    return [minor(shape, cols, field) for cols in cols_list]


def test_reduce_by_self_is_zero():
    shape = GridShape(2, 3)
    f = minor(shape, (1, 2), QQ)
    assert reduce(f, [f]).is_zero


def test_reduce_leaves_irreducible_alone():
    shape = GridShape(2, 2)
    g = poly(shape, QQ, ("x[1,1]*x[2,2]", 1), ("x[1,2]*x[2,1]", -1))
    target = poly(shape, QQ, ("x[1,2]*x[2,1]", 1))
    assert reduce(target, [g]) == target


def test_reduce_rejects_a_basis_on_another_grid():
    # x[2,3] on 2x3 divides no term of f, and a zero f has no term at all
    g = poly(GridShape(2, 3), QQ, ("x[2,3]", 1))
    shape = GridShape(2, 2)
    for f in (poly(shape, QQ, ("x[1,1]", 1)), Polynomial.zero(shape, QQ)):
        with pytest.raises(ShapeMismatchError):
            reduce(f, [g])


def test_reduce_strips_all_divisible_terms():
    shape = GridShape(1, 2)
    g = poly(shape, QQ, ("x[1,1]", 1))
    f = poly(shape, QQ, ("x[1,1]^3", 2), ("x[1,1]*x[1,2]", 5), ("x[1,2]^2", 7))
    r = reduce(f, [g])
    assert r == poly(shape, QQ, ("x[1,2]^2", 7))


def test_s_polynomial_cancels_leading_terms():
    shape = GridShape(2, 3)
    f = minor(shape, (1, 2), QQ)
    g = minor(shape, (1, 3), QQ)
    s = s_polynomial(f, g)
    lcm = f.leading_monomial.lcm(g.leading_monomial)
    assert s.is_zero or s.leading_monomial < lcm


def test_buchberger_single_polynomial():
    shape = GridShape(2, 2)
    f = poly(shape, QQ, ("x[1,1]*x[2,2]", 3), ("x[1,2]*x[2,1]", -3))
    basis = buchberger([f])
    assert len(basis.polys) == 1
    assert basis.polys[0] == f.monic()


def test_classical_minors_are_already_reduced_basis():
    shape = GridShape(2, 3)
    gens = minors_of(shape, QQ, [(1, 2), (1, 3), (2, 3)])
    basis = buchberger(gens)
    assert set(basis.polys) == {g.monic() for g in gens}
    assert initial_ideal(basis) == diagonal_ideal(shape, Window(1, 3))
    assert is_groebner_basis(basis)


def test_buchberger_on_monomial_generators():
    shape = GridShape(1, 3)
    product = window_product_ideal(shape, [Window(1, 2), Window(2, 3)])
    gens = [Polynomial.from_terms(shape, QQ, [(g, 1)]) for g in product.gens]
    basis = buchberger(gens)
    assert initial_ideal(basis) == product
    assert len(basis.polys) == len(product.gens)


def test_reduced_basis_ignores_generator_order():
    shape = GridShape(3, 4)
    gens = minors_of(shape, GF, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    reference = buchberger(gens)
    rng = random.Random(11)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).polys == reference.polys


def test_redundant_generator_is_eliminated():
    shape = GridShape(1, 2)
    f = poly(shape, QQ, ("x[1,1]", 1))
    g = poly(shape, QQ, ("x[1,1]*x[1,2]", 4))  # multiple of f
    basis = buchberger([f, g])
    assert [str(p) for p in basis.polys] == ["x[1,1]"]


def test_rational_and_prime_runs_agree_on_initial_ideal():
    shape = GridShape(2, 4)
    chain = WindowChain.of((1, 3), (2, 4))
    for field in (QQ, GF, make_field(2)):
        gens = natural_window_generators(shape, chain, field)
        basis = buchberger(gens)
        assert initial_ideal(basis) == window_product_ideal(shape, chain.windows)


def test_posthoc_check_rejects_incomplete_sets():
    shape = GridShape(2, 3)
    # leading terms share x[1,1]; their S-polynomial cannot reduce to zero
    # without the third minor
    gens = minors_of(shape, QQ, [(1, 2), (1, 3)])
    fake = GroebnerBasis(shape, QQ, tuple(g.monic() for g in gens))
    assert not is_groebner_basis(fake)


def test_posthoc_check_skips_coprime_pairs():
    # Lex reduction of the S-polynomials of the four coprime-lead pairs of
    # this basis passes the exponent bound, though the basis stays <= 13.
    shape = GridShape(2, 2)
    gens = [
        poly(shape, QQ, ("x[1,2]^2*x[2,1]", -3), ("x[1,2]*x[2,2]", -5), ("1", -2)),
        poly(shape, QQ, ("x[1,1]*x[1,2]*x[2,2]", 1), ("x[2,1]*x[2,2]^2", 4)),
        poly(shape, QQ, ("x[1,1]^2*x[2,1]", -4), ("x[1,1]*x[1,2]", -5), ("x[1,2]", -5)),
    ]
    basis = buchberger(gens)
    assert len(basis) == 7
    assert max(max(m.exps) for g in basis for m, _ in g.terms) == 13
    assert is_groebner_basis(basis)


def test_spair_cap_raises_with_snapshot():
    shape = GridShape(3, 5)
    gens = natural_window_generators(shape, WindowChain.of((1, 5)), GF)
    tiny = replace(DEFAULT_CAPS, max_spairs=2)
    with pytest.raises(ResourceLimitError) as info:
        buchberger(gens, caps=tiny)
    assert set(info.value.snapshot) == {"basis_size", "pending", "reductions"}


def test_minor_rows_cap_reaches_the_minor_expansion():
    # The natural products check minor's rows cap once per chain, with
    # minor's message and snapshot, before any minor is expanded.
    shape = GridShape(3, 4)
    chain = WindowChain.of((1, 4))
    two_rows = replace(DEFAULT_CAPS, max_minor_rows=2)
    windows._minor_product.cache_clear()
    with pytest.raises(ResourceLimitError, match="capped at 2 rows, got 3") as expected:
        minor(shape, (1, 2, 3), GF, two_rows)
    assert expected.value.snapshot == {"rows": 3}
    for call in (
        lambda: natural_window_generators(shape, chain, GF, two_rows),
        lambda: conjecture_check(shape, chain, caps=two_rows),
    ):
        with pytest.raises(ResourceLimitError) as info:
            call()
        assert str(info.value) == str(expected.value)
        assert info.value.snapshot == expected.value.snapshot
    assert windows._minor_product.cache_info().misses == 0
    assert conjecture_check(shape, chain, caps=replace(DEFAULT_CAPS, max_minor_rows=3))["ini_equals_J"]


def test_product_cap_reaches_the_natural_products():
    # 3x8 (1,8)(1,8) has 1,596 column multisets, one natural product each.
    # Under a cap of 100 they are counted to 101 before any product is
    # read; conjecture_check stops first on the diagonal product, at 111.
    shape, chain = GridShape(3, 8), WindowChain.of((1, 8), (1, 8))
    caps = replace(DEFAULT_CAPS, max_product_gens=100)
    windows._minor_product.cache_clear()
    with pytest.raises(ResourceLimitError, match="reached 101 generators, cap is 100$") as info:
        natural_window_generators(shape, chain, GF, caps)
    assert info.value.snapshot == {"chain": "1,8:1,8", "gens": 101}
    cached = windows._minor_product.cache_info()
    assert cached.hits == cached.misses == 0
    with pytest.raises(ResourceLimitError) as info:
        conjecture_check(shape, chain, caps=caps)
    assert info.value.snapshot == {"chain": "1,8:1,8", "gens": 111}


def test_term_cap_stops_the_natural_products_before_any_forms():
    # 5x8 (1,8)(1,8) has 1,596 column multisets, each a product of two
    # 5-row minors of at most (5!)^2 terms: 22,982,400 in all, past the
    # default cap.  Both entries stop before any product is read.
    shape, chain = GridShape(5, 8), WindowChain.of((1, 8), (1, 8))
    before = windows._minor_product.cache_info()
    for call in (
        lambda: natural_window_generators(shape, chain, GF),
        lambda: conjecture_check(shape, chain),
    ):
        with pytest.raises(ResourceLimitError) as info:
            call()
        assert str(info.value) == "natural products bound at 22982400 terms, cap is 2000000"
        assert info.value.snapshot == {"chain": "1,8:1,8", "terms": 22982400}
    assert windows._minor_product.cache_info() == before
    # The bound is exact at the cap: 2x3 (1,3) has three products of 2! terms.
    small = GridShape(2, 3), WindowChain.of((1, 3))
    six = replace(DEFAULT_CAPS, max_natural_terms=6)
    assert len(natural_window_generators(*small, GF, six)) == 3
    with pytest.raises(ResourceLimitError, match="bound at 6 terms, cap is 5$"):
        conjecture_check(*small, caps=replace(DEFAULT_CAPS, max_natural_terms=5))


@pytest.mark.parametrize("rows, cols, expected", [(2, 4, 8), (3, 5, 15), (3, 6, 45)])
def test_pair_update_reduces_one_pair_per_first_syzygy(rows, cols, expected):
    # The maximal minors are already a Groebner basis and their leads have
    # linear quotients; the pair update keeps exactly one S-pair per
    # minimal first syzygy of the diagonal ideal.
    shape = GridShape(rows, cols)
    gens = natural_window_generators(shape, WindowChain.of((1, cols)), GF)
    basis = buchberger(gens)
    first_betti = mapping_cone_betti(diagonal_ideal(shape, Window(1, cols))).totals()[1]
    assert basis.spairs_reduced == first_betti == expected


def test_natural_window_generators_products():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    gens = natural_window_generators(shape, chain, GF)
    assert all(p.leading_monomial.degree == 4 for p in gens)
    leads = {p.leading_monomial for p in gens}
    product = window_product_ideal(shape, chain.windows)
    assert {g for g in product.gens} <= leads


def brute_naturals(shape, chain, field):
    """One product per combination of minors, deduplicated on monic terms."""
    per_window = [
        [minor(shape, cols, field) for cols in combinations(range(w.first, w.last + 1), shape.rows)]
        for w in chain.windows
    ]
    products = []
    seen = set()
    for combo in iter_product(*per_window):
        poly = combo[0]
        for factor in combo[1:]:
            poly = poly * factor
        key = poly.monic().terms
        if key not in seen:
            seen.add(key)
            products.append(poly)
    return products


def test_natural_window_generators_match_brute_products():
    # Skipping a repeated column multiset before multiplying keeps the list,
    # its order and every term.  All chains of at most two windows on four
    # grids at three chars, and the three-window chains of 2x5 over GF(2).
    cases = [
        (GridShape(rows, cols), length, char)
        for rows, cols in ((2, 5), (2, 6), (3, 5), (3, 6))
        for length in (1, 2)
        for char in (0, 2, 32003)
    ]
    cases.append((GridShape(2, 5), 3, 2))
    for shape, length, char in cases:
        field = make_field(char)
        for chain in iter_sorted_chains(shape, length):
            got = natural_window_generators(shape, chain, field)
            want = brute_naturals(shape, chain, field)
            assert [g.terms for g in got] == [w.terms for w in want], (shape, chain, char)
            assert all(g.field == field for g in got)


def test_each_minor_is_expanded_once():
    # The scan asks for the same minors chain after chain; each
    # (shape, columns, field) is expanded once and shared after that, in
    # the one cache that also holds each two-factor product once.
    windows._minor_product.cache_clear()
    assert all(v["ini_equals_J"] for v in conjecture_scan(2, 5, 2))
    expected = {
        (shape, cols, GF)
        for shape in iter_shapes(2, 5)
        if shape.cols > 1
        for cols in combinations(range(1, shape.cols + 1), shape.rows)
    }
    requests = []  # (shape, multiset) read by each chain, once per multiset
    for shape in iter_shapes(2, 5):
        for length in (1, 2):
            for chain in iter_sorted_chains(shape, length):
                per_window = [
                    combinations(range(w.first, w.last + 1), shape.rows) for w in chain.windows
                ]
                multisets = {tuple(sorted(combo)) for combo in iter_product(*per_window)}
                requests += [(shape, multiset) for multiset in multisets]
    products = {(shape, m) for shape, m in requests if len(m) == 2}
    info = windows._minor_product.cache_info()
    assert info.misses == info.currsize == len(expected) + len(products)
    # Each product is built on one read of each of its two minors; every
    # other read of a minor or a product is a hit.
    assert info.hits + info.misses == len(requests) + 2 * len(products)
    assert info.hits > 2 * info.misses


def test_minor_cache_is_keyed_by_field():
    shape, chain = GridShape(2, 4), WindowChain.of((1, 3), (2, 4))
    seven = make_field(7)
    assert minor(shape, (1, 3), seven) is minor(shape, (1, 3), make_field(7))
    assert minor(shape, (1, 3), seven) is not minor(shape, (1, 3), QQ)
    rational = natural_window_generators(shape, chain, QQ)
    residues = natural_window_generators(shape, chain, seven)
    assert len(rational) == len(residues) == 9
    for f, g in zip(rational, residues):
        assert f.field == QQ and g.field == seven
        assert all(isinstance(c, Fraction) for _, c in f.terms)
        assert all(type(c) is int for _, c in g.terms)
        assert g.terms == tuple((m, c % 7) for m, c in f.terms)


def test_conjecture_check_verdict_fields():
    shape = GridShape(1, 3)
    verdict = conjecture_check(shape, WindowChain.of((1, 2), (2, 3)))
    assert verdict["shape"] == [1, 3]
    assert verdict["chain"] == [[1, 2], [2, 3]]
    assert verdict["char"] == 32003
    assert verdict["ini_equals_J"] is True
    assert verdict["natural_gens_are_GB"] is True
    assert isinstance(verdict["spairs"], int)
    assert isinstance(verdict["millis"], int)


def test_conjecture_check_raises_on_engine_fault(monkeypatch):
    # an initial ideal missing a diagonal generator is an engine bug, and
    # must not come out as a false verdict with a witness; only the
    # Buchberger fallback builds the initial ideal, so it is forced here
    shape = GridShape(2, 4)
    real = groebner.initial_ideal

    def drops_a_generator(basis):
        return real(list(basis)[1:])

    monkeypatch.setattr(groebner, "_certificate", lambda *args: None)
    monkeypatch.setattr(groebner, "initial_ideal", drops_a_generator)
    with pytest.raises(EngineError) as info:
        conjecture_check(shape, WindowChain.of((1, 4)))
    assert isinstance(info.value, DiagIdealError)


def test_certificate_raises_when_natural_leads_miss_the_product(monkeypatch):
    # the natural generators lead with every diagonal product by
    # construction, so a missing lead is an engine bug
    shape = GridShape(2, 4)
    real = groebner._natural_products
    monkeypatch.setattr(groebner, "_natural_products", lambda *args: real(*args)[1:])
    with pytest.raises(EngineError):
        conjecture_check(shape, WindowChain.of((1, 4)))


def test_reduce_keeps_the_exponent_bound():
    # Each division by g trades x[1,1] for x[1,2]^2, so reducing the
    # S-polynomial -x[1,1]^63*x[1,2]^2 - x[1,2] would reach x[1,2]^128.
    shape = GridShape(1, 2)
    g = poly(shape, QQ, ("x[1,1]", 1), ("x[1,2]^2", -1))
    h = poly(shape, QQ, ("x[1,1]^64", 1), ("x[1,2]", 1))
    s = s_polynomial(g, h)
    assert max(max(m.exps) for m, _ in s.terms) == 63
    with pytest.raises(DomainError):
        reduce(s, [g, h])
    with pytest.raises(DomainError):
        is_groebner_basis([g, h])


@pytest.mark.parametrize(
    "rows, cols, bounds",
    [(1, 3, ((1, 2), (2, 3))), (2, 4, ((1, 4),)), (2, 5, ((1, 4), (2, 5))), (3, 5, ((1, 5), (1, 5)))],
)
def test_certificate_spairs_is_the_first_betti_number(rows, cols, bounds, monkeypatch):
    # Under the certificate spairs counts one S-pair per variable of each
    # linear quotient V_j, which is the first total Betti number of J.
    shape = GridShape(rows, cols)
    chain = WindowChain.of(*bounds)
    product = window_product_ideal(shape, chain.windows)
    colons = quotient_chain(product)
    assert colons.certifies_linear_quotients

    def no_fallback(*args, **kwargs):
        raise AssertionError("the certificate fell back to buchberger")

    monkeypatch.setattr(groebner, "buchberger", no_fallback)
    verdict = conjecture_check(shape, chain)
    assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
    first_betti = mapping_cone_betti(product).totals()[1]
    assert verdict["spairs"] == sum(colons.variable_counts) == first_betti


def test_conjecture_check_falls_back_when_the_certificate_fails(monkeypatch):
    # A term below the lead of one minor keeps every lead but breaks the
    # Groebner basis: the certificate cannot decide and buchberger, with its
    # Gebauer-Moller pair count, gives the false verdict and its witness.
    # The changed generator is no natural product, so it gets a fresh name
    # that no recorded reduction holds, and a fresh empty record.
    shape = GridShape(2, 3)
    chain = WindowChain.of((1, 3))
    product = window_product_ideal(shape, chain.windows)
    real = groebner._natural_products
    named = real(shape, chain, GF, DEFAULT_CAPS)
    named[2] = (object(), named[2][1] + poly(shape, GF, ("x[2,1]", 1)), None, {})
    naturals = [g for _, g, _, _ in named]
    assert groebner._certificate(named, product, DEFAULT_CAPS) is None

    monkeypatch.setattr(groebner, "_natural_products", lambda *args: list(named))
    verdict = conjecture_check(shape, chain)
    basis = buchberger(naturals)
    ini = initial_ideal(basis)
    witness = next(p for p in basis if not product.contains(p.leading_monomial))
    del verdict["millis"]
    assert verdict == {
        "shape": [2, 3],
        "chain": [[1, 3]],
        "char": 32003,
        "ini_equals_J": False,
        "natural_gens_are_GB": False,
        "spairs": basis.spairs_reduced,
        "witness": str(witness),
    }
    assert ini != product

    # A certified verdict is true by proof, with the certificate's count.
    # On every chain of the groebner-scan benchmark the certificate decides,
    # and a forced fallback keeps the verdict, reporting Gebauer-Moller's
    # count, which on 2x6 (1,3):(1,4) exceeds the Betti number.
    monkeypatch.setattr(groebner, "_natural_products", real)
    real_buchberger = groebner.buchberger

    def no_fallback(*args, **kwargs):
        raise AssertionError("the certificate fell back to buchberger")

    monkeypatch.setattr(groebner, "buchberger", no_fallback)
    chains = scan_chains()
    certified = [conjecture_check(shape, chain) for shape, chain in chains]
    monkeypatch.setattr(groebner, "buchberger", real_buchberger)
    monkeypatch.setattr(groebner, "_certificate", lambda *args: None)
    fallback = [conjecture_check(shape, chain) for shape, chain in chains]
    spot = chains.index((GridShape(2, 6), WindowChain.of((1, 3), (1, 4))))
    naturals = natural_window_generators(*chains[spot], GF)
    assert fallback[spot]["spairs"] == buchberger(naturals).spairs_reduced == 25
    assert certified[spot]["spairs"] == 24
    assert len(chains) == 146
    for pair in zip(certified, fallback):
        for verdict in pair:
            del verdict["millis"], verdict["spairs"]
        assert pair[1] == pair[0]
        assert list(pair[0]) == list(pair[1])


def test_certificate_refuses_more_pairs_than_the_spair_cap(monkeypatch):
    # 1x4 (1,4) has six certificate pairs, one per pair of variables; under
    # a cap of 5 the certificate cannot decide, and the Buchberger fallback,
    # whose leads are coprime, reduces none and gives the true verdict.
    shape, chain = GridShape(1, 4), WindowChain.of((1, 4))
    caps = replace(DEFAULT_CAPS, max_spairs=5)
    naturals = groebner._natural_products(shape, chain, GF, caps)
    product = window_product_ideal(shape, chain.windows)
    assert groebner._certificate(naturals, product, DEFAULT_CAPS) == 6
    assert groebner._certificate(naturals, product, caps) is None
    fallbacks = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda *a: fallbacks.append(1) or real(*a))
    verdict = conjecture_check(shape, chain, caps=caps)
    assert fallbacks == [1]
    assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
    assert verdict["spairs"] == 0


def test_certified_scan_reads_no_minor_and_builds_no_initial_ideal(monkeypatch):
    # Certified verdicts are read off the certificate: no natural product
    # goes through minor, and no initial ideal is built.
    def broken(*args, **kwargs):
        raise AssertionError("called on the certified path")

    monkeypatch.setattr(groebner, "initial_ideal", broken)
    monkeypatch.setattr(windows, "minor", broken)
    assert not hasattr(groebner, "minor")
    verdicts = list(conjecture_scan(2, 5, 2))
    assert verdicts and all(v["ini_equals_J"] and v["natural_gens_are_GB"] for v in verdicts)


def test_conjecture_check_squared_window():
    shape = GridShape(2, 3)
    verdict = conjecture_check(shape, WindowChain.of((1, 3), (1, 3)))
    assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]


def test_conjecture_check_rejects_oversized_bounds():
    shape = GridShape(3, 8)
    chain = WindowChain.of((1, 8), (1, 8), (1, 8))
    with pytest.raises(ResourceLimitError):
        conjecture_check(shape, chain)


def test_each_natural_product_is_multiplied_once(monkeypatch):
    # Across a scan every column multiset, and the prefix multisets that
    # three-factor products are built on, is multiplied once; a second scan
    # in the same process multiplies nothing and gives the same verdicts.
    multiplied = []
    real_mul = Polynomial.__mul__

    def counting(self, other):
        multiplied.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    windows._minor_product.cache_clear()
    first = list(conjecture_scan(2, 4, 3))
    minors = {
        (shape, cols)
        for shape in iter_shapes(2, 4)
        if shape.cols > 1
        for cols in combinations(range(1, shape.cols + 1), shape.rows)
    }
    expected = set()
    for shape in iter_shapes(2, 4):
        for length in (2, 3):
            for chain in iter_sorted_chains(shape, length):
                per_window = [
                    combinations(range(w.first, w.last + 1), shape.rows) for w in chain.windows
                ]
                for combo in iter_product(*per_window):
                    multiset = tuple(sorted(combo))
                    expected.update((shape, multiset[:n], GF) for n in range(2, length + 1))
    info = windows._minor_product.cache_info()
    assert info.misses == info.currsize == len(minors) + len(expected)
    assert len(multiplied) == len(expected)
    second = list(conjecture_scan(2, 4, 3))
    assert len(multiplied) == len(expected)
    assert windows._minor_product.cache_info().misses == info.misses
    for verdict in first + second:
        assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
        del verdict["millis"]
    assert first == second


def test_natural_product_cache_is_keyed_by_field():
    shape, chain = GridShape(2, 4), WindowChain.of((1, 3), (2, 4))
    seven = make_field(7)
    windows._minor_product.cache_clear()
    residues = natural_window_generators(shape, chain, seven)
    again = natural_window_generators(shape, chain, make_field(7))
    rational = natural_window_generators(shape, chain, QQ)
    assert all(f is g for f, g in zip(residues, again))
    assert not any(f is g for f, g in zip(residues, rational))
    # Per field: five minors and the nine products of two of them.
    info = windows._minor_product.cache_info()
    assert len(residues) == 9 and info.misses == info.currsize == 2 * (5 + 9)
    for f, g in zip(rational, residues):
        assert g.terms == tuple((m, c % 7) for m, c in f.terms)


@pytest.mark.parametrize("char", [0, 7])
def test_three_factor_natural_products_match_brute_products(char):
    # Built cold, then read back warm, every three-factor product equals
    # the product of its minors multiplied in chain order.
    field = make_field(char)
    for shape in (GridShape(2, 4), GridShape(3, 4)):
        windows._minor_product.cache_clear()
        for _ in range(2):
            for chain in iter_sorted_chains(shape, 3):
                got = natural_window_generators(shape, chain, field)
                want = brute_naturals(shape, chain, field)
                assert [g.terms for g in got] == [w.terms for w in want], (shape, chain, char)


def test_natural_product_cache_stays_bounded(monkeypatch):
    # A chain with more minors and products than the bound evicts from the
    # cache, never holds more than the bound, and still gives the brute
    # products.
    small = lru_cache(maxsize=5)(windows._minor_product.__wrapped__)
    monkeypatch.setattr(windows, "_minor_product", small)
    monkeypatch.setattr(groebner, "_minor_product", small)
    shape = GridShape(2, 4)
    chain = WindowChain.of((1, 4), (1, 4), (1, 4))
    got = natural_window_generators(shape, chain, GF)
    info = small.cache_info()
    assert info.currsize <= 5 < info.misses
    assert [g.terms for g in got] == [w.terms for w in brute_naturals(shape, chain, GF)]


def scan_remainder(f, basis):
    """Division by the first basis element, in list order, whose lead
    divides the largest remaining term, on the public operators."""
    field = f.field
    remainder = Polynomial.zero(f.shape, field)
    while f:
        mono, c = f.terms[0]
        g = next((g for g in basis if g.leading_monomial.divides(mono)), None)
        if g is None:
            term = Polynomial.from_terms(f.shape, field, [(mono, c)])
            remainder, f = remainder + term, f - term
        else:
            scale = field.mul(c, field.invert(g.leading_coefficient))
            f = f - g.times_term(mono / g.leading_monomial, scale)
    return remainder


def random_monomial(rng, shape, degree):
    exps = [0] * shape.variable_count
    for _ in range(degree):
        exps[rng.randrange(len(exps))] += 1
    return GridMonomial(shape, tuple(exps))


def random_form(rng, shape, field, degree, terms):
    """A polynomial of terms random monomials of the given degree."""
    return Polynomial.from_terms(
        shape,
        field,
        [(random_monomial(rng, shape, degree), rng.randint(1, 6)) for _ in range(terms)],
    )


@pytest.mark.parametrize("kind", ["one-degree", "mixed-degrees", "duplicate-leads"])
@pytest.mark.parametrize("char", [0, 7])
def test_lookup_division_matches_the_first_divisor_scan(kind, char):
    # Leads of one degree d are looked up by the term and its quotients by
    # each variable; the remainder must be the plain scan's for terms of
    # degree d, d + 1 and d + 2, and for bases where the table is off.
    rng = random.Random(f"{kind}/{char}")
    field = make_field(char)
    shape = GridShape(2, 3)
    for _ in range(40):
        d = rng.randint(1, 3)
        basis = [g for g in (random_form(rng, shape, field, d, 3) for _ in range(5)) if g]
        if kind == "mixed-degrees":
            basis.append(random_form(rng, shape, field, d + 1, 3))
            rng.shuffle(basis)
        if kind == "duplicate-leads":
            lead = basis[0].leading_monomial
            tail = random_form(rng, shape, field, d, 2)
            basis.insert(rng.randrange(len(basis) + 1), Polynomial.from_terms(shape, field, [(lead, 1)]) + tail)
            basis = [g for g in basis if g]
        divisors = groebner._Basis(shape, field, basis)
        assert (divisors.firsts is None) == (len({g.leading_monomial.degree for g in basis}) > 1)
        f = sum(
            (random_form(rng, shape, field, e, 4) for e in (d, d + 1, d + 2)),
            Polynomial.zero(shape, field),
        )
        want = scan_remainder(f, basis)
        assert reduce(f, basis) == want
        divisors.firsts = None
        assert groebner._reduce(f.keys, f.coeffs, divisors) == want


def scan_chains():
    """The chains of the groebner-scan benchmark: every chain of at most two
    windows over 2x6 and 3x5."""
    return [
        (shape, chain)
        for shape in (GridShape(2, 6), GridShape(3, 5))
        for length in (1, 2)
        for chain in iter_sorted_chains(shape, length)
    ]


def test_lookup_misses_at_degree_d_and_d_plus_one_match_the_scan(monkeypatch):
    # A lookup miss is final for a term of the leads' degree d or d + 1, so
    # the table's division scans only terms of higher degree.  Every
    # division on the groebner-scan benchmark's instances, the certificate
    # on each chain with nothing recorded and Buchberger with its post-hoc
    # check on each anchor, leaves the plain scan's remainder.  The
    # certificate's S-polynomials all have degree d + 1 and scan nothing;
    # the anchors leave remainders and scan terms of degree d + 2.
    scans = []
    scan = groebner._first_divisor
    monkeypatch.setattr(groebner, "_first_divisor", lambda key, *args: scans.append(key) or scan(key, *args))
    real = groebner._reduce
    table = {"divisions": 0, "remainders": 0, "scans": 0}

    def against_the_scan(keys, coeffs, basis, used=None):
        scans.clear()
        got = real(keys, coeffs, basis, used)
        if basis.firsts:
            assert all(_degree(key, basis.shape) > basis.degree + 1 for key in scans)
            table["divisions"] += 1
            table["remainders"] += bool(got)
            table["scans"] += len(scans)
            plain = groebner._Basis(basis.shape, basis.field)
            plain.leads, plain.rows, plain.firsts = basis.leads, basis.rows, None
            assert got == real(keys, coeffs, plain)
        return got

    monkeypatch.setattr(groebner, "_reduce", against_the_scan)
    for shape, chain in scan_chains():
        windows._minor_product.cache_clear()
        conjecture_check(shape, chain)
    assert table["divisions"] > 5000 and table["scans"] == 0
    for rows, cols in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]:
        for field in (QQ, GF):
            gens = natural_window_generators(GridShape(rows, cols), WindowChain.of((1, cols)), field)
            assert is_groebner_basis(buchberger(gens).polys)
    assert table["remainders"] and table["scans"]


def clean(verdict):
    verdict = dict(verdict)
    del verdict["millis"]
    return verdict


def test_certified_pairs_change_no_verdict_in_any_scan_order(monkeypatch):
    # Each chain checked on an empty record gives the reference verdicts.
    # Scans in two shuffled orders, and then a repeat that finds every pair
    # recorded and builds no S-polynomial, give the same verdicts, spairs
    # included.
    chains = scan_chains()
    reference = []
    for shape, chain in chains:
        windows._minor_product.cache_clear()
        reference.append(clean(conjecture_check(shape, chain)))
    windows._minor_product.cache_clear()
    for seed in (1, 2):
        order = list(range(len(chains)))
        random.Random(seed).shuffle(order)
        for i in order:
            assert clean(conjecture_check(*chains[i])) == reference[i]
    s_pairs = []
    real = groebner._s_pair
    monkeypatch.setattr(groebner, "_s_pair", lambda *args: s_pairs.append(args) or real(*args))
    for i in order:
        assert clean(conjecture_check(*chains[i])) == reference[i]
    assert not s_pairs


def test_a_recorded_pair_is_reused_only_when_its_divisors_are_kept(monkeypatch):
    # The 20 S-pairs of the 2x5 maximal minors are reduced on an empty
    # record and on none after.  A pair whose record names a multiset the
    # chain lacks, here a product of two minors, is reduced again and
    # recorded afresh.
    windows._minor_product.cache_clear()
    reductions = []
    real = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", lambda *args: reductions.append(args) or real(*args))
    shape, chain = GridShape(2, 5), WindowChain.of((1, 5))
    first = clean(conjecture_check(shape, chain))
    named = groebner._natural_products(shape, chain, GF, DEFAULT_CAPS)
    records = [(record, pair) for _, _, _, record in named for pair in record]
    assert len(reductions) == first["spairs"] == len(records) == 20
    reductions.clear()
    assert clean(conjecture_check(shape, chain)) == first
    assert not reductions
    record, pair = records[0]
    recorded = record[pair]
    record[pair] = recorded | {((1, 2), (1, 2))}
    assert clean(conjecture_check(shape, chain)) == first
    assert len(reductions) == 1
    assert record[pair] == recorded


def test_each_record_is_a_reduction_to_zero_over_its_divisors(monkeypatch):
    # Division over the recorded divisors alone, in the kept order, takes
    # the same steps as over the whole kept set and so leaves zero: the
    # record is a standard representation over any set that holds them.
    # A pair's record, on the entry of its second product under the first
    # one's multiset, holds its S-polynomial's reduction; a duplicate's, on
    # its own entry under None, the duplicate's own.
    windows._minor_product.cache_clear()
    shape, chain = GridShape(2, 6), WindowChain.of((1, 4), (2, 6))
    assert conjecture_check(shape, chain)["natural_gens_are_GB"]
    naturals = groebner._natural_products(shape, chain, GF, DEFAULT_CAPS)
    named = {m: g for m, g, _, _ in naturals}
    pairs = duplicates = 0
    for m, g, _, record in naturals:
        for other, divisors in record.items():
            kept = sorted((named[d] for d in divisors), key=lambda h: h.keys[-1], reverse=True)
            if other is not None:
                pairs += 1
                reduced = s_polynomial(named[other], g)
            else:
                duplicates += 1
                reduced = g
                assert m not in divisors
            assert kept and not reduce(reduced, kept)
    assert pairs > 20 and duplicates > 0


def test_certified_pairs_stay_bounded(monkeypatch):
    # Records leave with their evicted product.  A chain with more products
    # than the cache's bound evicts them, never holds more than the bound,
    # and keeps its verdict; the records went with the evicted products, so
    # a repeat reduces its S-pairs again.
    shape, chain = GridShape(2, 5), WindowChain.of((1, 5))
    windows._minor_product.cache_clear()
    unbounded = clean(conjecture_check(shape, chain))
    small = lru_cache(maxsize=5)(windows._minor_product.__wrapped__)
    monkeypatch.setattr(windows, "_minor_product", small)
    monkeypatch.setattr(groebner, "_minor_product", small)
    assert clean(conjecture_check(shape, chain)) == unbounded
    info = small.cache_info()
    assert info.currsize == 5 < info.misses
    s_pairs = []
    real = groebner._s_pair
    monkeypatch.setattr(groebner, "_s_pair", lambda *args: s_pairs.append(args) or real(*args))
    assert clean(conjecture_check(shape, chain)) == unbounded
    assert s_pairs


def test_certified_pairs_bound_holds_a_two_factor_scan_up_to_3x6():
    # The default-caps scan reads 624 products and evicts none of them, so
    # it keeps every record: 1,796 pairs and 61 duplicates.
    windows._minor_product.cache_clear()
    records = list(conjecture_scan(3, 6, 2))
    assert all("skipped" not in r for r in records)
    info = windows._minor_product.cache_info()
    assert info.misses == info.currsize == 624 < info.maxsize
    entries = {}
    for r in records:
        shape, chain = GridShape(*r["shape"]), WindowChain.of(*r["chain"])
        for m, _, _, record in groebner._natural_products(shape, chain, GF, DEFAULT_CAPS):
            entries[shape, m] = record
    keys = [other for record in entries.values() for other in record]
    assert (len(keys) - keys.count(None), keys.count(None)) == (1796, 61)


@pytest.mark.parametrize("char, digest", [(32003, "56907b7482786d91"), (0, "6625a4f94935311b")])
def test_scan_verdict_bytes_are_pinned(char, digest):
    # The 531 verdicts of the default-caps scan up to 3x6, timing dropped,
    # as the sorted-key JSON lines the CLI writes: one SHA-256 over them
    # pins every verdict, count and witness byte for byte.
    sha = hashlib.sha256()
    records = 0
    for verdict in conjecture_scan(3, 6, 2, characteristic=char):
        verdict.pop("millis", None)
        sha.update((json.dumps(verdict, sort_keys=True) + "\n").encode())
        records += 1
    assert records == 531
    assert sha.hexdigest()[:16] == digest


@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
@pytest.mark.parametrize("char", [0, 32003])
def test_anchor_pair_counts_are_the_first_betti_number(rows, cols, char):
    # The 14 classical anchors of the groebner-scan benchmark: Gebauer-Moller
    # reduces one S-pair per first syzygy of the maximal minors, m * C(n, m + 1)
    # by Eagon-Northcott, however the divisors are found.
    shape = GridShape(rows, cols)
    gens = natural_window_generators(shape, WindowChain.of((1, cols)), make_field(char))
    basis = buchberger(gens)
    recorded = {(2, 2): 0, (2, 3): 2, (2, 4): 8, (2, 5): 20, (3, 3): 0, (3, 4): 3, (3, 5): 15}
    assert basis.spairs_reduced == recorded[rows, cols] == rows * comb(cols, rows + 1)


_S = GridShape(2, 4)
_CHAIN = WindowChain.of((1, 3), (2, 4))
_F = make_field(32003)
_P = minor(_S, (1, 2), _F)


@pytest.mark.parametrize(
    "call",
    [
        lambda: buchberger(3),
        lambda: buchberger([3]),
        lambda: buchberger([_P], caps=3),
        lambda: reduce(3, []),
        lambda: reduce(_P, 3),
        lambda: reduce(_P, [None]),
        lambda: s_polynomial(3, 3),
        lambda: s_polynomial(_P, "x"),
        lambda: is_groebner_basis([3]),
        lambda: is_groebner_basis(3),
        lambda: initial_ideal([3]),
        lambda: natural_window_generators(_S, 3, _F),
        lambda: natural_window_generators(_S, _CHAIN, _F, caps=3),
        lambda: natural_window_generators(3, _CHAIN, _F),
        lambda: conjecture_check(_S, "x"),
        lambda: conjecture_check(_S, _CHAIN, caps=3),
        lambda: conjecture_check(None, _CHAIN),
        lambda: conjecture_check(_S, _CHAIN, 32003, Caps(max_natural_terms=None)),
    ],
    ids=[
        "buchberger-int", "buchberger-list", "buchberger-caps", "reduce-f", "reduce-basis",
        "reduce-element", "s-poly-int", "s-poly-string", "posthoc-list", "posthoc-int",
        "initial-list", "naturals-chain", "naturals-caps", "naturals-shape", "check-chain",
        "check-caps", "check-shape", "check-caps-none-field",
    ],
)
def test_public_entries_raise_domain_error_for_wrong_types(call):
    with pytest.raises(DomainError):
        call()


def _outcome(build, polys):
    """build(polys), or the type and text of the error it raises."""
    try:
        return build(polys)
    except DiagIdealError as exc:
        return type(exc), str(exc)


def test_initial_ideal_matches_the_leading_monomial_build():
    # The lead keys against the ideal of the checked leading monomials, on
    # the natural generator lists of the scan chains and on mixed-grid and
    # zero inputs: the same ideal, or the same error.
    def leading(polys):
        return MonomialIdeal(polys[0].shape, [g.leading_monomial for g in polys])

    inputs = []
    for shape, chain in scan_chains()[:40]:
        polys = natural_window_generators(shape, chain, GF)
        inputs += [polys, polys[::-1] + polys[:3]]
    small, large = GridShape(2, 3), GridShape(2, 4)
    f = natural_window_generators(small, WindowChain.of((1, 3)), GF)[0]
    g = natural_window_generators(large, WindowChain.of((1, 4)), GF)[0]
    zero = Polynomial.zero(small, GF)
    odd = [[f, g], [g, f], [f, zero], [zero], [f, g, zero], [zero, g]]
    inputs += odd
    for polys in inputs:
        assert _outcome(initial_ideal, polys) == _outcome(leading, polys)
    assert all(type(_outcome(initial_ideal, polys)) is tuple for polys in odd)
