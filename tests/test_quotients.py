from __future__ import annotations

from dataclasses import replace

import pytest

import diagideal.quotients as quotients
from diagideal.caps import DEFAULT_CAPS
from diagideal.checks import iter_shapes, single_window_report
from diagideal.errors import (
    DomainError,
    EngineError,
    ResourceLimitError,
    SelectionError,
    ShapeMismatchError,
)
from diagideal.ideals import MonomialIdeal, parse_ideal
from diagideal.monomials import GridMonomial, GridShape, parse_monomial
from diagideal.quotients import (
    closed_form_colon,
    closed_form_product_colon,
    quotient_chain,
    redistribute,
    verify_product_colons,
)
from diagideal.windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    enumerate_diagonals,
    iter_sorted_chains,
    iter_windows,
    selection_of,
    window_product_ideal,
)

SHAPE_3x8 = GridShape(3, 8)
WINDOW_2_6 = Window(2, 6)

# The nine colon ideals of the ten window-(2,6) diagonals, frozen by hand.
CHAIN_2_6 = [
    "<x[3,4]>",
    "<x[3,4], x[3,5]>",
    "<x[2,3]>",
    "<x[2,3], x[3,5]>",
    "<x[2,3], x[2,4]>",
    "<x[1,2]>",
    "<x[1,2], x[3,5]>",
    "<x[1,2], x[2,4]>",
    "<x[1,2], x[1,3]>",
]


def test_quotient_chain_matches_frozen_values():
    chain = quotient_chain(diagonal_ideal(SHAPE_3x8, WINDOW_2_6))
    assert [str(step) for step in chain.steps] == CHAIN_2_6
    assert chain.certifies_linear_quotients
    assert chain.variable_counts == (0, 1, 2, 1, 2, 2, 1, 2, 2, 2)


def test_closed_form_colon_matches_frozen_values():
    diagonals = enumerate_diagonals(SHAPE_3x8, WINDOW_2_6)
    for u, expected in enumerate(CHAIN_2_6, start=1):
        closed = closed_form_colon(SHAPE_3x8, WINDOW_2_6, diagonals[u])
        assert str(closed) == expected


def test_closed_form_colon_top_generator_is_zero():
    diagonals = enumerate_diagonals(SHAPE_3x8, WINDOW_2_6)
    assert closed_form_colon(SHAPE_3x8, WINDOW_2_6, diagonals[0]).is_zero


def test_closed_form_colon_rejects_non_diagonals():
    f = parse_monomial(SHAPE_3x8, "x[1,2]*x[2,3]*x[3,4]")
    with pytest.raises(DomainError):
        closed_form_colon(SHAPE_3x8, WINDOW_2_6, f * f)
    with pytest.raises(DomainError):
        closed_form_colon(SHAPE_3x8, WINDOW_2_6, "x[1,2]*x[2,3]*x[3,4]")
    outside = parse_monomial(SHAPE_3x8, "x[1,1]*x[2,3]*x[3,4]")
    with pytest.raises((DomainError, SelectionError)):
        closed_form_colon(SHAPE_3x8, WINDOW_2_6, outside)


def test_closed_form_colon_rejects_a_diagonal_of_another_grid():
    # x[1,1]*x[2,3] is a diagonal of window (1,4) by its columns, but on 2x6.
    f = parse_monomial(GridShape(2, 6), "x[1,1]*x[2,3]")
    with pytest.raises(ShapeMismatchError):
        closed_form_colon(GridShape(2, 5), Window(1, 4), f)


def _gap_variables(shape, window, f):
    """Reference gap variables of the diagonal f, built from checked
    monomials: x[i,b] with b strictly between consecutive selected columns,
    the column before the window flooring row 1."""
    variables = []
    prev = window.first - 1
    for i, c in enumerate(selection_of(f).cols, start=1):
        variables += [GridMonomial.variable(shape, i, b) for b in range(prev + 1, c)]
        prev = c
    return MonomialIdeal(shape, variables)


def test_single_window_steps_match_the_brute_chain_and_closed_forms():
    windows = 0
    for shape in iter_shapes(3, 8):
        for window in iter_windows(shape):
            diagonals = enumerate_diagonals(shape, window)
            chain = quotient_chain(diagonal_ideal(shape, window))
            report = single_window_report(shape, window)
            assert [step["u"] for step in report["steps"]] == list(range(1, len(diagonals)))
            assert [step["brute"] for step in report["steps"]] == [str(s) for s in chain.steps]
            closed = [closed_form_colon(shape, window, f) for f in diagonals]
            assert closed == [_gap_variables(shape, window, f) for f in diagonals], (shape, window)
            assert [step["closed"] for step in report["steps"]] == [str(c) for c in closed[1:]]
            assert report["linear_quotients"] == chain.certifies_linear_quotients
            windows += 1
    assert windows > 100


def test_quotient_chain_principal_and_zero():
    shape = GridShape(1, 2)
    principal = MonomialIdeal(shape, [parse_monomial(shape, "x[1,1]")])
    chain = quotient_chain(principal)
    assert chain.steps == ()
    assert chain.certifies_linear_quotients
    with pytest.raises(DomainError):
        quotient_chain(MonomialIdeal.zero(shape))


def test_quotient_chain_detects_non_linear_quotients():
    shape = GridShape(1, 4)
    ideal = parse_ideal(shape, "<x[1,1]*x[1,2], x[1,3]*x[1,4]>")
    chain = quotient_chain(ideal)
    assert [str(step) for step in chain.steps] == ["<x[1,1]*x[1,2]>"]
    assert not chain.certifies_linear_quotients


def test_product_colon_closed_form_first_step_is_rest_product():
    shape = GridShape(3, 9)
    chain = WindowChain.of((1, 5), (3, 7))
    f = parse_monomial(shape, "x[1,1]*x[2,2]*x[3,3]")
    closed = closed_form_product_colon(shape, chain, f, 0)
    assert closed == diagonal_ideal(shape, Window(3, 7))


def test_product_colon_requires_two_windows():
    shape = GridShape(2, 4)
    f = enumerate_diagonals(shape, Window(1, 4))[0]
    with pytest.raises(DomainError):
        closed_form_product_colon(shape, WindowChain.of((1, 4)), f, 0)


def test_product_colon_checks_prefix_position():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    diagonals = enumerate_diagonals(shape, Window(1, 4))
    with pytest.raises(DomainError):
        # f is the first diagonal but claimed index is 2
        closed_form_product_colon(shape, chain, diagonals[0], 2)


def test_verify_product_colons_all_equal():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    entries = verify_product_colons(shape, chain)
    assert [entry["u"] for entry in entries] == list(range(6))
    assert all(entry["equal"] for entry in entries)
    assert entries[0]["brute"] == diagonal_ideal(shape, Window(2, 5))


def test_verify_product_colons_square_chain():
    entries = verify_product_colons(SHAPE_3x8, WindowChain.of((2, 6), (2, 6)))
    assert len(entries) == 10
    assert all(entry["equal"] for entry in entries)


def test_verify_product_colons_closed_form_is_the_public_one():
    # verify_product_colons joins cached gap-variable keys to the rest
    # product's keys; each step must equal closed_form_product_colon.
    cases = [
        (shape, chain)
        for shape in iter_shapes(3, 6)
        for chain in iter_sorted_chains(shape, 2)
    ] + [(GridShape(2, 5), chain) for chain in iter_sorted_chains(GridShape(2, 5), 3)]
    steps = 0
    for shape, chain in cases:
        diagonals = enumerate_diagonals(shape, chain.windows[0])
        entries = verify_product_colons(shape, chain)
        assert len(entries) == len(diagonals)
        for entry, f in zip(entries, diagonals):
            u = entry["u"]
            assert entry["closed"] == closed_form_product_colon(shape, chain, f, u), (shape, chain, u)
            steps += 1
    assert steps > 1000


def test_verify_product_colons_cap():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    gens = len(window_product_ideal(shape, chain.windows))
    with pytest.raises(ResourceLimitError, match=f"has {gens} generators, cap is {gens - 1}") as info:
        verify_product_colons(shape, chain, replace(DEFAULT_CAPS, max_product_gens=gens - 1))
    assert info.value.snapshot == {"chain": "1,4:2,5", "gens": gens}
    entries = verify_product_colons(shape, chain, replace(DEFAULT_CAPS, max_product_gens=gens))
    assert len(entries) == 6


def test_redistribute_single_factor_is_identity():
    shape = GridShape(2, 4)
    chain = WindowChain.of((1, 4))
    g = parse_monomial(shape, "x[1,2]*x[2,4]")
    assert redistribute(shape, chain, [g]) == [g]


def test_redistribute_equal_factors_unchanged():
    shape = GridShape(2, 4)
    chain = WindowChain.of((1, 4), (1, 4))
    g = parse_monomial(shape, "x[1,2]*x[2,4]")
    assert redistribute(shape, chain, [g, g]) == [g, g]


def test_redistribute_swaps_out_of_order_columns():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    g1 = parse_monomial(shape, "x[1,3]*x[2,4]")
    g2 = parse_monomial(shape, "x[1,2]*x[2,5]")
    h1, h2 = redistribute(shape, chain, [g1, g2])
    assert str(h1) == "x[1,2]*x[2,4]"
    assert str(h2) == "x[1,3]*x[2,5]"
    assert h1 * h2 == g1 * g2


def test_redistribute_sorts_each_row():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    g1 = parse_monomial(shape, "x[1,3]*x[2,4]")
    g2 = parse_monomial(shape, "x[1,2]*x[2,5]")
    # row 1 holds columns {3, 2}, row 2 holds {4, 5}; output j takes the
    # j-th smallest of each
    assert [str(h) for h in redistribute(shape, chain, [g1, g2])] == [
        "x[1,2]*x[2,4]",
        "x[1,3]*x[2,5]",
    ]


def test_redistribute_validates_factors():
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    inside = parse_monomial(shape, "x[1,2]*x[2,5]")
    outside = parse_monomial(shape, "x[1,1]*x[2,4]")  # not in window (2,5)
    with pytest.raises(SelectionError):
        redistribute(shape, chain, [parse_monomial(shape, "x[1,1]*x[2,3]"), outside])
    with pytest.raises(DomainError):
        redistribute(shape, chain, [parse_monomial(shape, "x[1,1]^2*x[2,2]"), inside])
    with pytest.raises(DomainError):
        redistribute(shape, chain, [inside])


@pytest.mark.parametrize(
    "outputs",
    [
        # diagonal and in their windows, but the product changed
        ["x[1,2]*x[2,4]", "x[1,2]*x[2,4]"],
        # the right product, but not diagonal monomials
        ["x[1,2]*x[1,3]", "x[2,4]*x[2,5]"],
        # the right product of diagonals, but the first is outside (1,4)
        ["x[1,3]*x[2,5]", "x[1,2]*x[2,4]"],
    ],
    ids=["product", "diagonal", "window"],
)
def test_redistribute_raises_on_construction_fault(monkeypatch, outputs):
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    factors = [
        parse_monomial(shape, "x[1,3]*x[2,4]"),
        parse_monomial(shape, "x[1,2]*x[2,5]"),
    ]
    built = iter(outputs)
    monkeypatch.setattr(
        quotients, "diagonal_monomial", lambda shape, cols: parse_monomial(shape, next(built))
    )
    with pytest.raises(EngineError):
        redistribute(shape, chain, factors)
