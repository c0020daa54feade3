from __future__ import annotations

import random
from dataclasses import replace
from types import MappingProxyType

import pytest

import diagideal.ideals as ideals
import diagideal.quotients as quotients
import diagideal.windows as windows
from diagideal.caps import DEFAULT_CAPS
from diagideal.checks import iter_shapes, product_chain_report, sample_product_chains, single_window_report
from diagideal.errors import (
    DomainError,
    EngineError,
    ResourceLimitError,
    SelectionError,
    ShapeMismatchError,
)
from diagideal.ideals import MonomialIdeal, parse_ideal
from diagideal.monomials import GridMonomial, GridShape, _divides, _variables, parse_monomial
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
    for i, c in enumerate(selection_of(f), start=1):
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


def _brute_colons(shape, window, keys=()):
    """``_brute_colon`` of each diagonal of the window by keys and the
    diagonals before it."""
    diagonals = [f.key for f in enumerate_diagonals(shape, window)]
    return [
        quotients._brute_colon(shape, list(keys) + diagonals[:u], f)
        for u, f in enumerate(diagonals)
    ]


# The six two-window 3x8 products with at least 700 generators: their steps
# share the most colons.
HEAVY_3x8 = [
    WindowChain.of(*bounds)
    for bounds in (
        ((1, 6), (1, 8)),
        ((1, 7), (1, 8)),
        ((1, 7), (2, 8)),
        ((1, 8), (1, 8)),
        ((1, 8), (2, 8)),
        ((1, 8), (3, 8)),
    )
]

# Nested windows, out of order as a chain: some of their steps differ from
# the closed form.
NESTED = [(GridShape(3, 8), (Window(2, 8), Window(3, 7))), (GridShape(3, 9), (Window(1, 9), Window(3, 7)))]


def _product_steps(shape, windows):
    """``_colon_steps`` of the windows' product, with the closed form of the
    first window's diagonals joined to the others' product."""
    keys = window_product_ideal(shape, windows).keys
    rest_keys = window_product_ideal(shape, windows[1:]).keys
    return list(quotients._colon_steps(shape, windows[0], keys, rest_keys))


def test_colon_steps_brute_is_the_brute_colon():
    # Each step's brute is decided from the colon's definition and is the
    # closed ideal when they agree; it must be the minimalized brute colon.
    cases = [(shape, chain.windows) for shape in iter_shapes(3, 6) for chain in iter_sorted_chains(shape, 2)]
    cases += [(GridShape(2, 5), chain.windows) for chain in iter_sorted_chains(GridShape(2, 5), 3)]
    assert all(len(window_product_ideal(SHAPE_3x8, chain.windows)) >= 700 for chain in HEAVY_3x8)
    cases += [(SHAPE_3x8, chain.windows) for chain in HEAVY_3x8] + NESTED
    checked = 0
    unequal = 0
    for shape, windows in cases:
        steps = _product_steps(shape, windows)
        keys = window_product_ideal(shape, windows).keys
        assert [b for _, b, _ in steps] == _brute_colons(shape, windows[0], keys), (shape, windows)
        checked += len(steps)
        unequal += sum(b != c for _, b, c in steps)
    for shape in iter_shapes(3, 8):
        for window in iter_windows(shape):
            steps = list(quotients._colon_steps(shape, window))
            assert [b for _, b, _ in steps] == _brute_colons(shape, window), (shape, window)
            checked += len(steps)
    assert checked > 3600
    assert unequal > 40


def test_colon_steps_build_no_closed_ideal_by_minimalization(monkeypatch):
    # The closed ideal is joined from minimal rest keys and gap variables;
    # only a step whose closed form differs minimalizes its brute colon.
    cases = [(SHAPE_3x8, chain.windows) for chain in HEAVY_3x8[:2]] + NESTED
    for shape, windows in cases:
        keys = window_product_ideal(shape, windows).keys
        rest_keys = window_product_ideal(shape, windows[1:]).keys
        calls = []
        real = ideals._minimal_keys

        def counted(shape_, keys_):
            calls.append(len(keys_))
            return real(shape_, keys_)

        with monkeypatch.context() as patch:
            patch.setattr(ideals, "_minimal_keys", counted)
            steps = list(quotients._colon_steps(shape, windows[0], keys, rest_keys))
        assert len(calls) == sum(brute != closed for _, brute, closed in steps), (shape, windows)
    assert calls  # the last nested product has steps that differ


def _recorded_steps(monkeypatch, shape, window, keys, rest_keys, scan_all=False):
    """``_colon_steps`` with the ``_is_colon`` verdict of each step.  With
    scan_all every product key is treated as unsplit: the definitional
    forward scan, the oracle of the row-minimum split."""
    verdicts = []
    real = quotients._is_colon

    def recorded(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(quotients, "_is_colon", recorded)
        if scan_all:
            patch.setattr(quotients, "_unsplit", lambda shape_, table, keys, rest_keys: list(keys))
        steps = list(quotients._colon_steps(shape, window, keys, rest_keys))
    return verdicts, steps


def _split_agrees_with_the_forward_scan(monkeypatch, cases):
    """The number of steps of the sorted chains in cases, after checking
    that every product key splits and that each step's verdict and
    reported ideals are the definitional scan's."""
    checked = 0
    for shape, chain in cases:
        windows = chain.windows
        keys = window_product_ideal(shape, windows).keys
        rest_keys = window_product_ideal(shape, windows[1:]).keys
        table = quotients._window_table(shape, windows[0])
        assert quotients._unsplit(shape, table, keys, rest_keys) == [], (shape, chain)
        certified = _recorded_steps(monkeypatch, shape, windows[0], keys, rest_keys)
        oracle = _recorded_steps(monkeypatch, shape, windows[0], keys, rest_keys, scan_all=True)
        assert certified == oracle, (shape, chain)
        assert all(certified[0]), (shape, chain)
        checked += len(certified[0])
    return checked


def test_row_minimum_split_agrees_with_the_forward_scan_on_two_windows(monkeypatch):
    cases = [(shape, chain) for shape in iter_shapes(3, 8) for chain in iter_sorted_chains(shape, 2)]
    assert len(cases) == 1806
    assert _split_agrees_with_the_forward_scan(monkeypatch, cases) > 9000


def test_row_minimum_split_agrees_with_the_forward_scan_on_three_windows(monkeypatch):
    # The whole pool that sample_product_chains draws three-window chains from.
    cases = sample_product_chains(3, 10**6, seed=0)
    assert len(cases) == 10114
    assert _split_agrees_with_the_forward_scan(monkeypatch, cases) > 40000


# Out-of-order products, the replay's negative controls among them: their
# keys do not all split.
OUT_OF_ORDER = NESTED + [
    (GridShape(3, 9), (Window(3, 7), Window(1, 5))),
    (GridShape(2, 5), (Window(2, 5), Window(1, 4))),
    (GridShape(3, 7), (Window(2, 7), Window(1, 6), Window(3, 5))),
]


def test_unsplit_keys_are_scanned_at_every_step(monkeypatch):
    unsplit = unequal = 0
    for shape, windows in OUT_OF_ORDER:
        keys = window_product_ideal(shape, windows).keys
        rest_keys = window_product_ideal(shape, windows[1:]).keys
        table = quotients._window_table(shape, windows[0])
        unsplit += len(quotients._unsplit(shape, table, keys, rest_keys))
        verdicts, steps = _recorded_steps(monkeypatch, shape, windows[0], keys, rest_keys)
        diagonals = list(table.diagonals)
        for (u, brute, closed), verdict in zip(steps, verdicts, strict=True):
            exact = quotients._brute_colon(shape, diagonals[:u] + list(keys), diagonals[u])
            assert verdict == (exact == closed), (shape, windows, u)
            assert brute == exact
            unequal += not verdict
        oracle = _recorded_steps(monkeypatch, shape, windows[0], keys, rest_keys, scan_all=True)
        assert (verdicts, steps) == oracle
    assert unsplit > 100 and unequal > 10


def test_sorted_product_steps_colon_only_the_prefix_diagonals(monkeypatch):
    # The row-minimum split certifies every product key of a sorted chain
    # once, so no step passes a product key to _colons: only the diagonals
    # before it.  An out-of-order product's unsplit keys still go through.
    cases = [(SHAPE_3x8, chain.windows, True) for chain in HEAVY_3x8[:2]]
    cases += [(GridShape(3, 7), (Window(1, 5), Window(2, 6), Window(3, 7)), True), (*NESTED[0], False)]
    for shape, windows, in_order in cases:
        table = quotients._window_table(shape, windows[0])
        keys = window_product_ideal(shape, windows).keys
        rest_keys = window_product_ideal(shape, windows[1:]).keys
        passed = []
        real = quotients._colons

        def counted(keys_, f, shape_, skip=0):
            passed.extend(keys_)
            return real(keys_, f, shape_, skip)

        with monkeypatch.context() as patch:
            patch.setattr(quotients, "_colons", counted)
            steps = list(quotients._colon_steps(shape, windows[0], keys, rest_keys))
        assert all(f in table.diagonals for f in passed) is in_order, (shape, windows)
        assert bool(set(keys).intersection(passed)) is not in_order, (shape, windows)
        if in_order:
            diagonals = len(table.diagonals)
            assert len(passed) == diagonals * (diagonals - 1) // 2
            assert all(brute == closed for _, brute, closed in steps)


def _patched_gaps(monkeypatch, shape, window, changes):
    """Make ``_window_table`` give changes[u](gaps) as the gaps of each
    diagonal u of the window in changes."""
    real = quotients._window_table
    diagonals = enumerate_diagonals(shape, window)
    targets = {diagonals[u].key: change for u, change in changes.items()}

    def window_table(shape_, window_):
        table = real(shape_, window_)
        if (shape_, window_) != (shape, window):
            return table
        gaps = table.gaps
        return table._replace(
            gaps=MappingProxyType({**gaps, **{f: change(gaps[f]) for f, change in targets.items()}})
        )

    monkeypatch.setattr(quotients, "_window_table", window_table)


# (report, shape, chain, u): a single window and two product chains, at a step
# whose closed form has at least two gap variables.
WRONG_CLOSED_CASES = [
    ("window", GridShape(3, 8), WindowChain.of((2, 6)), 4),
    ("product", GridShape(3, 8), WindowChain.of((2, 6), (2, 6)), 4),
    ("product", GridShape(2, 5), WindowChain.of((1, 4), (2, 5)), 5),
]


def _report(kind, shape, chain):
    if kind == "window":
        return single_window_report(shape, chain.windows[0])
    return product_chain_report(shape, chain)


@pytest.mark.parametrize("change", ["drop", "extra"])
@pytest.mark.parametrize("kind,shape,chain,u", WRONG_CLOSED_CASES)
def test_a_wrong_closed_form_falls_back_to_the_brute_colon(monkeypatch, change, kind, shape, chain, u):
    window = chain.windows[0]
    keys = [] if kind == "window" else [g.key for g in window_product_ideal(shape, chain.windows).gens]
    brute = _brute_colons(shape, window, keys)[u]
    gaps = quotients._window_table(shape, window).gaps[enumerate_diagonals(shape, window)[u].key]
    assert len(gaps) >= 2
    if change == "drop":
        # The closed form lacks a variable of the colon: only the forward
        # check sees it.
        _patched_gaps(monkeypatch, shape, window, {u: lambda gap: gap[1:]})
    else:
        # One more variable, outside the colon: only the reverse check sees it.
        extra = next(
            v
            for v in (GridMonomial.variable(shape, i, j) for i, j in shape.variables())
            if not brute.contains(v)
        )
        _patched_gaps(monkeypatch, shape, window, {u: lambda gap: gap + (extra.key,)})
    report = _report(kind, shape, chain)
    step = next(step for step in report["steps"] if step["u"] == u)
    assert step["equal"] is False
    assert step["brute"] == str(brute)
    assert step["closed"] != step["brute"]
    assert report["ok"] is False
    others = [s for s in report["steps"] if s["u"] != u]
    assert all(s["equal"] for s in others)


def _no_rest(closed):
    """``_is_colon``'s rest_keys and inside for a caller with no rest:
    closed's keys that are not variables, and nothing known yet."""
    variables = set(_variables(closed.keys, closed.shape))
    return tuple(k for k in closed.keys if k not in variables), set()


@pytest.mark.parametrize("kind,shape,chain,u", WRONG_CLOSED_CASES)
def test_wrong_gaps_at_two_steps_of_one_loop_stay_at_their_steps(monkeypatch, kind, shape, chain, u):
    # At step u a gap variable is dropped; at the first reported step before
    # it whose diagonal that variable divides, it is added.  The steps share what
    # they know of the rest product, never of a step's closed ideal, so
    # every step's verdict must still be the brute colon's.
    window = chain.windows[0]
    diagonals = enumerate_diagonals(shape, window)
    keys = [] if kind == "window" else window_product_ideal(shape, chain.windows).keys
    brutes = _brute_colons(shape, window, keys)
    dropped = quotients._window_table(shape, window).gaps[diagonals[u].key][0]
    # A single window's report starts at its second diagonal.
    first = 1 if kind == "window" else 0
    extra = next(t for t in range(first, u) if _divides(dropped, diagonals[t].key, shape))
    _patched_gaps(
        monkeypatch, shape, window, {u: lambda gap: gap[1:], extra: lambda gap: gap + (dropped,)}
    )
    report = _report(kind, shape, chain)
    verdicts = {}
    for step in report["steps"]:
        brute = brutes[step["u"]]
        assert step["brute"] == str(brute), step
        assert step["equal"] is (step["closed"] == str(brute)), step
        verdicts[step["u"]] = step["equal"]
    assert verdicts[u] is False
    assert extra in verdicts
    assert report["ok"] is False


def _random_key(rng, shape, top=3):
    return GridMonomial(shape, tuple(rng.choice((0, 0, 1, top)) for _ in range(shape.variable_count))).key


def test_is_colon_decides_equality_with_the_brute_colon():
    # Random ideals, divisors and candidate closed ideals: the true colon,
    # the colon with a generator dropped, with a variable or a random
    # monomial added, or a random ideal.  _is_colon must say equal exactly
    # when the minimalized brute colon is the candidate.
    rng = random.Random(20)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        shape = rng.choice((GridShape(1, 2), GridShape(1, 3), GridShape(2, 2), GridShape(2, 3)))
        ideal = [_random_key(rng, shape) for _ in range(rng.randint(0, 5))]
        split = rng.randint(0, len(ideal))
        prefix, keys = ideal[:split], ideal[split:]
        f = _random_key(rng, shape)
        colon = quotients._brute_colon(shape, ideal, f)
        gens = [g.key for g in colon.gens]
        variable = GridMonomial.variable(shape, *rng.choice(list(shape.variables()))).key
        candidates = [
            gens,
            gens[1:],
            gens + [variable],
            gens + [_random_key(rng, shape, top=1)],
            [_random_key(rng, shape) for _ in range(rng.randint(0, 3))],
        ]
        for candidate in candidates:
            closed = MonomialIdeal._from_keys(shape, candidate)
            decided = quotients._is_colon(shape, closed, f, prefix, keys, keys, set(ideal), *_no_rest(closed))
            assert decided == (closed == colon), (shape, ideal, split, f, candidate)
            verdicts[decided] += 1
    assert min(verdicts.values()) > 1000


def test_is_colon_sees_a_variable_that_divides_f():
    # A variable of the candidate that divides f neither passes a key by the
    # mask nor drops out of the divisor scan.
    shape = GridShape(1, 2)
    x2, xy, x, x3y = (
        parse_monomial(shape, t).key for t in ("x[1,1]^2", "x[1,1]*x[1,2]", "x[1,1]", "x[1,1]^3*x[1,2]")
    )
    just_x = MonomialIdeal._from_keys(shape, [x])
    # <x^2, x*y> : x = <x, y>, and (x*y) : x = y lies outside <x>.
    for prefix, keys in (([x2], [xy]), ([], [x2, xy]), ([x2, xy], [])):
        assert not quotients._is_colon(shape, just_x, x, prefix, keys, keys, {x2, xy}, *_no_rest(just_x))
    both = quotients._brute_colon(shape, [x2, xy], x)
    assert str(both) == "<x[1,1], x[1,2]>"
    assert quotients._is_colon(shape, both, x, [x2], [xy], [xy], {x2, xy}, *_no_rest(both))
    # <x^2, x^3*y> : x = <x>, and (x^3*y) : x = x^2*y is a multiple of x.
    assert quotients._brute_colon(shape, [x2, x3y], x) == just_x
    for prefix, keys in (([x2], [x3y]), ([], [x2, x3y]), ([x2, x3y], [])):
        assert quotients._is_colon(shape, just_x, x, prefix, keys, keys, {x2, x3y}, *_no_rest(just_x))


def test_is_colon_shares_only_what_lies_in_the_rest():
    # Two calls share rest_keys = (y^2,) and inside.  At the first, the
    # colon x^2 : x = x passes by the closed variable x, which divides f;
    # x does not lie in <y^2>, so the second call, whose closed ideal <y^2>
    # lacks x, must still scan it against the rest and find it outside.
    shape = GridShape(1, 2)
    x, y, x2, xy, xy2, y2, y3 = (
        parse_monomial(shape, t).key
        for t in ("x[1,1]", "x[1,2]", "x[1,1]^2", "x[1,1]*x[1,2]", "x[1,1]*x[1,2]^2", "x[1,2]^2", "x[1,2]^3")
    )
    rest = (y2,)
    first = MonomialIdeal._from_keys(shape, [x, y2])
    assert quotients._brute_colon(shape, [x2, xy2], x) == first
    second = MonomialIdeal._from_keys(shape, [y2])
    assert quotients._brute_colon(shape, [xy, y3], y) != second
    inside = set()
    assert quotients._is_colon(shape, first, x, [x2, xy2], [], [], {x2, xy2}, rest, inside)
    assert not quotients._is_colon(shape, second, y, [xy], [y3], [y3], {xy, y3}, rest, inside)
    assert not quotients._is_colon(shape, second, y, [xy], [y3], [y3], {xy, y3}, rest, set())


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
    # The cap is checked as each partial product forms: the product of the
    # windows after the first (here the 6 diagonals of (2,5)) passes a cap
    # of 5 before the full product is formed.
    shape = GridShape(2, 5)
    chain = WindowChain.of((1, 4), (2, 5))
    gens = len(window_product_ideal(shape, chain.windows))
    for cap, reached in ((gens - 1, gens), (5, 6)):
        with pytest.raises(ResourceLimitError, match=f"reached {reached} generators, cap is {cap}$") as info:
            verify_product_colons(shape, chain, replace(DEFAULT_CAPS, max_product_gens=cap))
        assert info.value.snapshot == {"chain": "1,4:2,5", "gens": reached}
    entries = verify_product_colons(shape, chain, replace(DEFAULT_CAPS, max_product_gens=gens))
    assert len(entries) == 6


@pytest.mark.parametrize(
    "shape, chain",
    [
        (GridShape(4, 16), WindowChain.of((1, 16), (1, 16))),
        (GridShape(3, 12), WindowChain.of((1, 12), (1, 12), (1, 12))),
    ],
)
def test_verify_product_colons_stops_at_the_cap(monkeypatch, shape, chain):
    # 866,320 and 572,572 generators: the raise comes while the first
    # partial product past the cap forms, one diagonal of its window at a
    # time, so at most one window's diagonals of products past it.
    cap = DEFAULT_CAPS.max_product_gens
    formed = []
    real = windows._products

    def counted(lefts, rights, shape_):
        products = real(lefts, rights, shape_)
        formed.append(len(products))
        return products

    monkeypatch.setattr(windows, "_products", counted)
    with pytest.raises(ResourceLimitError) as info:
        verify_product_colons(shape, chain)
    reached = info.value.snapshot["gens"]
    assert cap < reached <= cap + formed[-1]
    assert sum(formed) < 3 * cap


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
        quotients, "_diagonal_key", lambda shape, cols: parse_monomial(shape, next(built)).key
    )
    with pytest.raises(EngineError):
        redistribute(shape, chain, factors)


_S = GridShape(2, 5)
_CHAIN = WindowChain.of((1, 4), (2, 5))
_TOP = enumerate_diagonals(_S, Window(1, 4))[0]


@pytest.mark.parametrize(
    "call",
    [
        lambda: quotient_chain(3),
        lambda: closed_form_colon(_S, 3, _TOP),
        lambda: verify_product_colons(_S, None),
        lambda: verify_product_colons(_S, _CHAIN, 3),
        lambda: closed_form_product_colon(_S, _CHAIN, _TOP, "x"),
        lambda: closed_form_product_colon(_S, _CHAIN, _TOP, 0.0),
        lambda: closed_form_product_colon(_S, 3, _TOP, 0),
        lambda: redistribute(_S, _CHAIN, 3),
        lambda: redistribute(_S, None, []),
    ],
    ids=[
        "chain-of-int", "colon-window", "verify-chain", "verify-caps", "index-string",
        "index-float", "product-chain", "factors-int", "redistribute-chain",
    ],
)
def test_public_entries_raise_domain_error_for_wrong_types(call):
    with pytest.raises(DomainError):
        call()


def _entries(walk):
    """A walk with each V_j's insertion order, for dict-for-dict equality."""
    return None if walk is None else [list(firsts.items()) for firsts in walk]


def test_shadow_walk_matches_the_pair_walk():
    # Both kernels, called directly and so below the size gate too, give
    # the same walk, keys, first k and insertion order, on every one- and
    # two-window product up to 3x7 in its canonical order and in a seeded
    # shuffle.  Every canonical order has linear quotients; at least half
    # of the shuffles lack them.
    products = shuffled_lacking = 0
    for shape in [GridShape(r, c) for r in range(1, 4) for c in range(r, 8)]:
        for length in (1, 2):
            for chain in iter_sorted_chains(shape, length):
                keys = list(window_product_ideal(shape, chain.windows).keys)
                walk = quotients._pair_walk(keys, shape)
                assert walk is not None, (shape, chain)
                assert _entries(quotients._shadow_walk(keys, shape)) == _entries(walk), (shape, chain)
                random.Random(f"{shape}/{chain}").shuffle(keys)
                walk = quotients._pair_walk(keys, shape)
                assert _entries(quotients._shadow_walk(keys, shape)) == _entries(walk), (shape, chain)
                products += 1
                shuffled_lacking += walk is None
    assert products == 1085
    assert 2 * shuffled_lacking >= products, f"{shuffled_lacking} of {products} shuffles lack linear quotients"


def test_the_walk_takes_the_shadow_kernel_only_above_the_gate(monkeypatch):
    # Distinct keys of one degree take the shadow walk above the gate, and
    # the pair walk at or below it.
    calls = []

    def counted(kernel):
        real = getattr(quotients, kernel)

        def walk(keys, shape):
            calls.append(kernel)
            return real(keys, shape)

        monkeypatch.setattr(quotients, kernel, walk)

    counted("_pair_walk")
    counted("_shadow_walk")
    shape = GridShape(3, 7)
    keys = window_product_ideal(shape, [Window(1, 6), Window(2, 7)]).keys
    assert len(keys) > quotients._SHADOW_WALK_KEYS
    assert quotients._linear_quotients(keys, shape) is not None
    assert quotients._linear_quotients(keys[: quotients._SHADOW_WALK_KEYS], shape) is not None
    assert calls == ["_shadow_walk", "_pair_walk"]


def test_repeated_and_mixed_degree_keys_take_the_pair_walk():
    # Above the gate, repeated keys and keys of mixed degree give the pair
    # walk's answer.  A repeated key's colon is 1, so the order lacks linear
    # quotients.  Mixed degree breaks the shadow lemma: x[1,1] is every
    # later key's colon by it, but no shadow of a product key is 1.
    shape = GridShape(3, 7)
    product = window_product_ideal(shape, [Window(2, 6), Window(2, 7)])
    keys = list(product.keys)
    assert len(keys) > quotients._SHADOW_WALK_KEYS
    assert quotients._linear_quotients(keys + keys[5:6], shape) is None
    x11 = GridMonomial.variable(shape, 1, 1).key
    mixed = [x11] + keys
    walk = quotients._pair_walk(mixed, shape)
    assert walk is not None and all(x11 in firsts for firsts in walk[1:])
    assert _entries(quotients._linear_quotients(mixed, shape)) == _entries(walk)
    assert _entries(quotients._shadow_walk(mixed, shape)) != _entries(walk)
    lacking = keys + [x11]
    assert quotients._pair_walk(lacking, shape) is None
    assert quotients._linear_quotients(lacking, shape) is None


def test_walks_agree_on_a_large_product():
    shape = GridShape(3, 8)
    keys = window_product_ideal(shape, [Window(1, 8), Window(1, 8)]).keys
    assert len(keys) == 1176
    walk = quotients._linear_quotients(keys, shape)
    assert walk is not None
    assert _entries(walk) == _entries(quotients._pair_walk(keys, shape))


def test_the_walk_finishes_on_a_three_window_product_of_3x9():
    # 15,969 generators: the pair walk forms some 127 million colons here.
    shape = GridShape(3, 9)
    keys = window_product_ideal(shape, [Window(1, 7), Window(2, 8), Window(3, 9)]).keys
    assert len(keys) == 15969
    walk = quotients._linear_quotients(keys, shape)
    assert walk is not None and walk[0] == {}
    assert all(firsts for firsts in walk[1:])
