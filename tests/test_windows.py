from __future__ import annotations

import random
from itertools import combinations, permutations
from math import comb

import pytest

import diagideal.windows as windows
from diagideal.caps import DEFAULT_CAPS
from diagideal.errors import (
    ChainOrderError,
    DiagIdealError,
    DomainError,
    EngineError,
    OperandTypeError,
    ResourceLimitError,
    SelectionError,
    WindowError,
)
from diagideal.fields import make_field
from diagideal.groebner import natural_window_generators
from diagideal.ideals import MonomialIdeal
from diagideal.monomials import GridMonomial, GridShape
from diagideal.polynomials import Polynomial
from diagideal.windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    diagonal_monomial,
    enumerate_diagonals,
    iter_sorted_chains,
    iter_windows,
    minor,
    selection_of,
    window_product_ideal,
)
from test_api import BAD_ARGUMENTS, ENTRIES, WINDOW_ENTRIES, swapped

QQ = make_field(0)


def test_window_validation():
    Window(1, 2)
    Window(3, 9)
    with pytest.raises(WindowError):
        Window(2, 2)
    with pytest.raises(WindowError):
        Window(0, 3)
    with pytest.raises(WindowError):
        Window(5, 3)


def test_window_against_shape():
    shape = GridShape(3, 8)
    Window(2, 6).check_against(shape)
    with pytest.raises(WindowError):
        Window(2, 9).check_against(shape)  # past the last column
    with pytest.raises(WindowError):
        Window(5, 6).check_against(shape)  # width 2 < 3 rows


def test_chain_sortedness():
    WindowChain.of((1, 3), (2, 4))
    WindowChain.of((1, 3), (1, 3))
    WindowChain.of((1, 12), (3, 13), (7, 15), (9, 16), (10, 16))
    with pytest.raises(ChainOrderError):
        WindowChain.of((3, 7), (1, 5))  # first bounds decrease
    with pytest.raises(ChainOrderError):
        WindowChain.of((2, 8), (3, 7))  # last bounds decrease
    with pytest.raises(ChainOrderError):
        WindowChain(())


def test_chain_str():
    chain = WindowChain.of((1, 3), (2, 4))
    assert str(chain) == "1,3:2,4"


# The column-taking entries of this module, each called as (shape, cols).
_BUILDERS = (diagonal_monomial, lambda shape, cols: minor(shape, cols, QQ))


def test_column_selection():
    # The one check of a column tuple, windows._columns, behind both
    # column-taking entries, and given a window.
    shape = GridShape(3, 6)
    for build in _BUILDERS:
        assert build(shape, (2, 4, 5)) == build(shape, [2, 4, 5])
        with pytest.raises(SelectionError):
            build(shape, (2, 2, 5))
        with pytest.raises(SelectionError):
            build(GridShape(2, 6), (0, 1))
        with pytest.raises(SelectionError):
            build(GridShape(2, 6), (2, 4, 5))  # wrong number of columns
        with pytest.raises(SelectionError):
            build(shape, (2, 4, 7))  # past the last column
    assert windows._columns(shape, [2, 4, 5], Window(2, 6)) == (2, 4, 5)
    with pytest.raises(SelectionError):
        windows._columns(shape, (2, 4, 5), Window(3, 6))  # col 2 outside


def test_columns_and_chains_are_stored_as_tuples():
    # A list argument is stored as a tuple, so the value hashes and equals
    # the one built from a tuple.
    w = Window(1, 3)
    assert WindowChain([w]).windows == (w,)
    assert WindowChain([w]) == WindowChain((w,))
    assert hash(WindowChain([w])) == hash(WindowChain((w,)))
    assert WindowChain.of([1, 3]) == WindowChain.of((1, 3))


@pytest.mark.parametrize("pairs", [[(1, 6), (1, 6)], ((1, 4), (2, 5)), [[1, 6], [2, 6], [3, 6]]])
def test_chain_of_names_a_list_of_pairs_passed_as_one_argument(pairs):
    # Each (first, last) pair is its own argument; a list of them passed as
    # one is a domain error that says so, not a non-integer bound.
    with pytest.raises(DomainError, match="each \\(first, last\\) pair is its own argument"):
        WindowChain.of(pairs)
    assert WindowChain.of(*pairs) == WindowChain(tuple(Window(k, l) for k, l in pairs))


def test_chain_of_keeps_the_window_error_for_a_non_integer_bound():
    with pytest.raises(WindowError, match="window bounds must be integers"):
        WindowChain.of((1.5, 3))


@pytest.mark.parametrize(
    "cols", [(1.5, 2), (1, "x"), (None,), 3], ids=["float", "str", "none", "int"]
)
def test_column_selection_rejects_non_integer_columns(cols):
    for build in _BUILDERS:
        with pytest.raises(DomainError):
            build(GridShape(2, 4), cols)


def test_diagonal_monomial_and_back():
    shape = GridShape(3, 8)
    mono = diagonal_monomial(shape, (2, 4, 5))
    assert str(mono) == "x[1,2]*x[2,4]*x[3,5]"
    assert selection_of(mono) == (2, 4, 5)
    # non-diagonal monomials give None
    assert selection_of(mono * mono) is None


def test_enumerate_diagonals_count_and_order():
    shape = GridShape(3, 8)
    window = Window(2, 6)
    diagonals = enumerate_diagonals(shape, window)
    assert len(diagonals) == comb(5, 3) == 10
    assert all(diagonals[i] > diagonals[i + 1] for i in range(9))
    assert str(diagonals[0]) == "x[1,2]*x[2,3]*x[3,4]"
    assert str(diagonals[-1]) == "x[1,4]*x[2,5]*x[3,6]"


def test_diagonal_ideal_is_window_restricted():
    shape = GridShape(2, 5)
    ideal = diagonal_ideal(shape, Window(2, 4))
    cols = {c for g in ideal.gens for c in selection_of(g)}
    assert cols <= {2, 3, 4}
    assert len(ideal.gens) == comb(3, 2)


def test_window_product_ideal():
    shape = GridShape(1, 3)
    product = window_product_ideal(shape, [Window(1, 2), Window(2, 3)])
    assert str(product) == "<x[1,1]*x[1,2], x[1,1]*x[1,3], x[1,2]^2, x[1,2]*x[1,3]>"
    assert window_product_ideal(shape, []).is_unit


def test_window_product_ideal_of_no_window_or_one():
    shape = GridShape(2, 5)
    assert window_product_ideal(shape, ()) == MonomialIdeal.unit(shape)
    for window in iter_windows(shape):
        assert window_product_ideal(shape, [window]) == diagonal_ideal(shape, window)


def _product_by_multiplication(shape, windows_):
    """The oracle: the diagonal ideals multiplied by ``MonomialIdeal.__mul__``,
    which minimalizes every partial product."""
    product = MonomialIdeal.unit(shape)
    for window in windows_:
        product = product * diagonal_ideal(shape, window)
    return product


def test_window_product_matches_ideal_multiplication():
    # Every sorted chain of one to three windows up to 3x6, every ordered
    # pair of windows on 2x5 and 3x6, unsorted and nested ones among them,
    # and the empty list, which gives the unit ideal.
    cases = [(shape, ()) for shape in (GridShape(1, 1), GridShape(3, 6))]
    for rows in range(1, 4):
        for cols in range(rows, 7):
            shape = GridShape(rows, cols)
            for length in (1, 2, 3):
                cases += [(shape, chain.windows) for chain in iter_sorted_chains(shape, length)]
    for shape in (GridShape(2, 5), GridShape(3, 6)):
        ws = list(iter_windows(shape))
        cases += [(shape, (a, b)) for a in ws for b in ws]
    assert len(cases) == 2 + 2219 + 2 * 10**2
    for shape, windows_ in cases:
        product = window_product_ideal(shape, windows_)
        assert product.keys == _product_by_multiplication(shape, windows_).keys, (shape, windows_)
    assert window_product_ideal(GridShape(3, 6), ()).is_unit


def laplace_det(entries):
    """Independent determinant oracle: first-row cofactor expansion over
    any ring whose elements support +, -, *."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = None
    for j in range(n):
        rest = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * laplace_det(rest)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def test_minor_matches_laplace_on_integer_matrices():
    # evaluate the symbolic expansion at random integer points and compare
    # against a cofactor-expansion determinant of the same numeric matrix
    rng = random.Random(20240817)
    for m, n in ((2, 3), (3, 5), (4, 6)):
        shape = GridShape(m, n)
        for _ in range(20):
            cols = tuple(sorted(rng.sample(range(1, n + 1), m)))
            poly = minor(shape, cols, QQ)
            values = {
                (i, j): rng.randrange(-9, 10)
                for i in range(1, m + 1)
                for j in range(1, n + 1)
            }
            evaluated = 0
            for mono, coeff in poly.terms:
                term = coeff
                for (i, j), e in mono.exponents.items():
                    term *= values[(i, j)] ** e
                evaluated += term
            matrix = [[values[(i, cols[j - 1])] for j in range(1, m + 1)] for i in range(1, m + 1)]
            assert evaluated == laplace_det(matrix)


def test_minor_term_count_and_leading():
    shape = GridShape(3, 4)
    p = 32003
    poly = minor(shape, (1, 2, 4), make_field(p))
    assert len(poly.terms) == 6
    assert str(poly.leading_monomial) == "x[1,1]*x[2,2]*x[3,4]"
    coeffs = [c for _, c in poly.terms]
    assert coeffs.count(1) == 3 and coeffs.count(p - 1) == 3


def test_minor_cap():
    shape = GridShape(3, 8)
    from dataclasses import replace

    tiny = replace(DEFAULT_CAPS, max_minor_rows=2)
    with pytest.raises(ResourceLimitError):
        minor(shape, (1, 2, 3), QQ, caps=tiny)


def test_minor_raises_when_the_diagonal_does_not_lead(monkeypatch):
    shape = GridShape(2, 3)
    # The expansion's lead key is checked against the diagonal's key.
    monkeypatch.setattr(windows, "_diagonal_key", lambda shape, cols: 0)
    # The lead is checked inside the cached expansion, so start it cold.
    windows._minor_product.cache_clear()
    try:
        with pytest.raises(EngineError):
            minor(shape, (1, 3), QQ)
        # A raise is not cached: the next call checks again.
        with pytest.raises(EngineError):
            minor(shape, (1, 3), QQ)
    finally:
        windows._minor_product.cache_clear()


def test_enumerate_diagonals_raises_when_out_of_order(monkeypatch):
    shape, window = GridShape(2, 5), Window(1, 4)
    monkeypatch.setattr(
        windows, "combinations", lambda cols, r: reversed(list(combinations(cols, r)))
    )
    windows._window_table.cache_clear()
    try:
        with pytest.raises(EngineError):
            enumerate_diagonals(shape, window)
    finally:
        windows._window_table.cache_clear()


def test_diagonal_ideal_raises_when_generators_collapse(monkeypatch):
    shape, window = GridShape(2, 5), Window(1, 4)
    # The ideal is built from the diagonal keys; one of them goes missing.
    real = MonomialIdeal._from_keys
    monkeypatch.setattr(
        MonomialIdeal, "_from_keys", classmethod(lambda cls, shape, keys: real(shape, keys[1:]))
    )
    windows._window_table.cache_clear()
    try:
        with pytest.raises(EngineError):
            diagonal_ideal(shape, window)
    finally:
        windows._window_table.cache_clear()


def test_iter_windows():
    shape = GridShape(3, 5)
    windows = list(iter_windows(shape))
    # widths 3, 4, 5 fit in 5 columns
    assert len(windows) == 3 + 2 + 1
    assert all(w.width >= 3 for w in windows)
    assert windows == sorted(windows, key=lambda w: (w.first, w.last))


def test_iter_sorted_chains_matches_brute_filter():
    shape = GridShape(2, 5)
    windows = list(iter_windows(shape))
    chains = list(iter_sorted_chains(shape, 2))
    brute = []
    for a, b in combinations(range(len(windows)), 2):
        for pair in ((windows[a], windows[b]), ((windows[b], windows[a]))):
            try:
                brute.append(WindowChain(pair))
            except ChainOrderError:
                pass
    for w in windows:
        brute.append(WindowChain((w, w)))
    assert set(chains) == set(brute)
    assert len(chains) == len(set(chains))


def test_sorted_chain_multiplicity():
    shape = GridShape(3, 8)
    singles = list(iter_sorted_chains(shape, 1))
    assert len(singles) == len(list(iter_windows(shape)))


@pytest.mark.parametrize(
    "target",
    [Window(1, 3), WindowChain.of((1, 3), (2, 4))],
    ids=["window", "chain"],
)
def test_check_against_rejects_a_non_shape(target):
    with pytest.raises(DiagIdealError):
        target.check_against(3)


_S = GridShape(2, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: minor(_S, 3, QQ),
        lambda: diagonal_monomial(_S, 3),
        lambda: diagonal_monomial(_S, None),
        lambda: diagonal_monomial(_S, (1.5, 2)),
        lambda: enumerate_diagonals(_S, [1, 3]),
        lambda: enumerate_diagonals([2, 4], Window(1, 3)),
        lambda: diagonal_ideal(_S, {}),
        lambda: diagonal_ideal([2, 4], Window(1, 3)),
        lambda: window_product_ideal(_S, [[1, 3]]),
        lambda: minor(_S, (1, 3), []),
        lambda: natural_window_generators(_S, WindowChain.of((1, 3)), []),
        lambda: windows._columns(_S, (1, 2), 3),
        lambda: windows._columns(_S, (1, 2), (1, 3)),
        lambda: WindowChain.of(3),
        lambda: WindowChain.of((1,)),
        lambda: WindowChain.of((1, 3), (2, 3, 4)),
    ],
    ids=[
        "minor-cols", "diagonal-int", "diagonal-none", "diagonal-float",
        "diagonals-list-window", "diagonals-list-shape", "ideal-dict-window",
        "ideal-list-shape", "product-list-window", "minor-list-field",
        "natural-list-field", "selection-int-window", "selection-tuple-window",
        "chain-of-int", "chain-of-short-pair", "chain-of-triple",
    ],
)
def test_window_entries_raise_domain_error_for_wrong_types(call):
    with pytest.raises(DomainError):
        call()


# [None] is unhashable, so it must be rejected before any cache hashes it.
@BAD_ARGUMENTS
@pytest.mark.parametrize(
    "name, position",
    [(name, position) for name in WINDOW_ENTRIES for position in range(len(ENTRIES[name][1]))],
)
def test_window_entries_type_every_argument(name, position, bad):
    # The windows.py rows of test_api.py's package-wide table, held to more
    # than its contract: each argument in turn is swapped for a value of
    # another type, and the call, its generator run to the end, raises
    # OperandTypeError, a DomainError and a TypeError.  A swap of the
    # sample's own type is a valid argument and gives an answer.
    if type(bad) is type(ENTRIES[name][1][position]):
        swapped(name, position, bad)
    else:
        with pytest.raises(OperandTypeError):
            swapped(name, position, bad)


def _grids(max_rows: int, max_cols: int):
    return [GridShape(m, n) for m in range(1, max_rows + 1) for n in range(m, max_cols + 1)]


def test_window_keys_match_the_checked_monomials():
    # Every window of every grid up to 3x8: the diagonal keys, the gap
    # tables and the diagonal ideals built from column tuples against the
    # checked GridMonomial constructions they replace.
    for shape in _grids(3, 8):
        for window in iter_windows(shape):
            columns = list(combinations(range(window.first, window.last + 1), shape.rows))
            monomials = [diagonal_monomial(shape, cols) for cols in columns]
            assert enumerate_diagonals(shape, window) == tuple(monomials)
            table = windows._window_table(shape, window)
            assert list(table.diagonals.items()) == [(m.key, cols) for m, cols in zip(monomials, columns)]
            gaps = table.gaps
            for m in monomials:
                want, prev = [], window.first - 1
                for i, c in enumerate(selection_of(m), start=1):
                    want += [GridMonomial.variable(shape, i, b).key for b in range(prev + 1, c)]
                    prev = c
                assert gaps[m.key] == tuple(want), (shape, window, m)
            assert diagonal_ideal(shape, window) == MonomialIdeal(shape, monomials)


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_minors_match_the_checked_expansion(char):
    # Every maximal minor up to 3x6, expanded into keys, against the
    # permutation expansion through from_exponents and from_terms.
    field = make_field(char)
    for shape in _grids(3, 6):
        m = shape.rows
        for cols in combinations(range(1, shape.cols + 1), m):
            terms = []
            for perm in permutations(range(m)):
                sign = (-1) ** sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
                mono = GridMonomial.from_exponents(shape, {(i + 1, cols[perm[i]]): 1 for i in range(m)})
                terms.append((mono, sign))
            want = Polynomial.from_terms(shape, field, terms)
            got = minor(shape, cols, field)
            assert (got.keys, got.coeffs) == (want.keys, want.coeffs), (shape, cols, char)
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
