from __future__ import annotations

import random

import pytest

from diagideal.errors import DomainError, FormatError, ShapeMismatchError
from diagideal.ideals import parse_ideal
from diagideal.monomials import (
    MAX_EXPONENT,
    GridMonomial,
    GridShape,
    _colon,
    _colons,
    _colons_and_variables,
    _degree,
    _key_text,
    _lcm_all,
    _radical,
    _row_minima,
    _variable_mask,
    _variables,
    parse_monomial,
)


def test_shape_validation():
    GridShape(1, 1)
    GridShape(3, 8)
    with pytest.raises(DomainError):
        GridShape(0, 3)
    with pytest.raises(DomainError):
        GridShape(4, 3)
    with pytest.raises(DomainError):
        GridShape(2, 0)


def test_shape_helpers():
    shape = GridShape(2, 3)
    assert shape.variable_count == 6
    assert shape.contains(1, 1) and shape.contains(2, 3)
    assert not shape.contains(3, 1) and not shape.contains(0, 2)
    assert list(shape.variables()) == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridMonomial.unit(3),
        lambda: GridMonomial.variable(3, 1, 1),
        lambda: GridMonomial.from_exponents(3, {}),
    ],
    ids=["unit", "variable", "from-exponents"],
)
def test_constructors_reject_a_non_shape(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridMonomial.variable(GridShape(2, 3), 1, 2.5),
        lambda: GridMonomial.variable(GridShape(2, 3), 1, "x"),
        lambda: GridMonomial.variable(GridShape(2, 3), 1, [None]),
        lambda: GridMonomial.variable(GridShape(2, 3), None, 1),
        lambda: GridMonomial.from_exponents(GridShape(2, 3), [((1, 1), 1)]),
        lambda: GridMonomial.from_exponents(GridShape(2, 3), {(1,): 1}),
        lambda: GridMonomial.from_exponents(GridShape(2, 3), {1: 1}),
        lambda: GridMonomial.from_exponents(GridShape(2, 3), {(1, 1.0): 1}),
        lambda: GridMonomial.from_exponents(GridShape(2, 3), {(1, 1): 1.0}),
        lambda: GridShape(2, 3).contains(1, "x"),
    ],
    ids=[
        "variable-float", "variable-str", "variable-list", "variable-none-row",
        "mapping-list", "key-short", "key-int", "key-float", "exponent-float", "contains-str",
    ],
)
def test_variables_are_checked_before_use(call):
    # The mapping, each (row, col) key and each exponent are checked before
    # any is hashed, unpacked, compared or used as an index.
    with pytest.raises(DomainError):
        call()


def test_unit_and_variable():
    shape = GridShape(2, 2)
    one = GridMonomial.unit(shape)
    assert one.is_unit and one.degree == 0 and str(one) == "1"
    x11 = GridMonomial.variable(shape, 1, 1)
    assert x11.degree == 1 and str(x11) == "x[1,1]"
    with pytest.raises(DomainError):
        GridMonomial.variable(shape, 3, 1)


def test_multiplication_and_exact_division():
    shape = GridShape(2, 3)
    a = parse_monomial(shape, "x[1,1]*x[2,2]")
    b = parse_monomial(shape, "x[1,1]*x[2,3]")
    prod = a * b
    assert str(prod) == "x[1,1]^2*x[2,2]*x[2,3]"
    assert prod / a == b
    with pytest.raises(DomainError):
        a / b


def test_divides_matches_exponentwise_definition():
    shape = GridShape(2, 2)
    monos = [
        GridMonomial(shape, exps)
        for exps in [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 3), (1, 1, 1, 1), (0, 2, 0, 1)]
    ]
    for a in monos:
        for b in monos:
            expected = all(x <= y for x, y in zip(a.exps, b.exps))
            assert a.divides(b) == expected


def test_gcd_lcm_colon():
    shape = GridShape(1, 3)
    a = parse_monomial(shape, "x[1,1]^2*x[1,2]")
    b = parse_monomial(shape, "x[1,1]*x[1,2]^3*x[1,3]")
    assert str(a.gcd(b)) == "x[1,1]*x[1,2]"
    assert str(a.lcm(b)) == "x[1,1]^2*x[1,2]^3*x[1,3]"
    # colon divides out the shared part only
    assert str(a.colon(b)) == "x[1,1]"
    assert str(b.colon(a)) == "x[1,2]^2*x[1,3]"


def test_order_is_lex_on_row_major_ranks():
    shape = GridShape(2, 2)
    x11 = GridMonomial.variable(shape, 1, 1)
    x12 = GridMonomial.variable(shape, 1, 2)
    x21 = GridMonomial.variable(shape, 2, 1)
    x22 = GridMonomial.variable(shape, 2, 2)
    assert x11 > x12 > x21 > x22
    # lex: any power of an earlier variable beats later variables
    assert x11 > x12 * x21 * x22
    assert x11 * x22 > x12 * x21
    assert x11 == x11 and not x11 < x11
    assert x12 < x11 and x12 != x11


def test_cross_shape_comparison_rejected():
    a = GridMonomial.unit(GridShape(2, 2))
    b = GridMonomial.unit(GridShape(2, 3))
    for op in (
        lambda: a < b,
        lambda: a <= b,
        lambda: a > b,
        lambda: a >= b,
        lambda: a * b,
    ):
        with pytest.raises(ShapeMismatchError):
            op()


def test_parse_rejects_garbage():
    shape = GridShape(2, 2)
    for bad in ("", "y[1,1]", "x[1,1)*x[2,2]", "x[0,1]", "x[1,3]", "x[1,1]^"):
        with pytest.raises((FormatError, DomainError)):
            parse_monomial(shape, bad)


def test_parse_str_round_trip():
    shape = GridShape(3, 4)
    texts = ["1", "x[1,1]", "x[2,3]^4", "x[1,2]*x[2,3]*x[3,4]", "x[1,1]^2*x[3,4]^3"]
    for text in texts:
        assert str(parse_monomial(shape, text)) == text


def test_support_and_squarefree():
    shape = GridShape(2, 2)
    m = parse_monomial(shape, "x[1,1]*x[2,2]")
    assert m.is_squarefree and m.support() == ((1, 1), (2, 2))
    assert not (m * m).is_squarefree


def test_exponent_bound_is_127():
    shape = GridShape(1, 2)
    top = GridMonomial(shape, (MAX_EXPONENT, 0))
    assert MAX_EXPONENT == 127
    assert top.exps == (127, 0) and top.degree == 127
    assert top.divides(top)
    assert str(top) == "x[1,1]^127"
    for bad in ((128, 0), (0, 200), (-1, 0), (1.5, 0)):
        with pytest.raises(DomainError):
            GridMonomial(shape, bad)
    with pytest.raises(DomainError):
        GridMonomial.from_exponents(shape, {(1, 1): 100, (1, 2): 128})


def test_product_past_the_bound_raises():
    shape = GridShape(1, 2)
    a = parse_monomial(shape, "x[1,1]^64*x[1,2]")
    b = parse_monomial(shape, "x[1,1]^63")
    assert (a * b).exps == (127, 1)
    with pytest.raises(DomainError):
        a * a


def test_parse_rejects_exponent_above_bound():
    shape = GridShape(1, 2)
    assert parse_monomial(shape, "x[1,1]^100*x[1,1]^27").exps == (127, 0)
    for bad in ("x[1,1]^128", "x[1,1]^200", "x[1,1]^100*x[1,1]^28", "x[1,2]^99999999999999999999"):
        with pytest.raises(FormatError):
            parse_monomial(shape, bad)
    # An exponent past the 8-bit field must be refused, not wrapped into a
    # wrong divisibility answer that leaves the ideal unminimized.
    with pytest.raises(FormatError):
        parse_ideal(shape, "<x[1,1]^200, x[1,1]^100>")
    ideal = parse_ideal(shape, "<x[1,1]^127, x[1,1]^100>")
    assert str(ideal) == "<x[1,1]^100>"


def test_equal_keys_on_different_grids_differ():
    a = parse_monomial(GridShape(2, 3), "x[1,2]^3*x[2,1]")
    b = GridMonomial(GridShape(1, 6), a.exps)
    assert a.exps == b.exps and hash(a) == hash(b)
    assert a != b and len({a, b}) == 2


def test_variables_keeps_exactly_the_degree_one_keys():
    shape = GridShape(3, 8)
    keep = ["x[1,1]", "x[2,4]", "x[3,8]"]
    drop = ["x[1,1]^2", "x[2,4]^64", "x[3,8]^127", "x[1,2]*x[2,3]", "1"]
    keys = [parse_monomial(shape, t).key for t in keep + drop]
    # x^2 and x^64 are single bits too, but not the low bit of their byte.
    assert [bin(k).count("1") for k in keys[3:5]] == [1, 1]
    assert _variables(keys, shape) == keys[:3]
    assert _variables(keys[::-1], shape) == keys[:3][::-1]
    tiny = GridShape(1, 1)
    tiny_keys = [parse_monomial(tiny, t).key for t in ("x[1,1]^2", "1", "x[1,1]", "x[1,1]^127")]
    assert _variables(tiny_keys, tiny) == [1]
    rng = random.Random(11)
    picks = (0, 0, 0, 0, 1, 2, 64, MAX_EXPONENT)
    sample = [
        GridMonomial(shape, tuple(rng.choice(picks) for _ in range(24))).key for _ in range(200)
    ] + [GridMonomial.variable(shape, i, j).key for i, j in shape.variables()]
    assert _variables(sample, shape) == [k for k in sample if _degree(k, shape) == 1]


def test_radical_is_the_squarefree_support():
    # Every exponent pattern of 0, 1 and 127 on a 1x4 grid, and the edges on
    # larger grids: each nonzero byte becomes 1, each zero byte stays 0.
    from itertools import product

    cases = [(GridShape(1, 4), e) for e in product((0, 1, MAX_EXPONENT), repeat=4)]
    for shape in (GridShape(1, 1), GridShape(3, 8)):
        n = shape.variable_count
        cases += [(shape, (0,) * n), (shape, (1,) * n), (shape, (MAX_EXPONENT,) * n)]
    for shape, exps in cases:
        radical = GridMonomial(shape, tuple(min(e, 1) for e in exps)).key
        assert _radical(GridMonomial(shape, exps).key, shape) == radical, exps


def test_row_minima_take_the_first_occupied_column_of_each_row():
    # Random exponent tuples with empty rows, single entries and exponents
    # up to 127, on one-row and four-row grids among others: each row adds
    # x[i,j] for its smallest column j with a positive exponent, or nothing.
    rng = random.Random(34)
    picks = (0, 0, 0, 1, 2, 64, 126, MAX_EXPONENT)
    shapes = [GridShape(1, n) for n in (1, 2, 7, 16)] + [GridShape(4, n) for n in (4, 9, 16)]
    shapes += [GridShape(2, 5), GridShape(3, 8)]
    checked = 0
    for shape in shapes:
        m, n = shape.rows, shape.cols
        dense = [(0,) * shape.variable_count, (MAX_EXPONENT,) * shape.variable_count]
        for _ in range(60):
            rows = []
            for _ in range(m):
                kind = rng.random()
                if kind < 0.2:
                    row = [0] * n
                elif kind < 0.4:
                    row = [0] * n
                    row[rng.randrange(n)] = rng.choice(picks[3:])
                else:
                    row = [rng.choice(picks) for _ in range(n)]
                rows += row
            dense.append(tuple(rows))
        expected = []
        for exps in dense:
            mapping = {}
            for i in range(m):
                row = exps[i * n : (i + 1) * n]
                firsts = [j for j, e in enumerate(row, start=1) if e]
                if firsts:
                    mapping[(i + 1, firsts[0])] = 1
            expected.append(GridMonomial.from_exponents(shape, mapping).key)
        keys = [GridMonomial(shape, e).key for e in dense]
        assert _row_minima(keys, shape) == expected, shape
        checked += len(keys)
    assert _row_minima([], GridShape(2, 3)) == []
    assert checked == 62 * len(shapes)


def test_lcm_all_is_the_bytewise_max():
    rng = random.Random(13)
    picks = (0, 0, 1, 2, 63, 64, 126, MAX_EXPONENT)
    for shape in (GridShape(1, 1), GridShape(2, 5), GridShape(3, 8)):
        n = shape.variable_count
        dense = [tuple(rng.choice(picks) for _ in range(n)) for _ in range(12)]
        for size in (1, 2, 12):
            keys = [GridMonomial(shape, e).key for e in dense[:size]]
            top = tuple(map(max, zip(*dense[:size])))
            assert _lcm_all(keys, shape) == GridMonomial(shape, top).key
        assert _lcm_all([], shape) == 0


def test_colons_is_colon_over_a_list():
    rng = random.Random(12)
    picks = (0, 0, 1, 2, 63, 64, 126, MAX_EXPONENT)
    for shape in (GridShape(1, 1), GridShape(2, 5), GridShape(3, 8)):
        n = shape.variable_count
        dense = [tuple(rng.choice(picks) for _ in range(n)) for _ in range(40)]
        keys = [GridMonomial(shape, e).key for e in dense]
        for ef in dense[:5] + [(0,) * n, (MAX_EXPONENT,) * n]:
            f = GridMonomial(shape, ef).key
            colons = _colons(keys, f, shape)
            assert colons == [_colon(k, f, shape) for k in keys]
            assert colons == [
                GridMonomial(shape, tuple(max(a - b, 0) for a, b in zip(e, ef))).key for e in dense
            ]
        assert _colons([], keys[0], shape) == []


def test_colons_and_variables_is_colons_with_first_variable_indices():
    # The fused pass returns _colons(keys, f) and, in first-seen order, each
    # colon that _variables keeps mapped to its first index in the colons.
    rng = random.Random(31)
    for shape in (GridShape(1, 1), GridShape(2, 5), GridShape(3, 8)):
        n = shape.variable_count
        for _ in range(20):
            ef = tuple(rng.choice((0, 0, 1, 2, 64)) for _ in range(n))
            dense = []
            for _ in range(30):
                # f times a variable, its square, two variables, or nothing,
                # mixed with keys that f does not divide.
                e = list(ef) if rng.random() < 0.7 else [rng.choice((0, 1, 3)) for _ in range(n)]
                for _ in range(rng.choice((0, 1, 1, 1, 2))):
                    e[rng.randrange(n)] += rng.choice((1, 1, 2))
                dense.append(tuple(min(x, MAX_EXPONENT) for x in e))
            keys = [GridMonomial(shape, e).key for e in dense]
            f = GridMonomial(shape, ef).key
            colons, firsts = _colons_and_variables(keys, f, shape)
            assert colons == _colons(keys, f, shape)
            variables = dict.fromkeys(_variables(colons, shape))
            assert list(firsts.items()) == [(v, colons.index(v)) for v in variables]
        assert _colons_and_variables([], f, shape) == ([], {})


def test_colons_skips_the_keys_that_meet_the_mask():
    # _colons(keys, f, shape, skip) is _colons of the keys that miss skip,
    # in order; skip 0 keeps every key.
    rng = random.Random(23)
    picks = (0, 0, 0, 1, 2, 64, MAX_EXPONENT)
    for shape in (GridShape(1, 1), GridShape(2, 5), GridShape(3, 8)):
        n = shape.variable_count
        keys = [GridMonomial(shape, tuple(rng.choice(picks) for _ in range(n))).key for _ in range(60)]
        variables = [GridMonomial.variable(shape, i, j).key for i, j in shape.variables()]
        for f in keys[:4] + [0]:
            for count in range(min(n, 4) + 1):
                skip = _variable_mask(rng.sample(variables, count))
                kept = [k for k in keys if not k & skip]
                assert _colons(keys, f, shape, skip) == _colons(kept, f, shape)
            assert _colons(keys, f, shape, 0) == _colons(keys, f, shape)
        # A mask of every variable skips every key but the unit's.
        every = _variable_mask(variables)
        assert _colons(keys + [0], keys[0], shape, every) == [0] * (keys.count(0) + 1)


def test_key_text_round_trips_through_the_parser():
    shape = GridShape(2, 3)
    rng = random.Random("key-text")
    assert _key_text(shape, 0) == "1"
    for _ in range(50):
        exps = tuple(rng.choice((0, 0, 1, 2, MAX_EXPONENT)) for _ in range(6))
        mono = GridMonomial(shape, exps)
        text = _key_text(shape, mono.key)
        assert text == str(mono)
        assert parse_monomial(shape, text) == mono
    assert _key_text(shape, GridMonomial(shape, (2, 0, 0, 0, 1, 0)).key) == "x[1,1]^2*x[2,2]"
