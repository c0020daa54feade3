from __future__ import annotations

import random
from functools import reduce
from operator import or_

import pytest

import diagideal.monomials as monomials

from diagideal.caps import load_caps_file, parse_caps_text
from diagideal.errors import DomainError, FormatError, ShapeMismatchError
from diagideal.ideals import (
    MonomialIdeal,
    minimal_generators,
    parse_ideal,
)
from diagideal.monomials import GridMonomial, GridShape, _by_degree, _degree, parse_monomial
from diagideal.quotients import quotient_chain, verify_product_colons
from diagideal.resolution import _divisor_complex
from diagideal.windows import (
    WindowChain,
    enumerate_diagonals,
    iter_sorted_chains,
    window_product_ideal,
)


def gens(shape, *texts):
    return [parse_monomial(shape, t) for t in texts]


def test_minimal_generators_drops_multiples_and_duplicates():
    shape = GridShape(1, 3)
    raw = gens(
        shape,
        "x[1,1]",
        "x[1,1]^2",
        "x[1,1]*x[1,2]",
        "x[1,2]*x[1,3]",
        "x[1,2]*x[1,3]",
        "x[1,2]^2*x[1,3]",
    )
    kept = minimal_generators(shape, raw)
    assert [str(m) for m in kept] == ["x[1,1]", "x[1,2]*x[1,3]"]


def test_minimal_generators_matches_naive_filter():
    shape = GridShape(2, 3)
    pool = [
        parse_monomial(shape, t)
        for t in (
            "x[1,1]*x[2,2]", "x[1,1]*x[2,3]", "x[1,2]*x[2,3]",
            "x[1,1]^2*x[2,2]", "x[1,2]*x[2,2]*x[2,3]", "x[2,1]",
            "x[2,1]*x[1,3]", "x[1,3]^2", "x[1,3]^3",
        )
    ]
    kept = minimal_generators(shape, pool)
    naive = sorted(
        {
            m
            for m in pool
            if not any(o != m and o.divides(m) for o in pool)
        },
        reverse=True,
    )
    assert list(kept) == naive
    # idempotent
    assert list(minimal_generators(shape, kept)) == list(kept)


def test_minimalization_mixes_variables_powers_duplicates_and_degrees():
    # Variables and their high powers, a duplicate, a lowest surviving
    # degree with no variable in it, and multiples at degrees 3, 4 and 5.
    shape = GridShape(2, 4)
    texts = (
        "x[1,1]", "x[2,4]",
        "x[1,1]^2", "x[2,4]^127", "x[1,3]^2", "x[1,3]^64*x[2,1]", "x[1,1]*x[2,3]",
        "x[1,2]*x[2,3]", "x[1,2]*x[2,3]", "x[1,2]*x[2,2]",
        "x[1,4]*x[2,1]*x[2,2]", "x[1,4]^2*x[2,1]^2",
        "x[1,2]*x[2,2]*x[2,3]", "x[1,2]^2*x[2,2]^2", "x[1,2]*x[1,3]^2*x[2,3]^2",
        "x[1,4]*x[2,1]*x[2,2]*x[2,3]^2",
    )

    def naive(pool):
        return sorted(
            {m for m in pool if not any(o != m and o.divides(m) for o in pool)}, reverse=True
        )

    pool = gens(shape, *texts)
    kept = minimal_generators(shape, pool)
    assert list(kept) == naive(pool)
    assert [str(m) for m in kept] == [
        "x[1,1]", "x[1,2]*x[2,2]", "x[1,2]*x[2,3]", "x[1,3]^2",
        "x[1,4]^2*x[2,1]^2", "x[1,4]*x[2,1]*x[2,2]", "x[2,4]",
    ]
    no_variables = [m for m in pool if m.degree > 1]
    assert list(minimal_generators(shape, no_variables)) == naive(no_variables)


# Exponent ceilings whose bytes are all low bits (2^j - 1), so every key
# under a ceiling ORs into it, and the pool's OR is the ceiling itself.
MODULO_CEILINGS = [
    (GridShape(1, 2), (127, 127)),
    (GridShape(2, 4), (127, 63, 31, 15, 15, 3, 0, 0)),
    (GridShape(3, 8), (0,) * 10 + (63, 63, 63, 63) + (1,) * 2 + (0,) * 8),
]
FALLBACK_CEILINGS = [
    (GridShape(1, 3), (127, 127, 1)),
    (GridShape(2, 4), (127, 1, 127, 0, 3, 0, 0, 7)),
    (GridShape(3, 8), (127,) * 24),
]


def _pools(ceilings, seed):
    """Seeded pools of non-variable keys under each ceiling, the ceiling
    included, with small exponents favoured so that divisibility is common."""
    rng = random.Random(seed)
    for shape, ceiling in ceilings:
        for _ in range(4):
            pool = [GridMonomial(shape, ceiling)]
            while len(pool) < 60:
                exps = tuple(
                    min(c, rng.choice((0, 0, 1, 1, 2, 3, c))) if c else 0 for c in ceiling
                )
                if sum(exps) > 1:
                    pool.append(GridMonomial(shape, exps))
            rng.shuffle(pool)
            yield shape, pool


def _degree_255_pools():
    """Pools holding x[1,1]^127*x[1,2]^127*x[1,3], of degree 255, which is
    0 modulo 255: divided by a lower key in the first, minimal in the
    second, next to a degree-256 key (1 modulo 255) that a quadric divides."""
    shape = GridShape(2, 3)
    top = "x[1,1]^127*x[1,2]^127*x[1,3]"
    yield shape, gens(shape, top, "x[1,1]^2*x[1,3]", "x[1,2]*x[2,1]", "x[2,2]^3")
    yield shape, gens(
        shape, top, "x[1,1]^127*x[1,2]^127*x[2,1]*x[2,2]", "x[1,2]*x[2,1]", "x[2,2]^3", "x[1,3]^2"
    )


def _naive_minimal(pool):
    return sorted({m for m in pool if not any(o != m and o.divides(m) for o in pool)}, reverse=True)


def _or_degree(shape, pool):
    return _degree(reduce(or_, (m.key for m in pool)), shape)


def test_minimalization_matches_naive_filter_on_both_degree_branches():
    modulo = list(_pools(MODULO_CEILINGS, 21))
    fallback = list(_pools(FALLBACK_CEILINGS, 22))
    awkward = list(_degree_255_pools())
    assert all(_or_degree(shape, pool) == 254 for shape, pool in modulo)
    assert all(_or_degree(shape, pool) >= 255 for shape, pool in fallback + awkward)
    for shape, pool in modulo + fallback + awkward:
        kept = list(minimal_generators(shape, pool))
        assert kept == _naive_minimal(pool), (shape, [str(m) for m in pool])
        assert len(kept) < len(set(pool))
    shape, pool = awkward[0]
    assert pool[0].degree == 255 and pool[0] not in minimal_generators(shape, pool)
    shape, pool = awkward[1]
    assert pool[0] in minimal_generators(shape, pool)


def test_by_degree_groups_by_degree_on_both_branches(monkeypatch):
    degree_calls = []
    real = monomials._degree

    def counting(key, shape):
        degree_calls.append(key)
        return real(key, shape)

    monkeypatch.setattr(monomials, "_degree", counting)
    modulo = list(_pools(MODULO_CEILINGS, 21))
    fallback = list(_pools(FALLBACK_CEILINGS, 22)) + list(_degree_255_pools())
    for taken, pools in ((False, modulo), (True, fallback)):
        for shape, pool in pools:
            keys = [m.key for m in pool]
            degree_calls.clear()
            groups = _by_degree(keys, shape)
            # The OR's degree picks the branch; only the fallback takes
            # the degree of every key.
            assert len(degree_calls) == (1 + len(keys) if taken else 1)
            assert sorted(k for group in groups.values() for k in group) == sorted(keys)
            for degree, group in groups.items():
                assert all(real(k, shape) == degree for k in group)
                assert group == [k for k in keys if k in group]
    shape, pool = next(_degree_255_pools())
    assert pool[0].key in _by_degree([m.key for m in pool], shape)[255]
    assert _by_degree([], shape) == {}


def test_zero_and_unit():
    shape = GridShape(1, 2)
    zero = MonomialIdeal.zero(shape)
    unit = MonomialIdeal.unit(shape)
    assert zero.is_zero and not zero.is_unit and len(zero) == 0
    assert unit.is_unit and not unit.is_zero
    assert str(zero) == "<>" and str(unit) == "<1>"
    x1 = parse_monomial(shape, "x[1,1]")
    assert not zero.contains(x1)
    assert unit.contains(x1)


def test_membership():
    shape = GridShape(1, 3)
    ideal = MonomialIdeal(shape, gens(shape, "x[1,1]*x[1,2]", "x[1,3]^2"))
    assert ideal.contains(parse_monomial(shape, "x[1,1]*x[1,2]*x[1,3]"))
    assert ideal.contains(parse_monomial(shape, "x[1,3]^2"))
    assert not ideal.contains(parse_monomial(shape, "x[1,1]*x[1,3]"))
    assert not ideal.contains(GridMonomial.unit(shape))


def test_sum_and_product():
    shape = GridShape(1, 3)
    a = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[1,2]"))
    b = MonomialIdeal(shape, gens(shape, "x[1,2]", "x[1,3]"))
    total = a + b
    assert [str(m) for m in total.gens] == ["x[1,1]", "x[1,2]", "x[1,3]"]
    prod = a * b
    assert [str(m) for m in prod.gens] == [
        "x[1,1]*x[1,2]",
        "x[1,1]*x[1,3]",
        "x[1,2]^2",
        "x[1,2]*x[1,3]",
    ]
    zero = MonomialIdeal.zero(shape)
    assert (a * zero).is_zero
    assert (a + zero) == a
    unit = MonomialIdeal.unit(shape)
    assert (a * unit) == a


def test_colon_hand_case():
    shape = GridShape(1, 3)
    ideal = MonomialIdeal(
        shape, gens(shape, "x[1,1]^2", "x[1,1]*x[1,2]", "x[1,3]^3")
    )
    f = parse_monomial(shape, "x[1,1]")
    quotient = ideal.colon(f)
    assert [str(m) for m in quotient.gens] == ["x[1,1]", "x[1,2]", "x[1,3]^3"]
    # colon by a generator contains the unit
    assert ideal.colon(parse_monomial(shape, "x[1,1]^2")).is_unit
    # colon of the zero ideal stays zero
    assert MonomialIdeal.zero(shape).colon(f).is_zero


def test_variable_generation_predicate():
    shape = GridShape(2, 2)
    variables = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[2,2]"))
    mixed = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[1,2]*x[2,1]"))
    assert variables.is_generated_by_variables
    assert not mixed.is_generated_by_variables
    assert MonomialIdeal.zero(shape).is_generated_by_variables


def test_generation_degrees():
    shape = GridShape(1, 4)
    equi = MonomialIdeal(shape, gens(shape, "x[1,1]*x[1,2]", "x[1,3]*x[1,4]"))
    assert equi.generator_degrees() == (2,)
    assert equi.single_generation_degree() == 2
    mixed = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[1,3]*x[1,4]"))
    assert mixed.generator_degrees() == (1, 2)
    assert mixed.single_generation_degree() is None


def test_equality_and_hash_ignore_input_order():
    shape = GridShape(1, 3)
    a = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[1,2]^2"))
    b = MonomialIdeal(shape, gens(shape, "x[1,2]^2", "x[1,1]", "x[1,1]*x[1,3]"))
    assert a == b and hash(a) == hash(b)


def test_shape_mismatch_rejected():
    a = MonomialIdeal.zero(GridShape(1, 2))
    b = MonomialIdeal.zero(GridShape(1, 3))
    with pytest.raises(ShapeMismatchError):
        _ = a + b


def test_loops_behind_a_boundary_skip_shape_checks(monkeypatch):
    # Generators and arguments are checked once where they enter; the
    # divisibility loops behind that check run on packed keys alone, and
    # colon and product candidates are keys until they survive.
    shape = GridShape(3, 8)
    chain = WindowChain.of((1, 5), (3, 7))
    product = window_product_ideal(shape, chain.windows)
    f = enumerate_diagonals(shape, chain.windows[0])[4]
    candidates = [g.colon(f) for g in product.gens]
    multidegree = product.gens[0].lcm(product.gens[-1])
    small = GridShape(2, 5)
    two_windows = window_product_ideal(small, WindowChain.of((1, 4), (2, 5)).windows)
    checks, colons = [], []
    real_check, real_colon = GridMonomial._check_shape, GridMonomial.colon

    def counting_check(self, other):
        checks.append(other)
        return real_check(self, other)

    def counting_colon(self, other):
        colons.append(other)
        return real_colon(self, other)

    monkeypatch.setattr(GridMonomial, "_check_shape", counting_check)
    monkeypatch.setattr(GridMonomial, "colon", counting_colon)
    colon = minimal_generators(shape, candidates)
    assert product.contains(multidegree) and not product.contains(f)
    faces = _divisor_complex(product, multidegree.key)
    entries = verify_product_colons(shape, chain)
    steps = quotient_chain(two_windows).steps
    assert product.colon(f).gens == colon
    assert checks == [] and colons == []
    assert len(colon) < len(candidates) and faces
    assert len(entries) == 10 and all(entry["equal"] for entry in entries)
    assert len(steps) == len(two_windows.gens) - 1


_SHAPE_2x3 = GridShape(2, 3)
_MONOMIAL = parse_monomial(_SHAPE_2x3, "x[1,1]*x[2,2]")
_IDEAL = MonomialIdeal(_SHAPE_2x3, [_MONOMIAL])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _IDEAL.colon("x[1,1]"),
        lambda: _IDEAL.contains(3),
        lambda: _IDEAL + 3,
        lambda: _IDEAL * 3,
        lambda: _IDEAL + _MONOMIAL,
        lambda: _MONOMIAL.divides(3),
        lambda: _MONOMIAL / 3,
        lambda: _MONOMIAL * 3,
        lambda: _MONOMIAL.gcd("x[1,1]"),
        lambda: _MONOMIAL.lcm(None),
        lambda: _MONOMIAL.colon(_IDEAL),
        lambda: _MONOMIAL < 3,
    ],
    ids=[
        "ideal-colon", "ideal-contains", "ideal-add", "ideal-mul", "ideal-add-monomial",
        "divides", "truediv", "mul", "gcd", "lcm", "monomial-colon", "lt",
    ],
)
def test_wrong_type_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_wrong_type_equality_is_false():
    assert (_MONOMIAL == 3) is False and (_IDEAL == "<x[1,1]*x[2,2]>") is False
    assert _MONOMIAL != _IDEAL and _IDEAL != _MONOMIAL


def test_variables_absorb_their_multiples():
    # A variable divides every candidate with a positive exponent at it,
    # whatever that exponent; the unit absorbs the variables too.
    shape = GridShape(1, 3)
    raw = gens(shape, "x[1,2]^2*x[1,3]", "x[1,1]^2", "x[1,2]", "x[1,2]^127", "x[1,1]^3*x[1,3]")
    assert [str(m) for m in minimal_generators(shape, raw)] == ["x[1,1]^2", "x[1,2]"]
    unit = gens(shape, "x[1,1]", "1", "x[1,2]*x[1,3]")
    assert minimal_generators(shape, unit) == (GridMonomial.unit(shape),)
    ideal = MonomialIdeal(shape, gens(shape, "x[1,1]", "x[1,2]^2"))
    assert ideal.colon(parse_monomial(shape, "x[1,1]*x[1,3]")).is_unit
    assert str(ideal.colon(parse_monomial(shape, "x[1,2]"))) == "<x[1,1], x[1,2]>"


def test_ideal_product_past_the_bound_raises():
    shape = GridShape(1, 2)
    a = MonomialIdeal(shape, gens(shape, "x[1,1]^64", "x[1,2]"))
    b = MonomialIdeal(shape, gens(shape, "x[1,1]^63"))
    assert str(a * b) == "<x[1,1]^127, x[1,1]^63*x[1,2]>"
    with pytest.raises(DomainError):
        a * a


def test_text_round_trip():
    for shape in (GridShape(1, 4), GridShape(2, 5)):
        ideals = [MonomialIdeal.zero(shape), MonomialIdeal.unit(shape)]
        for length in (1, 2):
            ideals.extend(
                window_product_ideal(shape, chain.windows)
                for chain in iter_sorted_chains(shape, length)
            )
        for ideal in ideals:
            parsed = parse_ideal(shape, str(ideal))
            assert parsed == ideal
            assert str(parsed) == str(ideal)
    assert str(MonomialIdeal.zero(GridShape(1, 2))) == "<>"
    assert str(MonomialIdeal.unit(GridShape(1, 2))) == "<1>"


def test_parse_ideal_text():
    shape = GridShape(1, 3)
    ideal = parse_ideal(shape, "<x[1,1]*x[1,2], x[1,2]^2, x[1,1]^2*x[1,2]>")
    assert [str(m) for m in ideal.gens] == ["x[1,1]*x[1,2]", "x[1,2]^2"]
    assert parse_ideal(shape, "<>").is_zero
    assert parse_ideal(shape, "<1>").is_unit
    with pytest.raises(FormatError):
        parse_ideal(shape, "x[1,1]")
    with pytest.raises((FormatError, DomainError)):
        parse_ideal(shape, "<x[9,9]>")


def test_str_is_canonical_descending():
    shape = GridShape(1, 3)
    ideal = parse_ideal(shape, "<x[1,3], x[1,1], x[1,2]>")
    assert str(ideal) == "<x[1,1], x[1,2], x[1,3]>"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_monomial(_SHAPE_2x3, None), FormatError),
        (lambda: parse_monomial(_SHAPE_2x3, 3), FormatError),
        (lambda: parse_ideal(_SHAPE_2x3, None), FormatError),
        (lambda: parse_caps_text(None), FormatError),
        (lambda: load_caps_file(None), FormatError),
        (lambda: parse_ideal(3, "<x[1,1]>"), DomainError),
    ],
    ids=["monomial-none", "monomial-int", "ideal-none", "caps-text-none", "caps-file-none",
         "ideal-non-shape"],
)
def test_text_entries_reject_wrong_type_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: MonomialIdeal(3, []),
        lambda: MonomialIdeal.zero(3),
        lambda: MonomialIdeal.unit(3),
        lambda: minimal_generators(3, []),
        lambda: minimal_generators(_SHAPE_2x3, 3),
    ],
    ids=["constructor", "zero", "unit", "minimal-generators", "minimal-generators-not-iterable"],
)
def test_ideal_entries_reject_a_non_shape(call):
    with pytest.raises(DomainError):
        call()
