"""Polynomial operators against an independent dict accumulation.

``Polynomial.from_terms`` sums terms in a dict with the field's own
methods; the operators under test run the sorted-key merge
``polynomials._add_multiple``.  Both must give the same canonical terms.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diagideal.errors import DomainError
from diagideal.fields import make_field
from diagideal.monomials import GridMonomial, GridShape
from diagideal.polynomials import Polynomial
from property_suites import _SMALL_SHAPES, _random_sparse_polynomial

CASES_PER_CHAR = 300


def _random_multiplier(rng: random.Random, shape: GridShape, field):
    exps = {}
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(list(shape.variables()))
        exps[v] = exps.get(v, 0) + 1
    coeff = rng.randint(-9, 9)
    if field.characteristic == 0 and rng.random() < 0.5:
        coeff = Fraction(coeff, rng.randint(1, 9))
    return GridMonomial.from_exponents(shape, exps), coeff


def _inverse(field, c):
    if field.characteristic:
        return pow(c, -1, field.characteristic)
    return 1 / Fraction(c)


@pytest.mark.parametrize("char", [0, 7, 32003])
def test_operators_match_dict_accumulation(char):
    field = make_field(char)
    rng = random.Random(f"polynomial-operators/{char}")
    for _ in range(CASES_PER_CHAR):
        shape = rng.choice(_SMALL_SHAPES)
        f = _random_sparse_polynomial(rng, shape, field)
        g = _random_sparse_polynomial(rng, shape, field)
        if rng.random() < 0.3:
            # Overlapping terms with some sums cancelling to zero.
            g = Polynomial.from_terms(shape, field, g.terms + tuple((m, -c) for m, c in f.terms[1:]))
        mono, coeff = _random_multiplier(rng, shape, field)

        def oracle(pairs):
            return Polynomial.from_terms(shape, field, pairs).terms

        assert (f + g).terms == oracle(f.terms + g.terms)
        assert (f - g).terms == oracle(f.terms + tuple((m, -c) for m, c in g.terms))
        assert (f - f).is_zero
        assert (-f).terms == oracle((m, -c) for m, c in f.terms)
        assert f.times_term(mono, coeff).terms == oracle((m * mono, c * coeff) for m, c in f.terms)
        inv = _inverse(field, f.leading_coefficient) if f.terms else 1
        assert f.monic().terms == oracle((m, c * inv) for m, c in f.terms)
        assert (f * g).terms == oracle((a * b, c * d) for a, c in f.terms for b, d in g.terms)


def _term_texts(f: Polynomial) -> str:
    """The text of f joined from its terms' monomials, as ``str(monomial)``
    writes them: the reference that ``str`` on keys must match."""
    if f.is_zero:
        return "0"
    parts = []
    for mono, coeff in f.terms:
        text = str(coeff)
        negative = text.startswith("-")
        mag = text.lstrip("-")
        body = mag if mono.is_unit else str(mono) if mag == "1" else f"{mag}*{mono}"
        sign = ("-" if negative else "") if not parts else ("- " if negative else "+ ")
        parts.append(sign + body)
    return " ".join(parts)


@pytest.mark.parametrize("char", [0, 7])
def test_str_matches_the_monomial_texts(char):
    # Constant terms, coefficients of 1 and -1, fractions and residues.
    field = make_field(char)
    rng = random.Random(f"polynomial-str/{char}")
    shape = GridShape(2, 3)
    unit = GridMonomial.unit(shape)
    texts = set()
    for _ in range(200):
        f = _random_sparse_polynomial(rng, shape, field)
        mono, coeff = _random_multiplier(rng, shape, field)
        f = f + Polynomial.from_terms(shape, field, [(mono, coeff), (unit, rng.randint(-2, 2))])
        assert str(f) == _term_texts(f)
        texts.add(str(f))
    assert str(Polynomial.zero(shape, field)) == "0"
    assert any(t.endswith((" + 1", " - 1")) for t in texts)
    assert any(t.startswith("x[") for t in texts)
    f = Polynomial.from_terms(
        shape, field, [(GridMonomial.from_exponents(shape, {(1, 1): 2}), -3), (unit, -1)]
    )
    assert str(f) == ("-3*x[1,1]^2 - 1" if char == 0 else "4*x[1,1]^2 + 6")


def test_times_term_overflow_names_the_first_overflowing_term():
    shape = GridShape(1, 3)
    x11, x12, x13 = (GridMonomial.variable(shape, 1, j) for j in (1, 2, 3))
    f = Polynomial.from_terms(
        shape, make_field(7), [(x11 * x11, 1), (x11 * x12, 2), (x12 * x12, 3), (x13, 4)]
    )
    mono = GridMonomial.from_exponents(shape, {(1, 2): 127})
    with pytest.raises(DomainError) as err:
        f.times_term(mono, 5)
    assert str(err.value) == "x[1,1]*x[1,2] * x[1,2]^127 has an exponent above 127"
    # A zero coefficient adds no term, so no exponent is checked.
    assert f.times_term(mono, 7).is_zero
    with pytest.raises(DomainError) as err:
        f.times_term(GridMonomial.from_exponents(shape, {(1, 3): 127}), 1)
    assert str(err.value) == "x[1,3] * x[1,3]^127 has an exponent above 127"


def test_product_overflow_names_the_first_overflowing_term_pair():
    # The left terms ascend, and each one's pairs are checked only when its
    # product with the right's bytewise max passes 127: x[1,2] passes with
    # every right term, and x[1,1]^100 overflows with x[1,1]^28, not with
    # x[1,2]^3, which comes first.
    shape = GridShape(1, 2)
    field = make_field(7)
    x11_100, x11_28, x12_3 = (
        GridMonomial.from_exponents(shape, {cell: e})
        for cell, e in (((1, 1), 100), ((1, 1), 28), ((1, 2), 3))
    )
    f = Polynomial.from_terms(shape, field, [(x11_100, 1), (GridMonomial.variable(shape, 1, 2), 1)])
    g = Polynomial.from_terms(shape, field, [(x11_28, 1), (x12_3, 1)])
    with pytest.raises(DomainError) as err:
        f * g
    assert str(err.value) == "x[1,1]^100 * x[1,1]^28 has an exponent above 127"
    with pytest.raises(DomainError) as err:
        g * f
    assert str(err.value) == "x[1,1]^28 * x[1,1]^100 has an exponent above 127"


_SHAPE = GridShape(1, 2)
_F = make_field(7)
_X11 = GridMonomial.variable(_SHAPE, 1, 1)
_P = Polynomial.from_terms(_SHAPE, _F, [(_X11, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: _P + 3,
        lambda: _P * 3,
        lambda: _P - "x",
        lambda: _P.times_term(3, 1),
        lambda: Polynomial.zero(3, 3),
        lambda: Polynomial.zero(_SHAPE, 3),
        lambda: Polynomial.constant(3, _F, 1),
        lambda: Polynomial.from_terms(_SHAPE, _F, [(3, 1)]),
        lambda: Polynomial.from_terms(_SHAPE, _F, [(_X11, 2.5)]),
        lambda: Polynomial.from_terms(_SHAPE, _F, 3),
        lambda: Polynomial.constant(_SHAPE, _F, 2.9),
        lambda: Polynomial.constant(_SHAPE, _F, "3"),
        lambda: _P.times_term(_X11, "x"),
        lambda: _P.times_term(_X11, None),
        lambda: Polynomial.from_terms(_SHAPE, make_field(0), [(_X11, 1)]).times_term(_X11, None),
        lambda: Polynomial.from_terms(_SHAPE, _F, [3]),
        lambda: Polynomial.from_terms(_SHAPE, _F, [(GridMonomial.unit(_SHAPE),)]),
        lambda: Polynomial(_SHAPE, make_field(0), "x", (1,)),
        lambda: Polynomial(_SHAPE, _F, (1 << 16,), (1,)),
        lambda: Polynomial(_SHAPE, _F, (128,), (1,)),
        lambda: Polynomial(_SHAPE, _F, (-1,), (1,)),
        lambda: Polynomial(_SHAPE, _F, (256, 1), (1, 1)),
        lambda: Polynomial(_SHAPE, _F, (1, 256), (1,)),
        lambda: Polynomial(_SHAPE, _F, (1,), (0,)),
        lambda: Polynomial(_SHAPE, _F, (1,), (7,)),
        lambda: Polynomial(_SHAPE, make_field(0), (1,), (1,)),
        lambda: Polynomial(3, _F, (1,), (1,)),
        lambda: Polynomial(_SHAPE, 7, (1,), (1,)),
    ],
    ids=[
        "add", "mul", "sub", "times-term", "zero", "zero-no-field", "constant", "from-terms",
        "float-coefficient", "terms-not-iterable", "float-constant", "string-constant",
        "string-coefficient", "none-coefficient", "none-coefficient-char-0",
        "term-not-a-pair", "term-without-coefficient", "string-keys", "key-off-the-grid",
        "key-with-guard-bit", "negative-key", "descending-keys", "fewer-coefficients",
        "zero-coefficient", "unreduced-coefficient", "int-coefficient-char-0", "int-shape",
        "int-field",
    ],
)
def test_wrong_type_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
