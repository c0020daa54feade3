from __future__ import annotations

from fractions import Fraction

import pytest

from diagideal.errors import DomainError
from diagideal.fields import PrimeField, RationalField, is_prime, make_field
from diagideal.monomials import GridMonomial, GridShape
from diagideal.polynomials import Polynomial


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(32003)
    assert is_prime((1 << 61) - 1)
    assert not is_prime(32001)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


@pytest.mark.parametrize("n", ["x", None, 2.5], ids=["string", "none", "float"])
def test_is_prime_raises_domain_error_for_a_non_integer(n):
    with pytest.raises(DomainError):
        is_prime(n)


def test_rational_field_ops():
    field = RationalField()
    assert field.characteristic == 0
    half = field.normalize(Fraction(1, 2))
    assert field.add(half, half) == field.one
    assert field.mul(field.normalize(3), field.invert(field.normalize(3))) == field.one
    assert field.is_zero(field.sub(half, half))
    assert field.neg(field.one) == field.normalize(-1)
    with pytest.raises(DomainError):
        field.invert(field.zero)


def test_prime_field_ops():
    field = PrimeField(7)
    assert field.characteristic == 7
    assert field.normalize(10) == 3
    assert field.add(5, 4) == 2
    assert field.mul(3, 5) == 1
    assert field.invert(3) == 5
    assert field.neg(2) == 5
    assert field.is_zero(field.normalize(14))
    with pytest.raises(DomainError):
        field.invert(0)


def test_prime_field_normalizes_fractions():
    field = PrimeField(7)
    assert field.normalize(Fraction(1, 2)) == 4
    assert field.normalize(Fraction(-3, 5)) == field.mul(field.neg(3), field.invert(5))
    assert field.normalize(Fraction(14, 3)) == 0
    with pytest.raises(DomainError):
        field.normalize(Fraction(1, 7))
    with pytest.raises(DomainError):
        field.normalize(Fraction(3, 14))


def test_polynomial_constant_maps_fractions_into_prime_field():
    shape = GridShape(1, 2)
    half = Polynomial.constant(shape, PrimeField(7), Fraction(1, 2))
    assert half.terms == ((GridMonomial.unit(shape), 4),)
    assert Polynomial.constant(shape, PrimeField(7), Fraction(7, 2)).is_zero
    with pytest.raises(DomainError):
        Polynomial.constant(shape, PrimeField(7), Fraction(1, 14))


def test_monic_returns_self_when_already_monic():
    shape = GridShape(1, 2)
    x, y = GridMonomial.variable(shape, 1, 1), GridMonomial.variable(shape, 1, 2)
    for field, scaled in ((RationalField(), Fraction(3, 2)), (PrimeField(7), 5)):
        f = Polynomial.from_terms(shape, field, [(x, 1), (y, 3)])
        assert f.monic() is f
        g = Polynomial.from_terms(shape, field, [(x, 2), (y, 3)])
        assert g.monic().terms == ((x, 1), (y, scaled))


def test_prime_field_validation():
    with pytest.raises(DomainError):
        PrimeField(1)
    with pytest.raises(DomainError):
        PrimeField(32001)
    with pytest.raises(DomainError):
        PrimeField(1 << 62)  # too large even if prime candidates exist up there


def test_make_field():
    assert make_field(0).characteristic == 0
    assert make_field(32003).characteristic == 32003
    with pytest.raises(DomainError):
        make_field(6)
    with pytest.raises(DomainError):
        make_field(-2)


def test_field_equality_and_hash():
    assert make_field(0) == RationalField()
    assert make_field(7) == PrimeField(7)
    assert make_field(7) != make_field(11)
    assert len({make_field(0), RationalField(), PrimeField(5), make_field(5)}) == 2
