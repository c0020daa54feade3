from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

from diagideal.errors import DomainError, OperandTypeError
from diagideal.fields import _MR_BASES, _MR_PREFIXES, PrimeField, RationalField, _Field, is_prime, make_field
from diagideal.groebner import conjecture_check
from diagideal.monomials import GridMonomial, GridShape
from diagideal.polynomials import Polynomial
from diagideal.resolution import betti
from diagideal.windows import Window, WindowChain, diagonal_ideal


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(32003)
    assert is_prime((1 << 61) - 1)
    assert not is_prime(32001)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_matches_a_sieve():
    # Below 2,047 one base decides, then two, then three: a sieve to 10^5
    # covers the first three prefixes.
    limit = 100_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def _strong_probable_prime(n: int, a: int) -> bool:
    """Does odd n pass the Miller-Rabin round of base a?"""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# The least strong pseudoprime to each prefix of the bases, factored.
STRONG_PSEUDOPRIMES = {
    2_047: (23, 89),
    1_373_653: (829, 1657),
    25_326_001: (2251, 11251),
    3_215_031_751: (151, 751, 28351),
    2_152_302_898_747: (6763, 10627, 29947),
    3_474_749_660_383: (1303, 16927, 157543),
    341_550_071_728_321: (10670053, 32010157),
    3_825_123_056_546_413_051: (149491, 747451, 34233211),
}


@pytest.mark.parametrize("bound, t", _MR_PREFIXES)
def test_each_base_prefix_stops_at_its_least_strong_pseudoprime(bound, t):
    # Each bound is composite and passes every round of its prefix, so the
    # prefix alone would call it prime; is_prime, which takes a longer
    # prefix from the bound on, reads it composite.
    assert prod(STRONG_PSEUDOPRIMES[bound]) == bound
    assert all(_strong_probable_prime(bound, a) for a in _MR_BASES[:t])
    assert not is_prime(bound)
    assert sorted(STRONG_PSEUDOPRIMES) == [bound for bound, _ in _MR_PREFIXES]


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


@pytest.mark.parametrize("char", [0, 2, 7, 32003])
@pytest.mark.parametrize("value", ["x", "3", None, 2.5, [None]], ids=["x", "digit", "none", "float", "list"])
def test_normalize_and_invert_take_only_ints_and_fractions(char, value):
    # A string or a float is refused, never parsed or truncated: 2.5 is not
    # read as 2 in GF(7), where 5/2 is 6.
    field = make_field(char)
    for method in (field.normalize, field.invert):
        with pytest.raises(OperandTypeError, match=r"not a field coefficient \(int or Fraction\)"):
            method(value)


@pytest.mark.parametrize("char", [0, 2, 7, 32003])
def test_invert_takes_ints_and_fractions(char):
    field = make_field(char)
    for value in (3, Fraction(5, 3), -1):
        inverse = field.invert(value)
        assert field.mul(field.normalize(value), inverse) == field.one
    with pytest.raises(DomainError):
        field.invert(Fraction(0))


@pytest.mark.parametrize("char", [0.0, Fraction(0)], ids=["float", "fraction"])
def test_make_field_takes_only_an_integer_characteristic(char):
    # 0.0 == 0 and Fraction(0) == 0, yet neither names a field: the
    # rationals are not reported as characteristic 0.0.
    shape = GridShape(2, 4)
    with pytest.raises(DomainError, match="not a characteristic"):
        make_field(char)
    with pytest.raises(DomainError):
        betti(diagonal_ideal(shape, Window(1, 4)), char)
    with pytest.raises(DomainError):
        conjecture_check(shape, WindowChain.of((1, 4)), characteristic=char)


def test_per_operation_methods_take_and_return_field_elements():
    QQ, GF = make_field(0), make_field(7)
    assert QQ.add(1, 2) == 3 and type(QQ.add(1, 2)) is Fraction
    assert GF.neg(Fraction(1, 2)) == 3  # 1/2 is 4 mod 7
    assert GF.mul(Fraction(1, 2), 2) == 1 and GF.sub(2, 5) == 4
    assert QQ.is_zero(Fraction(0)) and not GF.is_zero(Fraction(1, 2))
    for call in (
        lambda: QQ.mul("ab", 2),
        lambda: GF.mul(2.5, 2),
        lambda: GF.add("3", 1),
        lambda: QQ.neg(None),
        lambda: GF.is_zero("0"),
        lambda: GF.sub(1, Fraction(1, 7)),
    ):
        with pytest.raises(DomainError):
            call()


def test_field_classes_share_one_body():
    # The operations, zero, one, equality and hashing are defined once, on
    # _Field; each field class keeps only what differs between the fields.
    def methods(cls):
        return {name for name, value in vars(cls).items() if callable(value) or isinstance(value, property)}

    shared = {"zero", "one", "add", "sub", "mul", "neg", "is_zero", "__eq__", "__hash__"}
    assert methods(_Field) == shared
    assert methods(RationalField) == {"normalize", "invert", "__repr__"}
    assert methods(PrimeField) == {"__init__", "normalize", "invert", "__repr__"}
    assert vars(PrimeField(7))["characteristic"] == 7 and RationalField.characteristic == 0
    assert make_field(0).zero == 0 and type(make_field(0).one) is Fraction and make_field(2).one == 1
    assert RationalField() != PrimeField(7) and PrimeField(7) != 7
