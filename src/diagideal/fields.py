"""Exact coefficient fields: the rationals and prime fields.

Rational coefficients are ``fractions.Fraction``; prime-field coefficients
are plain ints reduced mod p.  No floating point anywhere.

Library loops (polynomial merges and products, minor signs, the exact rank)
work on these values with plain ``+``, ``-``, ``*`` and one ``% p``, and
call a field only for ``one``, to ``normalize`` input and to ``invert``.
Those two take only an ``int`` or a ``Fraction`` and raise
``OperandTypeError`` (a ``DomainError`` and a ``TypeError``) for anything
else, a string or a float included; every coefficient enters through them.
The per-operation methods ``add``, ``sub``, ``mul``, ``neg`` and
``is_zero`` stay for the public API and for the traced benchmark, which
counts them; no library loop calls them.  They normalize their operands
first, so they take what ``normalize`` takes and return field elements.

``is_prime`` is Miller-Rabin with the fewest of the first twelve prime
bases that is proven exact below n: the bound of each prefix is the least
strong pseudoprime to all of its bases (Pomerance, Selfridge and Wagstaff,
Math. Comp. 35, 1980; Jaeschke, Math. Comp. 61, 1993).  The field
characteristics in use, such as 32003, need two bases.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, _require

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, t): below bound the first t bases decide primality exactly.  Each
# bound is the least strong pseudoprime to those t bases; the first seven
# and the first eight share theirs, and so do the first nine to eleven.
_MR_PREFIXES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**62 cap: the
    shortest prefix of ``_MR_BASES`` proven exact below n, all twelve bases
    from 3,825,123,056,546,413,051 on; DomainError unless n is an
    integer."""
    _require(n, int, "integer")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = next((_MR_BASES[:t] for bound, t in _MR_PREFIXES if n < bound), _MR_BASES)
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _element(value) -> None:
    """OperandTypeError unless value is an int or a Fraction: the one type
    check of a coefficient entering a field."""
    _require(value, (int, Fraction), "field coefficient (int or Fraction)")


class RationalField:
    """The rationals with arbitrary-precision Fraction arithmetic."""

    characteristic = 0

    def normalize(self, value) -> Fraction:
        _element(value)
        return Fraction(value)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return self.normalize(a) + self.normalize(b)

    def sub(self, a, b):
        return self.normalize(a) - self.normalize(b)

    def mul(self, a, b):
        return self.normalize(a) * self.normalize(b)

    def neg(self, a):
        return -self.normalize(a)

    def invert(self, a):
        a = self.normalize(a)
        if a == 0:
            raise DomainError("division by zero")
        return 1 / a

    def is_zero(self, a) -> bool:
        return self.normalize(a) == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p below 2**62."""

    def __init__(self, p: int):
        _require(p, int, "prime field characteristic")
        if not 2 <= p < (1 << 62):
            raise DomainError(f"prime field characteristic must be in [2, 2^62), got {p!r}")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def normalize(self, value) -> int:
        """An integer or Fraction a/b as a residue: a * b^-1 mod p."""
        _element(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DomainError(f"{value} has no value mod {self.p}: denominator divisible by p")
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (self.normalize(a) + self.normalize(b)) % self.p

    def sub(self, a, b):
        return (self.normalize(a) - self.normalize(b)) % self.p

    def mul(self, a, b):
        return self.normalize(a) * self.normalize(b) % self.p

    def neg(self, a):
        return -self.normalize(a) % self.p

    def invert(self, a):
        a = self.normalize(a)
        if a == 0:
            raise DomainError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return self.normalize(a) == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def make_field(characteristic: int):
    """Field of the given characteristic: 0 gives the rationals."""
    _require(characteristic, int, "characteristic")
    if characteristic == 0:
        return RationalField()
    return PrimeField(characteristic)
