"""Exact coefficient fields: the rationals and prime fields.

Rational coefficients are ``fractions.Fraction``; prime-field coefficients
are plain ints reduced mod p.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, _require

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**62 cap;
    DomainError unless n is an integer."""
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
    for a in _MR_BASES:
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


class RationalField:
    """The rationals with arbitrary-precision Fraction arithmetic."""

    characteristic = 0

    def normalize(self, value) -> Fraction:
        return Fraction(value)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise DomainError("division by zero")
        return Fraction(1) / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p below 2**62."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < (1 << 62):
            raise DomainError(f"prime field characteristic must be in [2, 2^62), got {p!r}")
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def normalize(self, value) -> int:
        """An integer or Fraction a/b as a residue: a * b^-1 mod p."""
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DomainError(f"{value} has no value mod {self.p}: denominator divisible by p")
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise DomainError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def make_field(characteristic: int):
    """Field of the given characteristic: 0 gives the rationals."""
    if characteristic == 0:
        return RationalField()
    return PrimeField(characteristic)
