"""Polynomials over a coefficient field with grid-monomial terms.

Terms are kept sorted descending in the grid order, so the leading term is
always terms[0].  Addition merges two sorted lists; multiplying by a single
term preserves the order, which keeps division loops cheap.  Products
multiply the packed keys of terms checked where they entered, and still
raise ``DomainError`` when an exponent would pass 127.
"""

from __future__ import annotations

from .errors import DomainError, ShapeMismatchError
from .monomials import GridMonomial, GridShape, _from_key, _product


class Polynomial:
    """Immutable polynomial: ``terms`` is ((monomial, coeff), ...) descending."""

    __slots__ = ("shape", "field", "terms")

    def __init__(self, shape: GridShape, field, terms: tuple):
        self.shape = shape
        self.field = field
        self.terms = terms

    @classmethod
    def zero(cls, shape: GridShape, field) -> "Polynomial":
        return cls(shape, field, ())

    @classmethod
    def from_terms(cls, shape: GridShape, field, pairs) -> "Polynomial":
        acc = {}
        for mono, coeff in pairs:
            if mono.shape != shape:
                raise ShapeMismatchError("term monomial on wrong grid")
            c = field.add(acc.get(mono, field.zero), field.normalize(coeff))
            if field.is_zero(c):
                acc.pop(mono, None)
            else:
                acc[mono] = c
        ordered = tuple(sorted(acc.items(), key=lambda t: t[0].key, reverse=True))
        return cls(shape, field, ordered)

    @classmethod
    def constant(cls, shape: GridShape, field, value) -> "Polynomial":
        return cls.from_terms(shape, field, ((GridMonomial.unit(shape), value),))

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_monomial(self) -> GridMonomial:
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def leading_coefficient(self):
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        return self.terms[0][1]

    def _check_compatible(self, other: "Polynomial"):
        if self.shape is not other.shape and self.shape != other.shape:
            raise ShapeMismatchError("polynomials on different grids")
        if self.field is not other.field and self.field != other.field:
            raise DomainError("polynomials over different fields")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        field = self.field
        left, right = self.terms, other.terms
        merged = []
        a = b = 0
        while a < len(left) and b < len(right):
            ma, ca = left[a]
            mb, cb = right[b]
            if ma.key == mb.key:
                c = field.add(ca, cb)
                if not field.is_zero(c):
                    merged.append((ma, c))
                a += 1
                b += 1
            elif ma.key > mb.key:
                merged.append(left[a])
                a += 1
            else:
                merged.append(right[b])
                b += 1
        merged.extend(left[a:])
        merged.extend(right[b:])
        return Polynomial(self.shape, field, tuple(merged))

    def __neg__(self) -> "Polynomial":
        field = self.field
        return Polynomial(
            self.shape, field, tuple((m, field.neg(c)) for m, c in self.terms)
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def times_term(self, mono: GridMonomial, coeff) -> "Polynomial":
        """Multiply by a single term; descending order is preserved."""
        shape = self.shape
        if mono.shape is not shape and mono.shape != shape:
            raise ShapeMismatchError("term monomial on wrong grid")
        field = self.field
        coeff = field.normalize(coeff)
        if field.is_zero(coeff):
            return Polynomial.zero(shape, field)
        q = mono.key
        return Polynomial(
            shape,
            field,
            tuple(
                (_from_key(shape, _product(m.key, q, shape)), field.mul(c, coeff))
                for m, c in self.terms
            ),
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        shape = self.shape
        field = self.field
        right = [(m.key, c) for m, c in other.terms]
        acc = {}
        for ma, ca in self.terms:
            for kb, cb in right:
                k = _product(ma.key, kb, shape)
                c = field.add(acc.get(k, field.zero), field.mul(ca, cb))
                if field.is_zero(c):
                    acc.pop(k, None)
                else:
                    acc[k] = c
        ordered = sorted(acc.items(), reverse=True)
        return Polynomial(shape, field, tuple((_from_key(shape, k), c) for k, c in ordered))

    def monic(self) -> "Polynomial":
        if self.is_zero or self.terms[0][1] == 1:
            return self
        inv = self.field.invert(self.leading_coefficient)
        return Polynomial(
            self.shape,
            self.field,
            tuple((m, self.field.mul(c, inv)) for m, c in self.terms),
        )

    # -- identity / text ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.shape, self.field, self.terms))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, (mono, coeff) in enumerate(self.terms):
            cst = str(coeff)
            negative = cst.startswith("-")
            mag = cst[1:] if negative else cst
            if mono.is_unit:
                body = mag
            elif mag == "1":
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"
