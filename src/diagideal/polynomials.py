"""Polynomials over a coefficient field, and the term-list kernel that the
Groebner division shares.

A polynomial holds its terms as packed keys and coefficients, ascending in
the grid order the merge works in, so the leading term is the last;
``terms`` and ``leading_monomial`` build the descending ``GridMonomial``
view on request, and ``str`` writes each term's text from its key
(``monomials._key_text``).  Every sum is one merge, ``_add_multiple``, of ascending
keys and coefficients with c * x^q times a row of (key, coeff) pairs, in
plain ``+``, ``*`` and ``% p``: ``Polynomial._plus`` runs it for ``+``,
``-``, negation, ``times_term`` and ``monic``, and ``groebner._reduce`` for
each division step.  A shift past exponent 127 raises ``DomainError``
naming the first term, in descending order, that overflows.  Products
accumulate packed keys in a dict, again in plain ``+`` and ``*``, with one
``% p`` per term of the result; one check of each left term against the
right factor's bytewise max key stands for the overflow check of its row.
A divisor's row, its tail made monic and negated, is ``_division_row``; the
natural products are cached with theirs.  ``from_terms`` sums repeated
terms in plain ``+`` too; the field is called only to normalize input and
to invert.  ``from_terms``, ``times_term`` and the binary operators check
each operand's type and grid with ``errors._require``, the package's one
operand check; the operators then check that the fields agree.  The
public constructor checks its keys and coefficients; every library
construction goes through the unchecked ``_polynomial``, so no merge or
division loop pays for those checks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, _items, _require
from .fields import _Field
from .monomials import GridMonomial, GridShape, _from_key, _is_key, _key_text, _lcm_all, _product


def _row(shape: GridShape, keys, coeffs) -> tuple:
    """A merge row: ascending (key, coeff) pairs and the bytewise max of
    their keys, so that one product checks a whole shifted row."""
    return _lcm_all(keys, shape), tuple(zip(keys, coeffs))


def _division_row(g: "Polynomial") -> tuple:
    """The merge row of a nonzero g's tail made monic and negated: dividing
    a term c * x^q * lm(g) by g adds c * x^q times it."""
    field = g.field
    p = field.characteristic
    scale = -field.invert(g.coeffs[-1])
    if p:
        tail = [c * scale % p for c in g.coeffs[:-1]]
    else:
        tail = [c * scale for c in g.coeffs[:-1]]
    return _row(g.shape, g.keys[:-1], tail)


def _add_multiple(keys, coeffs, c, q: int, row, shape: GridShape, p: int):
    """Ascending keys and coeffs plus c * x^q * row, in one merge on keys;
    p is the field's characteristic.

    DomainError when a shifted key would pass the exponent bound.
    """
    envelope, pairs = row
    try:
        _product(envelope, q, shape)
    except DomainError:
        for k, _ in reversed(pairs):
            _product(k, q, shape)  # raises, naming the first term that overflows
        raise
    # Fractions and residues both take + and *; residues then reduce mod p.
    merged_keys, merged_coeffs = [], []
    a, n = 0, len(keys)
    for k, tc in pairs:
        k += q
        while a < n and keys[a] < k:
            merged_keys.append(keys[a])
            merged_coeffs.append(coeffs[a])
            a += 1
        s = c * tc
        if a < n and keys[a] == k:
            s += coeffs[a]
            a += 1
        if p:
            s %= p
        if not s:
            continue
        merged_keys.append(k)
        merged_coeffs.append(s)
    merged_keys += keys[a:]
    merged_coeffs += coeffs[a:]
    return merged_keys, merged_coeffs


def _polynomial(shape: GridShape, field, keys, coeffs) -> "Polynomial":
    """The polynomial of ascending keys and nonzero normalized coeffs,
    unchecked: the one builder of every library construction."""
    poly = object.__new__(Polynomial)
    poly.shape = shape
    poly.field = field
    poly.keys = tuple(keys)
    poly.coeffs = tuple(coeffs)
    return poly


class Polynomial:
    """Immutable polynomial: its terms' packed ``keys`` and ``coeffs``, ascending."""

    __slots__ = ("shape", "field", "keys", "coeffs")

    def __init__(self, shape: GridShape, field, keys=(), coeffs=()):
        """The polynomial with strictly ascending keys on the grid and as
        many coefficients, each a nonzero normalized element of the field:
        ``OperandTypeError`` for a key that is not an int or a coefficient
        that is not an int or a Fraction, then ``DomainError`` otherwise."""
        _require(shape, GridShape, "grid shape")
        _require(field, _Field, "coefficient field")
        keys, coeffs = _items(keys, int, "key"), _items(coeffs, (int, Fraction), "coefficient")
        if len(keys) != len(coeffs):
            raise DomainError(f"{len(keys)} keys but {len(coeffs)} coefficients")
        for k in keys:
            if not _is_key(k, shape):
                raise DomainError(f"not a key of the {shape.rows}x{shape.cols} grid: {k!r}")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise DomainError(f"keys must strictly ascend, got {keys!r}")
        for c in coeffs:
            n = field.normalize(c)
            if not n or type(n) is not type(c) or n != c:
                raise DomainError(f"not a nonzero normalized element of {field!r}: {c!r}")
        self.shape, self.field, self.keys, self.coeffs = shape, field, keys, coeffs

    @classmethod
    def zero(cls, shape: GridShape, field) -> "Polynomial":
        return cls.from_terms(shape, field, ())

    @classmethod
    def from_terms(cls, shape: GridShape, field, pairs) -> "Polynomial":
        _require(shape, GridShape, "grid shape")
        _require(field, _Field, "coefficient field")
        p = field.characteristic
        acc = {}
        for pair in _items(pairs, (tuple, list), "(monomial, coefficient) pair"):
            if len(pair) != 2:
                raise DomainError(f"a term must be a (monomial, coefficient) pair, got {pair!r}")
            mono, coeff = pair
            _require(mono, GridMonomial, "monomial", shape)
            c = acc.get(mono.key, 0) + field.normalize(coeff)
            if p:
                c %= p
            if c:
                acc[mono.key] = c
            else:
                acc.pop(mono.key, None)
        keys = sorted(acc)
        return _polynomial(shape, field, keys, [acc[k] for k in keys])

    @classmethod
    def constant(cls, shape: GridShape, field, value) -> "Polynomial":
        return cls.from_terms(shape, field, ((GridMonomial.unit(shape), value),))

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """((monomial, coeff), ...) in descending order."""
        pairs = zip(reversed(self.keys), reversed(self.coeffs))
        return tuple((_from_key(self.shape, k), c) for k, c in pairs)

    @property
    def is_zero(self) -> bool:
        return not self.keys

    def __bool__(self) -> bool:
        return bool(self.keys)

    @property
    def leading_monomial(self) -> GridMonomial:
        if not self.keys:
            raise DomainError("zero polynomial has no leading term")
        return _from_key(self.shape, self.keys[-1])

    @property
    def leading_coefficient(self):
        if not self.keys:
            raise DomainError("zero polynomial has no leading term")
        return self.coeffs[-1]

    def _check_compatible(self, other: "Polynomial"):
        _require(other, Polynomial, "polynomial", self.shape)
        if self.field is not other.field and self.field != other.field:
            raise DomainError("polynomials over different fields")

    # -- arithmetic -----------------------------------------------------------

    def _plus(self, c, q: int, other: "Polynomial") -> "Polynomial":
        """self + c * x^q * other, for a coefficient c of the field and a
        key q.  A zero c adds nothing, so it checks no exponent."""
        self._check_compatible(other)
        if not c:
            return self
        shape, field = self.shape, self.field
        row = _row(shape, other.keys, other.coeffs)
        keys, coeffs = _add_multiple(self.keys, self.coeffs, c, q, row, shape, field.characteristic)
        return _polynomial(shape, field, keys, coeffs)

    # The merge reduces c * coeff mod p, so plain 1 and -1 serve as c.
    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(1, 0, other)

    def __neg__(self) -> "Polynomial":
        zero = _polynomial(self.shape, self.field, (), ())
        return zero._plus(-1, 0, self)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(-1, 0, other)

    def times_term(self, mono: GridMonomial, coeff) -> "Polynomial":
        """Multiply by a single term; descending order is preserved."""
        _require(mono, GridMonomial, "monomial", self.shape)
        zero = _polynomial(self.shape, self.field, (), ())
        return zero._plus(self.field.normalize(coeff), mono.key, self)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        shape = self.shape
        p = self.field.characteristic
        envelope, right = _row(shape, other.keys, other.coeffs)
        acc = {}
        get = acc.get
        for ka, ca in zip(self.keys, self.coeffs):
            try:
                _product(ka, envelope, shape)
            except DomainError:
                for kb, _ in right:
                    _product(ka, kb, shape)  # raises, naming the first term that overflows
                raise
            for kb, cb in right:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        keys, coeffs = [], []
        for k in sorted(acc):
            c = acc[k] % p if p else acc[k]
            if c:
                keys.append(k)
                coeffs.append(c)
        return _polynomial(shape, self.field, keys, coeffs)

    def monic(self) -> "Polynomial":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = self.field.invert(self.leading_coefficient)
        return _polynomial(self.shape, self.field, (), ())._plus(inv, 0, self)

    # -- identity / text ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and (self.keys, self.coeffs) == (other.keys, other.coeffs)
        )

    def __hash__(self):
        return hash((self.shape, self.field, self.keys, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, (key, coeff) in enumerate(zip(reversed(self.keys), reversed(self.coeffs))):
            cst = str(coeff)
            negative = cst.startswith("-")
            mag = cst[1:] if negative else cst
            if not key:
                body = mag
            elif mag == "1":
                body = _key_text(self.shape, key)
            else:
                body = f"{mag}*{_key_text(self.shape, key)}"
            if k == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"
