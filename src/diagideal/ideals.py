"""Monomial ideals in canonical form.

An ideal is represented by its unique minimal generating set, listed in
descending grid order.  The zero ideal has an empty list; the unit ideal is
generated by 1.  All operations return canonical ideals, so equality is plain
generator-list identity.

Minimalization runs on packed keys, mask first: the variables among the
candidates are picked out by a bit test (``_variables``), one mask AND
against them drops their multiples before any degree is taken, and only the
survivors are grouped by degree (``_by_degree``, one modulo per key when
the degrees are small) and filtered against the lower degrees kept, one
``_undivided`` call per degree.
Products and colons build their candidates as keys (``_product``,
``_colons``) from generators checked where they entered, so a candidate
becomes a ``GridMonomial`` only if it survives.
"""

from __future__ import annotations

from .errors import DomainError, FormatError, ShapeMismatchError
from .monomials import (
    GridMonomial,
    GridShape,
    _by_degree,
    _colons,
    _divides,
    _from_key,
    _product,
    _undivided,
    _variable_mask,
    _variables,
    parse_monomial,
)


def minimal_generators(shape: GridShape, monomials) -> tuple:
    """Minimal generating set of the ideal the monomials generate.

    Each generator is checked to be a monomial on ``shape``; duplicates and
    multiples of other generators are then dropped on the packed keys.  The
    variables among them are found by a bit test, and a single mask AND
    drops their multiples before any degree is computed.  A divisor has
    strictly smaller degree (equal-degree divisibility means equality), so
    the survivors are taken degree by degree: the lowest degree is kept
    whole, and each later one is scanned against the keys kept below it.
    Quadratic in the worst case, which is fine at the few-thousand-generator
    scale the caps allow.
    """
    keys = []
    for g in monomials:
        if not isinstance(g, GridMonomial):
            raise DomainError(f"not a monomial: {g!r}")
        if g.shape != shape:
            raise ShapeMismatchError(f"generator on wrong grid: {g!r}")
        keys.append(g.key)
    return _minimal_keys(shape, keys)


def _minimal_keys(shape: GridShape, keys) -> tuple:
    """``minimal_generators`` on keys already known to lie on ``shape``."""
    keys = set(keys)
    if 0 in keys:
        # 1 divides every candidate, the variables included.
        return (_from_key(shape, 0),)
    variables = _variables(keys, shape)
    mask = _variable_mask(variables)
    by_degree = _by_degree([k for k in keys if not k & mask], shape)
    degrees = sorted(by_degree)
    # Distinct keys of one degree never divide each other, and no variable
    # divides what is left, so the lowest degree is kept whole.
    kept = by_degree[degrees[0]] if degrees else []
    for degree in degrees[1:]:
        kept += _undivided(by_degree[degree], kept, shape)
    kept += variables
    kept.sort(reverse=True)
    return tuple(_from_key(shape, k) for k in kept)


class MonomialIdeal:
    """A monomial ideal held in canonical (minimal, sorted) form."""

    __slots__ = ("shape", "gens")

    def __init__(self, shape: GridShape, gens):
        self.shape = shape
        self.gens = minimal_generators(shape, gens)

    @classmethod
    def _from_keys(cls, shape: GridShape, keys) -> "MonomialIdeal":
        """The ideal of candidate keys built from already checked monomials."""
        ideal = object.__new__(cls)
        ideal.shape = shape
        ideal.gens = _minimal_keys(shape, keys)
        return ideal

    @classmethod
    def zero(cls, shape: GridShape) -> "MonomialIdeal":
        return cls(shape, ())

    @classmethod
    def unit(cls, shape: GridShape) -> "MonomialIdeal":
        return cls(shape, (GridMonomial.unit(shape),))

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def is_generated_by_variables(self) -> bool:
        """True when every minimal generator has degree 1 (vacuous if zero)."""
        return all(g.degree == 1 for g in self.gens)

    def generator_degrees(self) -> tuple:
        return tuple(sorted({g.degree for g in self.gens}))

    def single_generation_degree(self):
        """The common generator degree, or None if mixed or zero."""
        degrees = self.generator_degrees()
        return degrees[0] if len(degrees) == 1 else None

    def _check_monomial(self, monomial: GridMonomial, where: str):
        if not isinstance(monomial, GridMonomial):
            raise DomainError(f"not a monomial: {monomial!r}")
        if monomial.shape != self.shape:
            raise ShapeMismatchError(f"{where} on wrong grid")

    def contains(self, monomial: GridMonomial) -> bool:
        """Membership: some minimal generator divides the monomial."""
        self._check_monomial(monomial, "membership test")
        return any(_divides(g.key, monomial.key, self.shape) for g in self.gens)

    # -- algebra -----------------------------------------------------------

    def _check_shape(self, other: "MonomialIdeal"):
        if not isinstance(other, MonomialIdeal):
            raise DomainError(f"not a monomial ideal: {other!r}")
        if self.shape != other.shape:
            raise ShapeMismatchError("ideals on different grids")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_shape(other)
        return MonomialIdeal._from_keys(self.shape, [g.key for g in self.gens + other.gens])

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_shape(other)
        shape = self.shape
        right = [h.key for h in other.gens]
        products = [_product(g.key, h, shape) for g in self.gens for h in right]
        return MonomialIdeal._from_keys(shape, products)

    def colon(self, f: GridMonomial) -> "MonomialIdeal":
        """(self : f), generated by g/gcd(g, f) over the generators g."""
        self._check_monomial(f, "colon divisor")
        shape = self.shape
        return MonomialIdeal._from_keys(shape, _colons([g.key for g in self.gens], f.key, shape))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.shape == other.shape and self.gens == other.gens

    def __hash__(self):
        return hash((self.shape, self.gens))

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    # -- text ----------------------------------------------------------------

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"

    def __repr__(self):
        return f"MonomialIdeal({self.shape.rows}x{self.shape.cols}, {self})"


def _split_generators(inner: str) -> list[str]:
    # Split on commas at bracket depth 0 only; variable names carry
    # commas of their own (x[1,2]).
    parts: list[str] = []
    depth = 0
    start = 0
    for pos, char in enumerate(inner):
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(inner[start:pos])
            start = pos + 1
    parts.append(inner[start:])
    return parts


def parse_ideal(shape: GridShape, text: str) -> MonomialIdeal:
    """Parse the ``<gen, gen, ...>`` text form (canonicalizes on load)."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise FormatError(f"ideal text must be wrapped in <...>, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return MonomialIdeal.zero(shape)
    gens = [parse_monomial(shape, part) for part in _split_generators(inner)]
    return MonomialIdeal(shape, gens)
