"""Monomial ideals in canonical form.

An ideal is represented by its unique minimal generating set, listed in
descending grid order.  The zero ideal has an empty list; the unit ideal is
generated by 1.  All operations return canonical ideals, so equality is plain
generator-list identity.
"""

from __future__ import annotations

from .errors import DomainError, FormatError, ShapeMismatchError
from .monomials import GridMonomial, GridShape, _divides, parse_monomial


def minimal_generators(shape: GridShape, monomials) -> tuple:
    """Minimal generating set of the ideal the monomials generate.

    Duplicates and multiples of other generators are dropped.  A divisor has
    strictly smaller degree (equal-degree divisibility means equality), so
    candidates are filtered degree by degree against the survivors of lower
    degree only.  Quadratic in the worst case, which is fine at the
    few-thousand-generator scale the caps allow.
    """
    unique = {}
    for g in monomials:
        if not isinstance(g, GridMonomial):
            raise DomainError(f"not a monomial: {g!r}")
        if g.shape != shape:
            raise ShapeMismatchError(f"generator on wrong grid: {g!r}")
        unique[g.key] = g
    by_degree = {}
    for g in unique.values():
        by_degree.setdefault(g.degree, []).append(g)
    kept = []
    for degree in sorted(by_degree):
        lower = [h.key for h in kept]
        kept += [g for g in by_degree[degree] if not any(_divides(h, g.key, shape) for h in lower)]
    kept.sort(key=lambda g: g.key, reverse=True)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal held in canonical (minimal, sorted) form."""

    __slots__ = ("shape", "gens")

    def __init__(self, shape: GridShape, gens):
        self.shape = shape
        self.gens = minimal_generators(shape, gens)

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

    def contains(self, monomial: GridMonomial) -> bool:
        """Membership: some minimal generator divides the monomial."""
        if monomial.shape != self.shape:
            raise ShapeMismatchError("membership test on wrong grid")
        return any(_divides(g.key, monomial.key, self.shape) for g in self.gens)

    # -- algebra -----------------------------------------------------------

    def _check_shape(self, other: "MonomialIdeal"):
        if self.shape != other.shape:
            raise ShapeMismatchError("ideals on different grids")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_shape(other)
        return MonomialIdeal(self.shape, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_shape(other)
        products = [g * h for g in self.gens for h in other.gens]
        return MonomialIdeal(self.shape, products)

    def colon(self, f: GridMonomial) -> "MonomialIdeal":
        """(self : f), generated by g/gcd(g, f) over the generators g."""
        if f.shape != self.shape:
            raise ShapeMismatchError("colon divisor on wrong grid")
        return MonomialIdeal(self.shape, [g.colon(f) for g in self.gens])

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
