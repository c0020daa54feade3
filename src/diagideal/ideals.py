"""Monomial ideals in canonical form.

An ideal is represented by its unique minimal generating set, held as the
generators' packed keys (``keys``) in descending grid order.  The zero ideal
has no keys; the unit ideal has the key of 1.  All operations return
canonical ideals, so equality is plain key-tuple identity.  The constructor
is the one checked entry (``minimal_generators`` goes through it), and
``gens`` and iteration build ``GridMonomial``s only when asked.  The
constructor and the operators check each operand's type and grid with
``errors._require``, the package's one operand check.

Minimalization runs on packed keys, mask first: the variables among the
candidates are picked out by a bit test (``_variables``), one mask AND
against them drops their multiples before any degree is taken, and only the
survivors are grouped by degree (``_by_degree``, one modulo per key when
the degrees are small) and filtered against the lower degrees kept, one
``_undivided`` call per degree.
Products and colons build their candidates as keys (``_products``,
``_colons``) from keys checked where they entered.
"""

from __future__ import annotations

from .errors import FormatError, _items, _require
from .monomials import (
    GridMonomial,
    GridShape,
    _by_degree,
    _colons,
    _degree,
    _first_divisor,
    _from_key,
    _key_text,
    _products,
    _undivided,
    _variable_mask,
    _variables,
    parse_monomial,
)


def minimal_generators(shape: GridShape, monomials) -> tuple:
    """Minimal generating set of the ideal the monomials generate, descending."""
    return MonomialIdeal(shape, monomials).gens


def _minimal_keys(shape: GridShape, keys) -> tuple:
    """The minimal keys, descending, among keys known to lie on ``shape``.

    A divisor has strictly smaller degree, so the survivors of the variable
    mask are taken degree by degree, each against the keys kept below it:
    quadratic in the worst case, fine at the scale the caps allow.
    """
    keys = set(keys)
    if 0 in keys:
        # 1 divides every candidate, the variables included.
        return (0,)
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
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal in canonical form: its minimal generators' ``keys``."""

    __slots__ = ("shape", "keys")

    def __init__(self, shape: GridShape, gens):
        """The ideal the monomials gens generate, each checked to lie on shape."""
        _require(shape, GridShape, "grid shape")
        self.shape = shape
        self.keys = _minimal_keys(shape, [g.key for g in _items(gens, GridMonomial, "generator", shape)])

    @classmethod
    def _from_keys(cls, shape: GridShape, keys) -> "MonomialIdeal":
        """The ideal of candidate keys built from already checked monomials."""
        return cls._of_minimal(shape, _minimal_keys(shape, keys))

    @classmethod
    def _of_minimal(cls, shape: GridShape, keys: tuple) -> "MonomialIdeal":
        """The ideal whose minimal keys, descending, are already known."""
        ideal = object.__new__(cls)
        ideal.shape = shape
        ideal.keys = keys
        return ideal

    @classmethod
    def zero(cls, shape: GridShape) -> "MonomialIdeal":
        return cls(shape, ())

    @classmethod
    def unit(cls, shape: GridShape) -> "MonomialIdeal":
        return cls(shape, (GridMonomial.unit(shape),))

    @property
    def gens(self) -> tuple:
        """The minimal generators as monomials, descending."""
        return tuple(_from_key(self.shape, k) for k in self.keys)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.keys

    @property
    def is_unit(self) -> bool:
        return self.keys == (0,)

    @property
    def is_generated_by_variables(self) -> bool:
        """True when every minimal generator has degree 1 (vacuous if zero)."""
        return len(_variables(self.keys, self.shape)) == len(self.keys)

    def generator_degrees(self) -> tuple:
        return tuple(sorted({_degree(k, self.shape) for k in self.keys}))

    def single_generation_degree(self):
        """The common generator degree, or None if mixed or zero."""
        degrees = self.generator_degrees()
        return degrees[0] if len(degrees) == 1 else None

    def contains(self, monomial: GridMonomial) -> bool:
        """Membership: some minimal generator divides the monomial."""
        _require(monomial, GridMonomial, "monomial", self.shape)
        return _first_divisor(monomial.key, self.keys, self.shape) >= 0

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _require(other, MonomialIdeal, "monomial ideal", self.shape)
        return MonomialIdeal._from_keys(self.shape, self.keys + other.keys)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _require(other, MonomialIdeal, "monomial ideal", self.shape)
        shape = self.shape
        return MonomialIdeal._from_keys(shape, _products(self.keys, other.keys, shape))

    def colon(self, f: GridMonomial) -> "MonomialIdeal":
        """(self : f), generated by g/gcd(g, f) over the generators g."""
        _require(f, GridMonomial, "monomial", self.shape)
        return MonomialIdeal._from_keys(self.shape, _colons(self.keys, f.key, self.shape))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.shape == other.shape and self.keys == other.keys

    def __hash__(self):
        return hash((self.shape, self.keys))

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.gens)

    # -- text ----------------------------------------------------------------

    def __str__(self):
        return "<" + ", ".join(_key_text(self.shape, k) for k in self.keys) + ">"

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
    if not isinstance(text, str):
        raise FormatError(f"ideal text must be a string, got {text!r}")
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise FormatError(f"ideal text must be wrapped in <...>, got {text!r}")
    inner = text[1:-1].strip()
    parts = _split_generators(inner) if inner else []
    return MonomialIdeal(shape, [parse_monomial(shape, part) for part in parts])
