"""Monomials over a fixed m-by-n grid of variables x[i,j].

Variables are ranked row-major: x[1,1] first, then left to right along row 1,
then row 2, and so on.  Monomials compare lexicographically on their exponent
vectors read in that rank order, so x[1,1] beats any monomial avoiding it, and
within one row an earlier column wins.  Every canonical listing in the package
(ideal generators, Groebner bases, reports) is descending in this order.

A monomial is one packed integer, ``key``: one byte per variable, big-endian,
x[1,1] in the most significant byte.  The top bit of every byte is a guard
kept at zero, so each exponent lies in 0..127.  Integer order on keys is then
the grid order, a product is an integer add, an exact quotient an integer
subtract, and divisibility, gcd, lcm and colon are a few big-int operations
on the guard bits.  An exponent above 127 is rejected where it enters: the
constructor raises ``DomainError``, the text parsers ``FormatError``, and a
product whose exponent would pass 127 raises ``DomainError``.

The key helpers are the only code that knows the byte layout: ``_excess``
(bytewise max(a - b, 0)), ``_divides`` and ``_first_divisor`` (one key
against a list of divisors), ``_lookup_divisor`` (the same from a table of
divisors of one degree, by the key and its quotients by each variable),
``_undivided`` (the keys of a list that no key of another list divides, in
one loop), ``_lcm``, ``_colon`` and ``_colons`` (one key's colon of every
key in a list that misses a skip mask, in one loop),
``_colons_and_variables`` (the colons, and in the same loop the
single-variable ones with their first indices), ``_exponents`` (a key's
support variables with their exponents, read off the set bits of its
radical), ``_row_minima`` (the
variable at the smallest occupied column of each row, one row slice
each), ``_radical`` (the squarefree key of a key's support), ``_product``
(with its overflow check),
``_products`` (every product of two key lists, with one overflow check
for the lot), ``_degree`` (the byte sum, no exponent tuple), ``_by_degree``
(keys grouped by degree, by one modulo where the degrees are small),
``_variables`` (the keys that are single variables, by a bit test rather
than a degree), ``_variable_mask`` (one AND tests divisibility by any of a
set of variables), ``_variable_key`` (the key of x[i,j], so that other
modules build diagonals, gaps and minor terms as sums of keys), ``_is_key``
(does an int pack an exponent vector of the grid) and
``_key_text`` (a key's ``x[i,j]^e`` text, which ``str`` of a monomial
returns, so reports render keys with no monomial built).
The public operators check their operand's type and grid with the package's
one operand check, ``errors._require``, then call them; loops over keys whose
grid was checked where they entered call them directly.  ``variable`` and
``from_exponents`` check each (row, col) pair and exponent before use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce, total_ordering
from operator import or_

from .errors import DomainError, FormatError, _items, _require

MAX_EXPONENT = 127


@dataclass(frozen=True)
class GridShape:
    """Grid dimensions, constrained to 1 <= rows <= cols."""

    rows: int
    cols: int

    def __post_init__(self):
        _require(self.rows, int, "grid row count")
        _require(self.cols, int, "grid column count")
        if not 1 <= self.rows <= self.cols:
            raise DomainError(
                f"grid shape needs 1 <= rows <= cols, got {self.rows}x{self.cols}"
            )

    @cached_property
    def variable_count(self) -> int:
        return self.rows * self.cols

    def contains(self, i: int, j: int) -> bool:
        """Is x[i,j] on the grid; DomainError unless i and j are integers."""
        _require(i, int, "row index")
        _require(j, int, "column index")
        return 1 <= i <= self.rows and 1 <= j <= self.cols

    def variables(self):
        """All (row, col) pairs, 1-based, in rank order."""
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                yield (i, j)

    @cached_property
    def _guard(self) -> int:
        """The guard bit of every exponent byte."""
        return int.from_bytes(b"\x80" * self.variable_count, "big")

    @cached_property
    def _names(self) -> tuple:
        """The text name ``x[i,j]`` of every variable, in rank order."""
        return tuple(f"x[{i},{j}]" for i, j in self.variables())


_FACTOR_RE = re.compile(r"^x\[(\d+),(\d+)\](?:\^(\d+))?$")


def _excess(a: int, b: int, guard: int) -> int:
    """max(a - b, 0) in every byte of two packed keys.

    (a | guard) - b holds 128 + a - b in each byte with no borrow between
    bytes; its guard bit survives exactly where a >= b, and turning those
    guard bits into 0x7F masks keeps a - b there and clears the rest.
    """
    d = (a | guard) - b
    ge = d & guard
    return d & (ge - (ge >> 7))


def _divides(a: int, b: int, shape: GridShape) -> bool:
    """Does key a divide key b: is every byte of a at most b's?"""
    guard = shape._guard
    return ((b | guard) - a) & guard == guard


def _lcm(a: int, b: int, shape: GridShape) -> int:
    """The key of the lcm of keys a and b: the bytewise max."""
    return b + _excess(a, b, shape._guard)


def _lcm_all(keys, shape: GridShape) -> int:
    """The key of the lcm of all keys, 0 for none: ``_lcm`` folded over
    them with the guard read once."""
    guard = shape._guard
    lcm = 0
    for k in keys:
        lcm = k + _excess(lcm, k, guard)
    return lcm


def _first_divisor(key: int, divisors, shape: GridShape) -> int:
    """Index of the first key in the list divisors that divides key, or -1.

    ``_divides`` over a list.  An equal key earlier in the list would have
    divided first, so ``index`` finds the dividing one.
    """
    guard = shape._guard
    top = key | guard
    for d in divisors:
        if (top - d) & guard == guard:
            return divisors.index(d)
    return -1


def _lookup_divisor(key: int, firsts: dict, shape: GridShape) -> int:
    """The least index that firsts, a dict from keys all of one degree d to
    indices, gives a divisor of key, or -1 when the lookups find none.

    The lookups are key itself and key / x for every variable x dividing
    key (the set bits of ``_radical``).  A key of degree d has no divisor
    of degree d but itself, and one of degree d + 1 none but its quotients
    by a variable, so for those two degrees the result is the least index
    of every divisor in firsts.  Any other degree finds none.
    """
    i = firsts.get(key)
    if i is not None:
        return i
    guard = shape._guard
    support = (((key | guard) - (guard >> 7)) & guard) >> 7
    while support:
        x = support & -support
        support ^= x
        j = firsts.get(key - x)
        if j is not None and (i is None or j < i):
            i = j
    return -1 if i is None else i


def _undivided(keys, divisors, shape: GridShape) -> list:
    """The keys of keys that no key of the list divisors divides, in order.

    ``_first_divisor(k, divisors) < 0`` for every k, with the guard bound
    once and no index taken.  Neighbouring keys often share a divisor, so
    the one that divided the last divided key is tried first.
    """
    guard = shape._guard
    kept = []
    last = guard  # divides nothing: (k | guard) - guard = k has no guard bit
    for k in keys:
        top = k | guard
        if (top - last) & guard == guard:
            continue
        for d in divisors:
            if (top - d) & guard == guard:
                last = d
                break
        else:
            kept.append(k)
    return kept


def _colon(a: int, b: int, shape: GridShape) -> int:
    """The key of a / gcd(a, b), the generator of (<a> : b)."""
    return _excess(a, b, shape._guard)


def _colons(keys, f: int, shape: GridShape, skip: int = 0) -> list:
    """``_colon(k, f)`` for every key k of keys that does not meet the mask
    skip: ``_excess`` inlined, with the guard bound once."""
    guard = shape._guard
    colons = []
    for k in keys:
        if k & skip:
            continue
        d = (k | guard) - f
        ge = d & guard
        colons.append(d & (ge - (ge >> 7)))
    return colons


def _colons_and_variables(keys, f: int, shape: GridShape):
    """``_colons(keys, f)``, and in the same loop each colon that is a
    single variable (``_variables``' bit test) mapped to the index of its
    first occurrence, in first-seen order."""
    guard = shape._guard
    ones = guard >> 7
    colons = []
    firsts = {}
    for k in keys:
        d = (k | guard) - f
        ge = d & guard
        c = d & (ge - (ge >> 7))
        if c & ones and not c & (c - 1) and c not in firsts:
            firsts[c] = len(colons)
        colons.append(c)
    return colons, firsts


def _exponents(key: int, shape: GridShape) -> dict:
    """The support of a key with its exponents: {variable key: exponent},
    in ascending variable key.  The set bits of ``_radical`` are the
    variables, each the low bit of the byte that holds its exponent."""
    guard = shape._guard
    support = (((key | guard) - (guard >> 7)) & guard) >> 7
    exponents = {}
    while support:
        x = support & -support
        support ^= x
        exponents[x] = (key >> (x.bit_length() - 1)) & MAX_EXPONENT
    return exponents


def _row_minima(keys, shape: GridShape) -> list:
    """For each key, the key of the product over the rows of x[i,j], j the
    smallest column at which the key has a positive exponent in row i;
    a row the key misses adds nothing.

    A row is a run of cols bytes with its smallest column in the most
    significant byte, so that column's variable is the low bit of the byte
    holding the slice's top set bit.
    """
    width = 8 * shape.cols
    mask = (1 << width) - 1
    shifts = range(0, width * shape.rows, width)
    minima = []
    for k in keys:
        d = 0
        for s in shifts:
            top = ((k >> s) & mask).bit_length()
            if top:
                d += 1 << (s + ((top - 1) & -8))
        minima.append(d)
    return minima


def _radical(key: int, shape: GridShape) -> int:
    """The squarefree key of a key's support: 1 in every nonzero byte.

    (key | guard) - 1 keeps a byte's guard bit exactly where its exponent is
    at least 1; shifted down by 7, those guard bits are the 1s.
    """
    guard = shape._guard
    return (((key | guard) - (guard >> 7)) & guard) >> 7


def _product(a: int, b: int, shape: GridShape) -> int:
    """The key of a * b; DomainError when an exponent would pass 127."""
    key = a + b
    if key & shape._guard:
        raise DomainError(
            f"{_from_key(shape, a)} * {_from_key(shape, b)} has an exponent above {MAX_EXPONENT}"
        )
    return key


def _products(lefts, rights, shape: GridShape) -> list:
    """The keys a * b for a in lefts and b in rights, in that order;
    ``_product``'s DomainError, naming the first pair that overflows.

    The bytewise OR of a key list is at least each key in every byte, so
    when the ORs of the two lists sum with no guard bit set, no product
    passes 127 and none is checked on its own.
    """
    if (reduce(or_, lefts, 0) + reduce(or_, rights, 0)) & shape._guard:
        return [_product(a, b, shape) for a in lefts for b in rights]
    return [a + b for a in lefts for b in rights]


def _degree(key: int, shape: GridShape) -> int:
    """The total degree of a key: the sum of its exponent bytes."""
    return sum(key.to_bytes(shape.variable_count, "big"))


def _by_degree(keys, shape: GridShape) -> dict:
    """The keys grouped by total degree: {degree: keys of it, in order}.

    256 is 1 modulo 255, so a key is congruent to its byte sum modulo 255.
    When the bytewise OR of all the keys sums below 255, every key's byte
    sum does too, and ``k % 255`` is its degree; otherwise each degree is
    taken by ``_degree``.
    """
    union = reduce(or_, keys, 0)
    if _degree(union, shape) < 255:
        degrees = [k % 255 for k in keys]
    else:
        degrees = [_degree(k, shape) for k in keys]
    groups = {}
    for degree, k in zip(degrees, keys):
        groups.setdefault(degree, []).append(k)
    return groups


def _variables(keys, shape: GridShape) -> list:
    """The keys that are single variables, in the order given.

    A variable's key has one bit set, and that bit is the low bit of its
    byte; a power such as x^2 or x^64 is one bit elsewhere in the byte.
    """
    ones = shape._guard >> 7
    return [k for k in keys if k & ones and not k & (k - 1)]


def _variable_mask(keys) -> int:
    """A mask that meets a key exactly when one of these variables divides it.

    Each of ``keys`` is a single variable, one byte set to 1; the mask holds
    every exponent bit of those bytes, so ``key & mask`` is nonzero exactly
    when the key has a positive exponent at one of them.
    """
    support = 0
    for v in keys:
        support |= v
    return support * MAX_EXPONENT


def _variable_key(shape: GridShape, i: int, j: int) -> int:
    """The key of x[i,j], 1-based, for (i, j) known to lie on the grid:
    one byte set to 1, (i - 1) * cols + j - 1 bytes below the top."""
    return 1 << 8 * (shape.variable_count - (i - 1) * shape.cols - j)


def _is_key(key, shape: GridShape) -> bool:
    """Is key an int that packs an exponent vector of the grid: nonnegative,
    within its bytes, and no guard bit set?"""
    return isinstance(key, int) and 0 <= key < 1 << 8 * shape.variable_count and not key & shape._guard


def _key_text(shape: GridShape, key: int) -> str:
    """The ``x[i,j]^e*...`` text of a key, ``1`` for the unit."""
    if not key:
        return "1"
    names = shape._names
    return "*".join(
        names[idx] if e == 1 else f"{names[idx]}^{e}"
        for idx, e in enumerate(key.to_bytes(shape.variable_count, "big"))
        if e
    )


@total_ordering
class GridMonomial:
    """An immutable monomial; ``key`` is its packed exponent vector."""

    __slots__ = ("shape", "key")

    def __init__(self, shape: GridShape, exps: tuple):
        _require(shape, GridShape, "grid shape")
        exps = _items(exps, int, "exponent")
        if not all(0 <= e <= MAX_EXPONENT for e in exps):
            raise DomainError(f"exponents must be integers in 0..{MAX_EXPONENT}, got {exps!r}")
        if len(exps) != shape.variable_count:
            raise DomainError("exponent tuple has wrong length for shape")
        self.shape = shape
        self.key = int.from_bytes(bytes(exps), "big")

    # -- constructors -------------------------------------------------

    @classmethod
    def unit(cls, shape: GridShape) -> "GridMonomial":
        _require(shape, GridShape, "grid shape")
        return _from_key(shape, 0)

    @classmethod
    def variable(cls, shape: GridShape, i: int, j: int) -> "GridMonomial":
        _require(shape, GridShape, "grid shape")
        shape.contains(i, j)  # types i and j before the pair is hashed
        return cls.from_exponents(shape, {(i, j): 1})

    @classmethod
    def from_exponents(cls, shape: GridShape, mapping) -> "GridMonomial":
        """Build from a sparse {(row, col): exponent} dict, 1-based."""
        _require(shape, GridShape, "grid shape")
        _require(mapping, dict, "{(row, col): exponent} dict")
        exps = [0] * shape.variable_count
        for pair, e in mapping.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise DomainError(f"not a (row, col) pair: {pair!r}")
            i, j = pair
            if not shape.contains(i, j):
                raise DomainError(f"variable x[{i},{j}] outside {shape.rows}x{shape.cols} grid")
            if _require(e, int, f"power of x[{i},{j}]") <= 0:
                raise DomainError(f"exponent of x[{i},{j}] must be a positive integer")
            exps[(i - 1) * shape.cols + (j - 1)] += e
        return cls(shape, tuple(exps))

    # -- inspection ---------------------------------------------------

    @property
    def exps(self) -> tuple:
        """The dense row-major exponent tuple."""
        return tuple(self.key.to_bytes(self.shape.variable_count, "big"))

    @property
    def exponents(self) -> dict:
        """Sparse {(row, col): exponent} view, 1-based keys."""
        n = self.shape.cols
        return {
            (idx // n + 1, idx % n + 1): e
            for idx, e in enumerate(self.exps)
            if e
        }

    @property
    def degree(self) -> int:
        return _degree(self.key, self.shape)

    @property
    def is_unit(self) -> bool:
        return not self.key

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support(self) -> tuple:
        """Variables with positive exponent, in rank order."""
        n = self.shape.cols
        return tuple(
            (idx // n + 1, idx % n + 1) for idx, e in enumerate(self.exps) if e
        )

    # -- arithmetic ----------------------------------------------------

    def divides(self, other: "GridMonomial") -> bool:
        _require(other, GridMonomial, "monomial", self.shape)
        return _divides(self.key, other.key, self.shape)

    def __mul__(self, other: "GridMonomial") -> "GridMonomial":
        _require(other, GridMonomial, "monomial", self.shape)
        return _from_key(self.shape, _product(self.key, other.key, self.shape))

    def __truediv__(self, other: "GridMonomial") -> "GridMonomial":
        """Exact division; raises DomainError when not divisible."""
        _require(other, GridMonomial, "monomial", self.shape)
        if not _divides(other.key, self.key, self.shape):
            raise DomainError(f"{other} does not divide {self}")
        return _from_key(self.shape, self.key - other.key)

    def gcd(self, other: "GridMonomial") -> "GridMonomial":
        _require(other, GridMonomial, "monomial", self.shape)
        return _from_key(self.shape, self.key - _excess(self.key, other.key, self.shape._guard))

    def lcm(self, other: "GridMonomial") -> "GridMonomial":
        _require(other, GridMonomial, "monomial", self.shape)
        return _from_key(self.shape, _lcm(self.key, other.key, self.shape))

    def colon(self, other: "GridMonomial") -> "GridMonomial":
        """self / gcd(self, other): the generator of (<self> : other)."""
        _require(other, GridMonomial, "monomial", self.shape)
        return _from_key(self.shape, _colon(self.key, other.key, self.shape))

    # -- ordering ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GridMonomial):
            return NotImplemented
        return self.key == other.key and self.shape == other.shape

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        _require(other, GridMonomial, "monomial", self.shape)
        return self.key < other.key

    # -- text ------------------------------------------------------------

    def __str__(self):
        return _key_text(self.shape, self.key)

    def __repr__(self):
        return f"GridMonomial({self.shape.rows}x{self.shape.cols}, {self})"


def _from_key(shape: GridShape, key: int) -> GridMonomial:
    """A monomial from a key already known to be in range."""
    mono = object.__new__(GridMonomial)
    mono.shape = shape
    mono.key = key
    return mono


def parse_monomial(shape: GridShape, text: str) -> GridMonomial:
    """Parse the ``x[i,j]^e * ...`` text form (``1`` for the unit)."""
    _require(shape, GridShape, "grid shape")
    if not isinstance(text, str):
        raise FormatError(f"monomial text must be a string, got {text!r}")
    text = text.strip()
    if not text:
        raise FormatError("empty monomial text")
    if text == "1":
        return GridMonomial.unit(shape)
    mapping = {}
    for token in text.split("*"):
        token = token.strip()
        match = _FACTOR_RE.match(token)
        if not match:
            raise FormatError(f"bad monomial factor {token!r}")
        i, j = int(match.group(1)), int(match.group(2))
        e = int(match.group(3)) if match.group(3) else 1
        if e < 1:
            raise FormatError(f"bad exponent in {token!r}")
        mapping[(i, j)] = mapping.get((i, j), 0) + e
    try:
        return GridMonomial.from_exponents(shape, mapping)
    except DomainError as exc:
        raise FormatError(f"bad monomial {text!r}: {exc}") from None
