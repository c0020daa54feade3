"""Column windows of the variable grid, their diagonal monomials, and minors.

A window is a block of consecutive columns wide enough to hold one variable
per row.  Its diagonal monomials pick one variable per row with strictly
increasing columns inside the window; they generate the window's diagonal
ideal, and they are exactly the lead terms of the window's maximal minors.

Inside, diagonals are packed keys built from their column tuples: one
cached table per window, ``_diagonal_keys``, maps each diagonal's key to
its columns, and the diagonal ideal, the colon steps and the gap tables of
``quotients`` read it.  ``GridMonomial``s are built only for the public
entries that return them (``diagonal_monomial``, ``enumerate_diagonals``).

The natural generators of a window chain, one product of maximal minors per
column multiset, come from one bounded process-wide cache,
``_minor_product``, keyed by (shape, sorted column multiset, field): chains
share their minors and products, and a three-factor product is its cached
two-factor prefix times one cached minor.  Each minor is expanded straight
into keys, and each product is cached with its division row, so a Groebner
basis of natural products builds no row of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from types import MappingProxyType

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    ChainOrderError,
    DomainError,
    EngineError,
    ResourceLimitError,
    SelectionError,
    WindowError,
    _require,
)
from .fields import PrimeField, RationalField
from .ideals import MonomialIdeal
from .monomials import GridMonomial, GridShape, _from_key, _variable_key
from .polynomials import Polynomial, _division_row


@dataclass(frozen=True)
class Window:
    """Inclusive column bounds; needs first < last."""

    first: int
    last: int

    def __post_init__(self):
        if not (isinstance(self.first, int) and isinstance(self.last, int)):
            raise WindowError("window bounds must be integers")
        if not 1 <= self.first < self.last:
            raise WindowError(f"window needs 1 <= first < last, got ({self.first},{self.last})")

    @property
    def width(self) -> int:
        return self.last - self.first + 1

    def check_against(self, shape: GridShape):
        _require(shape, GridShape, "grid shape")
        if self.last > shape.cols:
            raise WindowError(
                f"window ({self.first},{self.last}) exceeds {shape.cols} columns"
            )
        if self.width < shape.rows:
            raise WindowError(
                f"window ({self.first},{self.last}) too narrow for {shape.rows} rows"
            )

    def __str__(self):
        return f"({self.first},{self.last})"


@dataclass(frozen=True)
class WindowChain:
    """Windows sorted componentwise: both bound sequences nondecreasing."""

    windows: tuple

    def __post_init__(self):
        if type(self.windows) is not tuple:
            try:
                object.__setattr__(self, "windows", tuple(self.windows))
            except TypeError:
                raise ChainOrderError(f"not a sequence of windows: {self.windows!r}") from None
        if not self.windows:
            raise ChainOrderError("empty window chain")
        for w in self.windows:
            if not isinstance(w, Window):
                raise ChainOrderError(f"not a window: {w!r}")
        firsts = [w.first for w in self.windows]
        lasts = [w.last for w in self.windows]
        if firsts != sorted(firsts) or lasts != sorted(lasts):
            raise ChainOrderError(
                "windows must be sorted in both coordinates, got "
                + ", ".join(str(w) for w in self.windows)
            )

    @classmethod
    def of(cls, *bounds) -> "WindowChain":
        """The chain of the windows with the given (first, last) pairs."""
        for pair in bounds:
            _require(pair, (tuple, list), "(first, last) pair")
            if len(pair) != 2:
                raise DomainError(f"not a (first, last) pair: {pair!r}")
        return cls(tuple(Window(k, l) for k, l in bounds))

    def check_against(self, shape: GridShape):
        for w in self.windows:
            w.check_against(shape)

    def __len__(self):
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    def __str__(self):
        return ":".join(f"{w.first},{w.last}" for w in self.windows)


@dataclass(frozen=True)
class ColumnSelection:
    """Strictly increasing 1-based column positions, one per row."""

    cols: tuple

    def __post_init__(self):
        if type(self.cols) is not tuple:
            try:
                object.__setattr__(self, "cols", tuple(self.cols))
            except TypeError:
                raise SelectionError(f"not a sequence of columns: {self.cols!r}") from None
        if not self.cols:
            raise SelectionError("empty column selection")
        for c in self.cols:
            if not isinstance(c, int):
                raise SelectionError(f"columns must be integers, got {self.cols}")
        for a, b in zip(self.cols, self.cols[1:]):
            if a >= b:
                raise SelectionError(f"columns must strictly increase, got {self.cols}")
        if self.cols[0] < 1:
            raise SelectionError(f"columns must be >= 1, got {self.cols}")

    def check_against(self, shape: GridShape, window: Window | None = None):
        _require(shape, GridShape, "grid shape")
        if window is not None:
            _require(window, Window, "window")
        if len(self.cols) != shape.rows:
            raise SelectionError(
                f"selection {self.cols} needs exactly {shape.rows} columns"
            )
        if self.cols[-1] > shape.cols:
            raise SelectionError(f"selection {self.cols} exceeds {shape.cols} columns")
        if window is not None and not (window.first <= self.cols[0] and self.cols[-1] <= window.last):
            raise SelectionError(f"selection {self.cols} outside window {window}")

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.cols) + ")"


def _selection(cols) -> ColumnSelection:
    """cols as a ColumnSelection; DomainError unless it is one or an
    iterable of integer columns."""
    if isinstance(cols, ColumnSelection):
        return cols
    try:
        columns = tuple(cols)
    except TypeError:
        columns = (None,)
    for c in columns:
        if not isinstance(c, int):
            raise DomainError(f"columns must be an iterable of integers, got {cols!r}")
    return ColumnSelection(columns)


def diagonal_monomial(shape: GridShape, cols) -> GridMonomial:
    """The monomial taking column cols[i-1] in row i."""
    selection = _selection(cols)
    selection.check_against(shape)
    return GridMonomial.from_exponents(
        shape, {(i, c): 1 for i, c in enumerate(selection.cols, start=1)}
    )


def selection_of(monomial: GridMonomial) -> ColumnSelection | None:
    """Recover the column selection of a diagonal monomial, else None."""
    _require(monomial, GridMonomial, "grid monomial")
    support = monomial.support()
    cols = tuple(j for _, j in support)
    if (
        monomial.is_squarefree
        and [i for i, _ in support] == list(range(1, monomial.shape.rows + 1))
        and all(a < b for a, b in zip(cols, cols[1:]))
    ):
        return ColumnSelection(cols)
    return None


def enumerate_diagonals(shape: GridShape, window: Window) -> tuple:
    """All diagonal monomials of the window, descending in the grid order.

    Ascending lexicographic column tuples give exactly the descending
    monomial order, so plain combinations come out already sorted.  The
    arguments are type-checked before the process-wide cache hashes them.
    """
    _require(shape, GridShape, "grid shape")
    _require(window, Window, "window")
    return _enumerate_diagonals(shape, window)


@lru_cache(maxsize=None)
def _enumerate_diagonals(shape: GridShape, window: Window) -> tuple:
    return tuple(_from_key(shape, k) for k in _diagonal_keys(shape, window))


def _diagonal_key(shape: GridShape, cols) -> int:
    """The key of the diagonal monomial taking column cols[i-1] in row i."""
    return sum(_variable_key(shape, i, c) for i, c in enumerate(cols, start=1))


@lru_cache(maxsize=None)
def _diagonal_keys(shape: GridShape, window: Window) -> MappingProxyType:
    """{diagonal key: its column tuple} over the window's diagonals, in
    descending grid order, as ascending column tuples give them."""
    window.check_against(shape)
    diagonals = {
        _diagonal_key(shape, cols): cols
        for cols in combinations(range(window.first, window.last + 1), shape.rows)
    }
    keys = list(diagonals)
    if keys != sorted(keys, reverse=True):
        raise EngineError(f"diagonals of window {window} are not in descending grid order")
    return MappingProxyType(diagonals)


def diagonal_ideal(shape: GridShape, window: Window) -> MonomialIdeal:
    """The ideal generated by the window's diagonal monomials."""
    _require(shape, GridShape, "grid shape")
    _require(window, Window, "window")
    return _diagonal_ideal(shape, window)


@lru_cache(maxsize=None)
def _diagonal_ideal(shape: GridShape, window: Window) -> MonomialIdeal:
    ideal = MonomialIdeal._from_keys(shape, tuple(_diagonal_keys(shape, window)))
    # Diagonal monomials are pairwise non-dividing, so nothing may collapse.
    if len(ideal) != comb(window.width, shape.rows):
        raise EngineError(f"diagonal ideal of window {window} lost generators to minimalization")
    return ideal


def window_product_ideal(shape: GridShape, windows) -> MonomialIdeal:
    """Product of the diagonal ideals of the given windows (unit if empty)."""
    try:
        windows = tuple(windows)
    except TypeError:
        raise DomainError(f"not an iterable of windows: {windows!r}") from None
    if not windows:
        return MonomialIdeal.unit(shape)
    result = diagonal_ideal(shape, windows[0])
    for w in windows[1:]:
        result = result * diagonal_ideal(shape, w)
    return result


def minor(shape: GridShape, cols, field, caps: Caps = DEFAULT_CAPS) -> Polynomial:
    """Permutation expansion of the m-by-m minor on the given columns.

    The expansion has m! signed terms; the cap keeps m small enough for that
    to stay reasonable.  Each (shape, columns, field) is expanded once per
    process, by ``_minor_product``, and the immutable result shared.
    """
    _require(caps, Caps, "Caps")
    _require(field, (RationalField, PrimeField), "field")
    selection = _selection(cols)
    selection.check_against(shape)
    _check_minor_rows(shape, caps)
    return _minor_product(shape, (tuple(selection.cols),), field)[0]


def _check_minor_rows(shape: GridShape, caps: Caps) -> None:
    """ResourceLimitError when the shape's maximal minors have more rows
    than ``caps.max_minor_rows``: the one rows cap of ``minor`` and of the
    natural products."""
    m = shape.rows
    if m > caps.max_minor_rows:
        raise ResourceLimitError(
            f"minor expansion capped at {caps.max_minor_rows} rows, got {m}",
            snapshot={"rows": m},
        )


# The largest grid the conjecture caps allow, 3x6, has 20 minors and 1,750
# products of two or three of them (about 40 MiB with their rows), so the
# bound holds one such grid.
@lru_cache(maxsize=2048)
def _minor_product(shape: GridShape, multiset: tuple, field) -> tuple:
    """The product of the maximal minors on the column sets of multiset, a
    sorted tuple of checked column sets, and its division row
    (``polynomials._division_row``).

    One column set is expanded straight into keys, one per permutation
    with its sign as a field element, and under the grid order its
    diagonal term leads (Sturmfels and Zelevinsky, Adv. Math. 98, 1993);
    that is checked on keys once per expansion, and ``EngineError`` raised
    if not.  A raise is not cached, so a broken order raises on every
    call.  A product of more column sets is its prefix multiset's product
    times the last minor, both read through this cache, so chains share
    their products and a three-factor product reuses its two-factor
    prefix.  The product of the same polynomials is the same whatever
    order they are multiplied in.
    """
    if len(multiset) > 1:
        prefix = _minor_product(shape, multiset[:-1], field)[0]
        product = prefix * _minor_product(shape, multiset[-1:], field)[0]
    else:
        (cols,) = multiset
        m = shape.rows
        signs = (field.one, field.normalize(-1))
        terms = {}
        for perm in permutations(range(m)):
            inversions = sum(
                1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b]
            )
            key = sum(_variable_key(shape, i + 1, cols[perm[i]]) for i in range(m))
            terms[key] = signs[inversions % 2]
        keys = sorted(terms)
        if keys[-1] != _diagonal_key(shape, cols):
            raise EngineError(
                f"minor on columns {ColumnSelection(cols)} is not led by its diagonal: "
                "the monomial order is broken"
            )
        product = Polynomial(shape, field, keys, [terms[k] for k in keys])
    return product, _division_row(product)


def _report_header(shape: GridShape, windows) -> dict:
    """The leading keys of a chain's report: its grid and its windows."""
    return {"shape": [shape.rows, shape.cols], "chain": [[w.first, w.last] for w in windows]}


def iter_windows(shape: GridShape):
    """All valid windows of the shape, ordered by (first, last)."""
    _require(shape, GridShape, "grid shape")
    for first in range(1, shape.cols + 1):
        for last in range(first + 1, shape.cols + 1):
            if last - first + 1 >= shape.rows:
                yield Window(first, last)


def iter_sorted_chains(shape: GridShape, length: int):
    """All sorted chains of the given length over the shape's windows.

    A multiset of windows admits a componentwise-sorted ordering exactly when
    its members are pairwise comparable; listing windows by (first, last) makes
    the first coordinates nondecreasing, so only the last coordinates need a
    check.
    """
    _require(length, int, "chain length")
    if length < 1:
        raise DomainError("chain length must be >= 1")
    windows = list(iter_windows(shape))
    for combo in combinations_with_replacement(windows, length):
        lasts = [w.last for w in combo]
        if lasts == sorted(lasts):
            yield WindowChain(tuple(combo))
