"""Column windows of the variable grid, their diagonal monomials, and minors.

A window is a block of consecutive columns wide enough to hold one variable
per row.  Its diagonal monomials pick one variable per row with strictly
increasing columns inside the window; they generate the window's diagonal
ideal, and they are exactly the lead terms of the window's maximal minors.

All process-wide state of the package is two bounded ``lru_cache``s in
this module.  Inside, diagonals are packed keys built from their column
tuples: one cached table per window, ``_window_table``, holds each
diagonal's key with its columns, each diagonal's gap keys and the diagonal
ideal, and the colon steps of ``quotients`` read it.  ``GridMonomial``s
are built only for the public entries that return them
(``diagonal_monomial``, ``enumerate_diagonals``).  A diagonal is its column
tuple or its key, and every column tuple a caller passes is checked once,
by ``_columns``.  Every window product, capped or not, is formed from the
tables by one builder, ``_window_product``.

The natural generators of a window chain, one product of maximal minors per
column multiset, come from the other cache, ``_minor_product``, keyed by
(shape, sorted column multiset, field): chains share their minors and
products, and a three-factor product is its cached two-factor prefix times
one cached minor.  Each minor is expanded straight into keys, and each
product is cached with its division row, so a Groebner basis of natural
products builds no row of its own, and with the reductions to zero that
``groebner``'s certificate recorded for it, which leave when it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from types import MappingProxyType
from typing import NamedTuple

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    ChainOrderError,
    DomainError,
    EngineError,
    ResourceLimitError,
    SelectionError,
    WindowError,
    _items,
    _require,
)
from .fields import PrimeField, RationalField
from .ideals import MonomialIdeal
from .monomials import GridMonomial, GridShape, _from_key, _products, _variable_key
from .polynomials import Polynomial, _division_row, _polynomial


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
            if any(isinstance(bound, (tuple, list)) for bound in pair):
                raise DomainError(f"each (first, last) pair is its own argument, got {pair!r}")
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


def _columns(shape: GridShape, cols, window: Window | None = None) -> tuple:
    """cols as a tuple after the one check of a column tuple: one column per
    row of the grid, strictly increasing, on the grid and, given a window,
    inside it.

    OperandTypeError unless cols is an iterable of integers; SelectionError
    for the wrong count, columns that do not strictly increase, or a column
    off the grid or outside the window.
    """
    _require(shape, GridShape, "grid shape")
    if window is not None:
        _require(window, Window, "window")
    columns = _items(cols, int, "column")
    if len(columns) != shape.rows:
        raise SelectionError(f"selection {columns} needs exactly {shape.rows} columns")
    if any(a >= b for a, b in zip(columns, columns[1:])):
        raise SelectionError(f"columns must strictly increase, got {columns}")
    if not 1 <= columns[0] <= columns[-1] <= shape.cols:
        raise SelectionError(f"selection {columns} is off the {shape.cols} columns of the grid")
    if window is not None and not window.first <= columns[0] <= columns[-1] <= window.last:
        raise SelectionError(f"selection {columns} outside window {window}")
    return columns


def diagonal_monomial(shape: GridShape, cols) -> GridMonomial:
    """The monomial taking column cols[i-1] in row i."""
    return _from_key(shape, _diagonal_key(shape, _columns(shape, cols)))


def selection_of(monomial: GridMonomial) -> tuple | None:
    """The column tuple of a diagonal monomial, else None."""
    _require(monomial, GridMonomial, "grid monomial")
    support = monomial.support()
    cols = tuple(j for _, j in support)
    if (
        monomial.is_squarefree
        and [i for i, _ in support] == list(range(1, monomial.shape.rows + 1))
        and all(a < b for a, b in zip(cols, cols[1:]))
    ):
        return cols
    return None


def enumerate_diagonals(shape: GridShape, window: Window) -> tuple:
    """All diagonal monomials of the window, descending in the grid order.

    Ascending lexicographic column tuples give exactly the descending
    monomial order, so plain combinations come out already sorted.  The
    arguments are type-checked before the process-wide cache hashes them,
    and the monomials are built from the window table's keys.
    """
    _require(shape, GridShape, "grid shape")
    _require(window, Window, "window")
    return tuple(_from_key(shape, k) for k in _window_table(shape, window).diagonals)


def _diagonal_key(shape: GridShape, cols) -> int:
    """The key of the diagonal monomial taking column cols[i-1] in row i."""
    return sum(_variable_key(shape, i, c) for i, c in enumerate(cols, start=1))


class _WindowTable(NamedTuple):
    """What the colon steps and the public entries read of one window."""

    diagonals: MappingProxyType  # {diagonal key: its columns}, descending
    gaps: MappingProxyType  # {diagonal key: keys of its gap variables}
    ideal: MonomialIdeal  # the diagonal ideal


# Every window of every grid up to 3x9 is 324 tables, so the bound holds
# any sweep.
@lru_cache(maxsize=1024)
def _window_table(shape: GridShape, window: Window) -> _WindowTable:
    """The window's diagonals, their gap keys and its diagonal ideal, all
    from the diagonals' column tuples.

    The gap variables of a diagonal are the x[i,b] with b strictly between
    consecutive selected columns; the floor for row 1 is the column just
    before the window.  Ascending column tuples give the diagonals in
    descending grid order, and they are pairwise non-dividing, so the
    ideal keeps them all; ``EngineError`` if either fails.
    """
    window.check_against(shape)
    diagonals, gaps = {}, {}
    for cols in combinations(range(window.first, window.last + 1), shape.rows):
        f = _diagonal_key(shape, cols)
        diagonals[f] = cols
        row, prev = [], window.first - 1
        for i, c in enumerate(cols, start=1):
            row += [_variable_key(shape, i, b) for b in range(prev + 1, c)]
            prev = c
        gaps[f] = tuple(row)
    keys = tuple(diagonals)
    if list(keys) != sorted(keys, reverse=True):
        raise EngineError(f"diagonals of window {window} are not in descending grid order")
    ideal = MonomialIdeal._from_keys(shape, keys)
    if len(ideal) != len(keys):
        raise EngineError(f"diagonal ideal of window {window} lost generators to minimalization")
    return _WindowTable(MappingProxyType(diagonals), MappingProxyType(gaps), ideal)


def diagonal_ideal(shape: GridShape, window: Window) -> MonomialIdeal:
    """The ideal generated by the window's diagonal monomials."""
    _require(shape, GridShape, "grid shape")
    _require(window, Window, "window")
    return _window_table(shape, window).ideal


def window_product_ideal(shape: GridShape, windows) -> MonomialIdeal:
    """Product of the diagonal ideals of the given windows (unit if empty),
    formed by ``_window_product`` with no cap."""
    _require(shape, GridShape, "grid shape")
    return _window_product(shape, _items(windows, Window, "window"))


def _window_product(shape: GridShape, windows, cap=None, chain=None, keys=None) -> MonomialIdeal:
    """<keys> times the diagonal ideals of windows, a sequence of windows
    checked against the grid by their tables: the one builder of a window
    product.  With no keys the product starts from the first window's
    diagonal keys, already distinct and descending, or is the unit ideal
    when there is no window.

    Each further window is multiplied in one diagonal at a time.  Diagonal
    ideals are generated in one degree, so the distinct products are the
    minimal generators and nothing is minimalized; a partial product of a
    chain has at most as many as the whole.  Given a cap, the products are
    counted as they form, and ``ResourceLimitError`` names the count at the
    first that passes it, with ``str(chain)``, the caller's name for the
    product, in its snapshot.
    """
    if keys is None:
        keys = list(_window_table(shape, windows[0]).diagonals) if windows else [0]
        windows = windows[1:]
        if cap is not None and len(keys) > cap:
            # One diagonal at a time, the count passes the cap at cap + 1.
            raise _past_cap(chain, cap + 1, cap)
    for window in windows:
        products = set()
        for d in _window_table(shape, window).diagonals:
            products.update(_products(keys, (d,), shape))
            if cap is not None and len(products) > cap:
                raise _past_cap(chain, len(products), cap)
        keys = list(products)
    return MonomialIdeal._of_minimal(shape, tuple(sorted(keys, reverse=True)))


def _past_cap(chain, gens: int, cap: int) -> ResourceLimitError:
    """The cap error of a window product that reached gens generators;
    chain is the caller's name for the product."""
    message = f"window product reached {gens} generators, cap is {cap}"
    return ResourceLimitError(message, snapshot={"chain": str(chain), "gens": gens})


def minor(shape: GridShape, cols, field, caps: Caps = DEFAULT_CAPS) -> Polynomial:
    """Permutation expansion of the m-by-m minor on the given columns.

    The expansion has m! signed terms; the cap keeps m small enough for that
    to stay reasonable.  Each (shape, columns, field) is expanded once per
    process, by ``_minor_product``, and the immutable result shared.
    """
    _require(caps, Caps, "Caps")
    _require(field, (RationalField, PrimeField), "field")
    cols = _columns(shape, cols)
    _check_minor_rows(shape, caps)
    return _minor_product(shape, (cols,), field)[0]


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


# A default-caps conjecture scan up to 3x6 reads 624 products per
# characteristic, minors included, and the 3x6 grid alone has 20 minors and
# 1,750 products of two or three of them (about 40 MiB with their rows), so
# the bound holds either.  A three-factor scan up to 3x7 reads 14,074 and
# thrashes it.
@lru_cache(maxsize=2048)
def _minor_product(shape: GridShape, multiset: tuple, field) -> tuple:
    """The product of the maximal minors on the column sets of multiset, a
    sorted tuple of checked column sets, its division row
    (``polynomials._division_row``) and its reductions, a dict that
    ``groebner._certificate`` fills and that lives as long as the entry.

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
                f"minor on columns {cols} is not led by its diagonal: "
                "the monomial order is broken"
            )
        product = _polynomial(shape, field, keys, [terms[k] for k in keys])
    return product, _division_row(product), {}


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
