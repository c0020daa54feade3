"""Colon structure of diagonal ideals: quotient chains, closed forms, circles.

``_linear_quotients`` is the one walk that decides whether a generator
order has linear quotients; the Groebner certificate and the mapping cone
both read it.  ``quotient_chain`` builds the same colons as minimalized
ideals, one per step: ``verify --target lemma1`` prints them, and tests hold
the walk to them.

The exact brute-force colon of a monomial prefix is compared against two
closed forms: for a single window the colon of the earlier diagonals is
generated by the variables sitting in the column gaps of the divisor, with the
column before the window acting as the sentinel gap floor; for a sorted chain
of windows the same variables appear next to the product of the remaining
windows' diagonal ideals.  The circle redistribution rebalances a factor per
window by sorting column positions row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, EngineError, ResourceLimitError
from .ideals import MonomialIdeal
from .monomials import GridMonomial, GridShape, _colons, _variable_mask, _variables
from .windows import (
    ColumnSelection,
    Window,
    WindowChain,
    diagonal_ideal,
    diagonal_monomial,
    enumerate_diagonals,
    selection_of,
    window_product_ideal,
)


@dataclass(frozen=True)
class QuotientChain:
    """Successive colon ideals (<f_1..f_u> : f_{u+1}) for a generator list."""

    ideal: MonomialIdeal
    steps: tuple  # steps[u-1] = (<f_1..f_u> : f_{u+1}), u = 1..r-1

    @property
    def certifies_linear_quotients(self) -> bool:
        return all(step.is_generated_by_variables for step in self.steps)

    @property
    def variable_counts(self) -> tuple:
        """Number of colon generators per generator (0 for the first)."""
        return (0,) + tuple(len(step.gens) for step in self.steps)


def quotient_chain(ideal: MonomialIdeal) -> QuotientChain:
    """Brute-force colon chain along the ideal's canonical generator order."""
    if ideal.is_zero:
        raise DomainError("quotient chain of the zero ideal is undefined")
    shape = ideal.shape
    keys = [g.key for g in ideal.gens]
    steps = tuple(
        MonomialIdeal._from_keys(shape, _colons(keys[:u], keys[u], shape))
        for u in range(1, len(keys))
    )
    return QuotientChain(ideal, steps)


def _linear_quotients(keys, shape: GridShape):
    """The V_j walk of a generator order on packed keys, or None when the
    order lacks linear quotients.

    For each j, V_j is the set of colons keys[k] : keys[j], k < j, that are
    single variables; the j-th entry maps each to its first k, in first-seen
    order.  The order has linear quotients exactly when every other colon is
    divisible by a variable of its V_j.
    """
    walk = []
    for j, key in enumerate(keys):
        colons = _colons(keys[:j], key, shape)
        variables = dict.fromkeys(_variables(colons, shape))
        mask = _variable_mask(variables)
        if any(not c & mask for c in colons):
            return None
        walk.append({v: colons.index(v) for v in variables})
    return walk


def _gap_variables(shape: GridShape, window: Window, selection: ColumnSelection):
    """Variables x[i,b] with b strictly between consecutive selected columns.

    The floor for row 1 is the column just before the window.
    """
    variables = []
    prev = window.first - 1
    for i, c in enumerate(selection.cols, start=1):
        for b in range(prev + 1, c):
            variables.append(GridMonomial.variable(shape, i, b))
        prev = c
    return variables


@lru_cache(maxsize=None)
def _window_gap_keys(shape: GridShape, window: Window) -> tuple:
    """The keys of the gap variables of each diagonal of the window, in the
    order of ``enumerate_diagonals``."""
    return tuple(
        tuple(v.key for v in _gap_variables(shape, window, selection_of(f)))
        for f in enumerate_diagonals(shape, window)
    )


def closed_form_colon(shape: GridShape, window: Window, f: GridMonomial) -> MonomialIdeal:
    """Closed form of (<earlier diagonals> : f) inside one window.

    Generated by the gap variables of f; the zero ideal when f is the
    window's top diagonal monomial.
    """
    window.check_against(shape)
    selection = selection_of(f)
    if selection is None:
        raise DomainError(f"{f} is not a diagonal monomial")
    selection.check_against(shape, window)
    return MonomialIdeal(shape, _gap_variables(shape, window, selection))


def closed_form_product_colon(
    shape: GridShape, chain: WindowChain, f: GridMonomial, prefix_index: int
) -> MonomialIdeal:
    """Closed form of (<product of all windows, f_1..f_u> : f_{u+1}).

    The remaining windows' product joins the gap variables of f, whose gap
    floor is taken from the first window.  Requires at least two windows and
    f equal to the first window's diagonal at position prefix_index.
    """
    if len(chain) < 2:
        raise DomainError("product colon closed form needs at least two windows")
    chain.check_against(shape)
    first = chain.windows[0]
    diagonals = enumerate_diagonals(shape, first)
    if not 0 <= prefix_index < len(diagonals):
        raise DomainError(
            f"prefix index {prefix_index} out of range for window {first}"
        )
    if diagonals[prefix_index] != f:
        raise DomainError(
            f"{f} is not diagonal #{prefix_index} of window {first}"
        )
    rest = window_product_ideal(shape, chain.windows[1:])
    return rest + closed_form_colon(shape, first, f)


def redistribute(shape: GridShape, chain: WindowChain, factors) -> list:
    """Rebalance one diagonal monomial per window so the j-th output takes
    the j-th smallest column in every row.

    The output monomials multiply to the same product, are again diagonal
    monomials, and the j-th lands in the j-th window of the sorted chain.
    """
    chain.check_against(shape)
    factors = list(factors)
    if len(factors) != len(chain):
        raise DomainError(f"{len(factors)} factors for {len(chain)} windows")
    selections = []
    for window, g in zip(chain.windows, factors):
        selection = selection_of(g) if isinstance(g, GridMonomial) else None
        if selection is None:
            raise DomainError(f"{g!r} is not a diagonal monomial")
        selection.check_against(shape, window)
        selections.append(selection)
    rows = [sorted(sel.cols[i] for sel in selections) for i in range(shape.rows)]
    outputs = [
        diagonal_monomial(shape, tuple(row[j] for row in rows))
        for j in range(len(chain))
    ]

    # Unconditional guarantees of the construction.
    product = GridMonomial.unit(shape)
    for g in factors:
        product = product * g
    check = GridMonomial.unit(shape)
    for h in outputs:
        check = check * h
    if check != product:
        raise EngineError(f"redistribution changed the product {product} to {check}")
    for window, h in zip(chain.windows, outputs):
        sel = selection_of(h)
        if sel is None or not (window.first <= sel.cols[0] and sel.cols[-1] <= window.last):
            raise EngineError(f"redistributed factor {h} is not a diagonal of window {window}")
    return outputs


def verify_product_colons(
    shape: GridShape, chain: WindowChain, caps: Caps = DEFAULT_CAPS
) -> list:
    """Compare brute-force and closed-form colons for every prefix length.

    For u = 0..r-1 the brute colon of (product of all windows, first u
    diagonals of the first window) by diagonal u is computed from every
    generator and minimalized, and compared with the closed form: the
    remaining windows' product joined with the gap variables of diagonal u,
    whose keys are derived once per (shape, window) by ``_gap_variables``.
    The result is that of ``closed_form_product_colon``.  Returns one entry
    per u with both ideals and the equality verdict.
    """
    if len(chain) < 2:
        raise DomainError("product colon verification needs at least two windows")
    chain.check_against(shape)
    first = chain.windows[0]
    rest = window_product_ideal(shape, chain.windows[1:])
    full = diagonal_ideal(shape, first) * rest
    if len(full.gens) > caps.max_product_gens:
        raise ResourceLimitError(
            f"window product has {len(full.gens)} generators, cap is {caps.max_product_gens}",
            snapshot={"chain": str(chain), "gens": len(full.gens)},
        )
    diagonals = enumerate_diagonals(shape, first)
    gap_keys = _window_gap_keys(shape, first)
    # The product's generators, the diagonals and the gap variables are
    # checked monomials, so both colons are built and minimalized as keys.
    keys = [g.key for g in full.gens]
    rest_keys = tuple(g.key for g in rest.gens)
    entries = []
    for u, f in enumerate(diagonals):
        brute = MonomialIdeal._from_keys(shape, _colons(keys, f.key, shape))
        closed = MonomialIdeal._from_keys(shape, rest_keys + gap_keys[u])
        entries.append({"u": u, "brute": brute, "closed": closed, "equal": brute == closed})
        keys.append(f.key)
    return entries
