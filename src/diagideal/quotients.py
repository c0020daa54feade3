"""Colon structure of diagonal ideals: quotient chains, closed forms, circles.

``_linear_quotients`` is the one walk that decides whether a generator
order has linear quotients; the Groebner certificate and the mapping cone
both read it.  ``quotient_chain`` builds the same colons as minimalized
ideals; it is the brute oracle the walk is tested against.

A brute colon is one ``_colons`` pass, minimalized once (``_brute_colon``,
behind ``quotient_chain``, the CLI and the replay).  For a single window
the colon of the earlier diagonals is generated by the variables in the
column gaps of the divisor, the column before the window acting as the
sentinel gap floor; for a sorted chain the same variables join the product
R of the remaining windows' diagonal ideals.  The diagonals and their gap
keys come from ``windows._window_table``, one cached table per window
built from column tuples, so no step builds a ``GridMonomial``; the public
closed forms check their diagonal argument where it enters and read the
same table.  R's keys are minimal and the gaps are distinct variables, so
the closed ideal's minimal generators are the gaps and the keys of R that
no gap divides (``_join``, one mask AND each, no minimalization).

``_colon_steps`` walks a window's diagonal keys beside the closed form and
decides each step by the colon's definition (``_is_colon``): every k : f
lies in the closed ideal, and g * f in the divided ideal for every closed
generator g.  A colon that no free variable of the closed ideal (one that
does not divide f) divides lies in it exactly when a closed variable
dividing f divides it, or it lies in <R>.  <R> is the same at every step,
so each distinct colon is scanned against R once per chain.  Equal ideals
have one minimal generating set, so a step that passes reports the closed
ideal as its brute colon; only a step that fails builds and minimalizes
``_brute_colon``'s.  The circle redistribution rebalances a factor per
window by sorting column positions row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, EngineError, ResourceLimitError, _require
from .ideals import MonomialIdeal
from .monomials import (
    GridMonomial,
    GridShape,
    _colons,
    _colons_and_variables,
    _from_key,
    _products,
    _radical,
    _undivided,
    _variable_mask,
    _variables,
)
from .windows import (
    Window,
    WindowChain,
    _window_table,
    diagonal_ideal,
    diagonal_monomial,
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
        return (0,) + tuple(len(step) for step in self.steps)


def quotient_chain(ideal: MonomialIdeal) -> QuotientChain:
    """Brute-force colon chain along the ideal's canonical generator order."""
    _require(ideal, MonomialIdeal, "monomial ideal")
    if ideal.is_zero:
        raise DomainError("quotient chain of the zero ideal is undefined")
    shape = ideal.shape
    keys = ideal.keys
    steps = tuple(_brute_colon(shape, keys[:u], keys[u]) for u in range(1, len(keys)))
    return QuotientChain(ideal, steps)


def _brute_colon(shape: GridShape, keys, f: int) -> MonomialIdeal:
    """(<keys> : f): one ``_colons`` pass, minimalized once."""
    return MonomialIdeal._from_keys(shape, _colons(keys, f, shape))


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
        colons, firsts = _colons_and_variables(keys[:j], key, shape)
        mask = _variable_mask(firsts)
        if any(not c & mask for c in colons):
            return None
        walk.append(firsts)
    return walk


def _join(shape: GridShape, rest_keys, gaps) -> MonomialIdeal:
    """<rest_keys> + <gaps>, built without a minimalization.

    rest_keys are minimal keys, none of them 1, and gaps distinct
    variables.  Only 1 or the variable itself divides a variable, so the
    minimal generators are the gaps and the rest keys that no gap divides,
    one mask AND each.
    """
    mask = _variable_mask(gaps)
    keys = [r for r in rest_keys if not r & mask]
    keys += gaps
    keys.sort(reverse=True)
    return MonomialIdeal._of_minimal(shape, tuple(keys))


def _is_colon(
    shape: GridShape, closed: MonomialIdeal, f: int, prefix, keys, members, rest_keys, inside
) -> bool:
    """Is closed the colon (<prefix, keys> : f)?  members is the set of all
    keys of prefix and keys.  rest_keys must satisfy <closed> = <rest_keys>
    + <variables of closed>: a caller with no rest passes closed's keys
    that are not variables.  inside holds keys already found in
    <rest_keys>; a caller may share it between calls with the same
    rest_keys.

    By the definition of a colon, the two are equal exactly when
    - forward: k : f lies in closed for every k of prefix and keys.  A
      variable of closed that does not divide f (a free variable) divides
      k : f exactly when it divides k, so the colon loop skips the keys
      that meet the free variables.  A colon c it keeps avoids them, so c
      lies in closed exactly when a variable of closed that divides f
      divides c (one mask AND) or c lies in <rest_keys>.  That membership
      does not depend on f, so each distinct c is scanned once against
      rest_keys and kept in inside; nothing about closed itself is kept;
    - reverse: g * f lies in <prefix, keys> for every generator g of
      closed: looked up in members, then scanned against prefix, then keys.
    """
    gens = closed.keys
    support = _radical(f, shape)
    variables = _variables(gens, shape)
    free = _variable_mask([v for v in variables if not v & support])
    bound = _variable_mask([v for v in variables if v & support])
    colons = set(_colons(prefix, f, shape, free))
    colons.update(_colons(keys, f, shape, free))
    # One set difference, which walks the smaller side, then the bound
    # mask where a variable of closed divides f.
    pending = colons - inside
    if bound:
        pending = [c for c in pending if not c & bound]
    # Ascending, the divisor of a colon came up sooner in a profile of
    # the colon-products workload.
    if _undivided(pending, rest_keys[::-1], shape):
        return False
    inside.update(pending)
    products = [h for h in _products(gens, (f,), shape) if h not in members]
    return not _undivided(_undivided(products, prefix, shape), keys, shape)


def _colon_steps(shape: GridShape, window: Window, keys=(), rest_keys=()):
    """For each diagonal f_u of the window, in order, yield (u, brute, closed).

    closed joins rest_keys to the gap keys of f_u (``_join``); brute is
    (<keys, f_0..f_{u-1}> : f_u).  When ``_is_colon`` finds the two equal,
    brute is closed itself, since equal ideals have one minimal generating
    set; otherwise it is ``_brute_colon``'s.  The steps share one set of
    colons known to lie in <rest_keys>.  With no keys and no rest this is
    the single-window closed form, otherwise the product one.
    """
    table = _window_table(shape, window)
    keys = list(keys)
    members = set(keys)
    inside = set()
    prefix = []
    for u, f in enumerate(table.diagonals):
        closed = _join(shape, rest_keys, table.gaps[f])
        if _is_colon(shape, closed, f, prefix, keys, members, rest_keys, inside):
            brute = closed
        else:
            brute = _brute_colon(shape, prefix + keys, f)
        yield u, brute, closed
        prefix.append(f)
        members.add(f)


def closed_form_colon(shape: GridShape, window: Window, f: GridMonomial) -> MonomialIdeal:
    """Closed form of (<earlier diagonals> : f) inside one window.

    Generated by the gap variables of f; the zero ideal when f is the
    window's top diagonal monomial.
    """
    _require(window, Window, "window")
    window.check_against(shape)
    selection = selection_of(f) if isinstance(f, GridMonomial) else None
    if selection is None:
        raise DomainError(f"{f} is not a diagonal monomial")
    _require(f, GridMonomial, "diagonal", shape)
    selection.check_against(shape, window)
    return _join(shape, (), _window_table(shape, window).gaps[f.key])


def closed_form_product_colon(
    shape: GridShape, chain: WindowChain, f: GridMonomial, prefix_index: int
) -> MonomialIdeal:
    """Closed form of (<product of all windows, f_1..f_u> : f_{u+1}).

    The remaining windows' product joins the gap variables of f, whose gap
    floor is taken from the first window.  Requires at least two windows and
    f equal to the first window's diagonal at position prefix_index.
    """
    _require(chain, WindowChain, "window chain")
    _require(prefix_index, int, "diagonal index")
    if len(chain) < 2:
        raise DomainError("product colon closed form needs at least two windows")
    chain.check_against(shape)
    first = chain.windows[0]
    table = _window_table(shape, first)
    diagonals = tuple(table.diagonals)
    if not 0 <= prefix_index < len(diagonals):
        raise DomainError(
            f"prefix index {prefix_index} out of range for window {first}"
        )
    if _from_key(shape, diagonals[prefix_index]) != f:
        raise DomainError(
            f"{f} is not diagonal #{prefix_index} of window {first}"
        )
    rest = window_product_ideal(shape, chain.windows[1:])
    return _join(shape, rest.keys, table.gaps[f.key])


def redistribute(shape: GridShape, chain: WindowChain, factors) -> list:
    """Rebalance one diagonal monomial per window so the j-th output takes
    the j-th smallest column in every row.

    The output monomials multiply to the same product, are again diagonal
    monomials, and the j-th lands in the j-th window of the sorted chain.
    """
    _require(chain, WindowChain, "window chain")
    chain.check_against(shape)
    try:
        factors = list(factors)
    except TypeError:
        raise DomainError(f"factors must be iterable, got {factors!r}") from None
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
    diagonals of the first window) by diagonal u is compared with the closed
    form of ``closed_form_product_colon``: the remaining windows' product
    joined with the gap variables of diagonal u.  Both come from
    ``_colon_steps``.  Returns one entry per u with both ideals and the
    equality verdict.
    """
    _require(chain, WindowChain, "window chain")
    _require(caps, Caps, "Caps")
    if len(chain) < 2:
        raise DomainError("product colon verification needs at least two windows")
    chain.check_against(shape)
    first = chain.windows[0]
    rest = window_product_ideal(shape, chain.windows[1:])
    full = diagonal_ideal(shape, first) * rest
    if len(full) > caps.max_product_gens:
        raise ResourceLimitError(
            f"window product has {len(full)} generators, cap is {caps.max_product_gens}",
            snapshot={"chain": str(chain), "gens": len(full)},
        )
    return [
        {"u": u, "brute": brute, "closed": closed, "equal": brute == closed}
        for u, brute, closed in _colon_steps(shape, first, full.keys, rest.keys)
    ]
