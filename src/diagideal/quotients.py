"""Colon structure of diagonal ideals: quotient chains, closed forms, circles.

``_linear_quotients`` is the one walk that decides whether a generator
order has linear quotients; the Groebner certificate and the mapping cone
both read it.  ``quotient_chain`` builds the same colons as minimalized
ideals; it is the brute oracle the walk is tested against.

The walk has two kernels with one output.  The pair walk (``_pair_walk``)
forms every colon f_k : f_j, k < j, so it is quadratic in the generators;
it runs on small inputs, on keys of mixed degree and on repeated keys, and
is the shadow walk's oracle in the tests.  The shadow walk
(``_shadow_walk``) runs on more than ``_SHADOW_WALK_KEYS`` distinct keys
of one degree, and rests on the shadow lemma: for distinct keys of one
degree, f_k : f_j is a single variable x exactly when f_k = (f_j / y) * x
for a variable y dividing f_j, and then gcd(f_k, f_j) = f_j / y.  So V_j
is read from an index of the earlier keys' lower shadows f / x, looked up
at the shadows f_j / y of f_j, with no colon formed.  The cover test
decides the rest: the order has linear quotients exactly when every k < j
is covered, that is some x in V_j has a higher exponent in f_k than in
f_j, which is when x divides f_k : f_j.  One bitset per variable and
exponent level, ORed over V_j, holds the covered k.

A brute colon is one ``_colons`` pass, minimalized once (``_brute_colon``,
behind ``quotient_chain``, the CLI and the replay).  For a single window
the colon of the earlier diagonals is generated by the variables in the
column gaps of the divisor, the column before the window acting as the
sentinel gap floor; for a sorted chain the same variables join the product
R of the remaining windows' diagonal ideals.  The diagonals and their gap
keys come from ``windows._window_table``, one cached table per window
built from column tuples, so no step builds a ``GridMonomial``; the public
closed forms look their diagonal argument up by key in the same table.
R's keys are minimal and the gaps are distinct variables, so the closed
ideal's minimal generators are the gaps and the keys of R that no gap
divides (``_join``, one mask AND each, no minimalization).

``_colon_steps`` walks a window's diagonal keys beside the closed form and
decides each step by the colon's definition (``_is_colon``): every k : f
lies in the closed ideal, and g * f in the divided ideal for every closed
generator g.  The forward half is certified once per chain for the product
keys by the row-minimum split.  Split a product key as k = d' * r', where
d' takes, in each row, the smallest column at which k has a positive
exponent (``monomials._row_minima``).  When d' is a diagonal of the first
window and r' a key of R, then k : f lies in <R> + <gaps of f> for every
diagonal f of that window.  If k meets a gap variable of f, that variable
survives in k : f.  Otherwise take the rows in turn.  In row 1, k's
columns are at least the window's first and avoid [first, f_1), so
d'_1 >= f_1.  In row i, d'_i > d'_{i-1} >= f_{i-1}, and d'_i is not in
(f_{i-1}, f_i), so d'_i >= f_i.  So x[i,f_i] divides k only where
f_i = d'_i; gcd(k, f) divides d', r' divides k : f, and k : f lies in <R>.
Each gap variable of f is the colon of an earlier diagonal by f (the
single-window closed form), and the prefix diagonals are always scanned,
so a step whose forward check passes has every gap variable in its closed
ideal, and the lemma covers its split keys.  Only the keys that do not
split are scanned at each step, with the prefix diagonals; a sorted chain
leaves none.  A colon that no free variable of the closed ideal (one that
does not divide f) divides lies in it exactly when a closed variable
dividing f divides it, or it lies in <R>.  <R> is the same at every step,
so each distinct colon is scanned against R once per chain.  Equal ideals
have one minimal generating set, so a step that passes reports the closed
ideal as its brute colon; only a step that fails builds and minimalizes
``_brute_colon``'s.  The window products come from
``windows._window_product``, with the generator cap checked as each
partial product grows.  The circle redistribution rebalances a factor per
window by sorting column positions row by row, and checks its output on
keys against the window tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, EngineError, _items, _require
from .ideals import MonomialIdeal
from .monomials import (
    GridMonomial,
    GridShape,
    _by_degree,
    _colons,
    _colons_and_variables,
    _exponents,
    _from_key,
    _key_text,
    _products,
    _radical,
    _row_minima,
    _undivided,
    _variable_mask,
    _variables,
)
from .windows import (
    Window,
    WindowChain,
    _columns,
    _diagonal_key,
    _window_product,
    _window_table,
    selection_of,
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


# Above this many keys the shadow walk runs on distinct keys of one degree.
# Timed once per product, cold, the two kernels alternating, on every one-
# and two-window product up to 3x7 (Xeon, Python 3.11, medians of seven
# runs), it took 1.8 times the pair walk's time below 8 keys, 1.3 times at
# 8 to 15, 1.02 times at 16 to 23, 0.84 times at 24 to 31 and at most 0.7
# times from 32 keys on.
_SHADOW_WALK_KEYS = 24


def _linear_quotients(keys, shape: GridShape):
    """The V_j walk of a generator order on packed keys, or None when the
    order lacks linear quotients.

    For each j, V_j is the set of colons keys[k] : keys[j], k < j, that are
    single variables; the j-th entry maps each to its first k, in first-seen
    order, which is ascending k.  The order has linear quotients exactly
    when every other colon is divisible by a variable of its V_j.

    Two kernels give the same walk.  Distinct keys of one degree, more than
    ``_SHADOW_WALK_KEYS`` of them, take ``_shadow_walk``, near-linear in the
    keys: for such keys f_k : f_j is a single variable x exactly when
    f_k = (f_j / y) * x for a variable y dividing f_j, and a colon f_k : f_j
    is divisible by x exactly when x has a higher exponent in f_k than in
    f_j.  Fewer keys, keys of mixed degree and repeated keys take
    ``_pair_walk``, which forms every colon f_k : f_j.
    """
    if len(keys) > _SHADOW_WALK_KEYS and len(set(keys)) == len(keys) and len(_by_degree(keys, shape)) == 1:
        return _shadow_walk(keys, shape)
    return _pair_walk(keys, shape)


def _pair_walk(keys, shape: GridShape):
    """``_linear_quotients`` by every colon keys[k] : keys[j], k < j: one
    ``_colons_and_variables`` pass per j gives the colons and V_j, and each
    colon is tested against V_j's variable mask.  Any keys."""
    walk = []
    for j, key in enumerate(keys):
        colons, firsts = _colons_and_variables(keys[:j], key, shape)
        mask = _variable_mask(firsts)
        if any(not c & mask for c in colons):
            return None
        walk.append(firsts)
    return walk


def _shadow_walk(keys, shape: GridShape):
    """``_linear_quotients`` for distinct keys of one degree, by lower
    shadows, with no colon formed.

    The lemma: for distinct f_k, f_j of one degree d, f_k : f_j is a single
    variable x exactly when f_k = (f_j / y) * x for a variable y dividing
    f_j.  The colon is f_k / gcd(f_k, f_j), so it has degree 1 exactly when
    the gcd has degree d - 1; a divisor of f_j of degree d - 1 is f_j / y,
    and then f_k = gcd * x with x != y, as the keys differ.  So V_j is read
    from the lower shadows of the keys: the shadows of f are f / x, one
    for each variable x of its support, and f_j / y is a shadow of f_k
    exactly when f_k = (f_j / y) * x for some x.

    The walk goes through the keys once, in order.  V_j looks up each
    shadow f_j / y of f_j in an index of the earlier keys' shadows, keeps
    each x = f_k - (f_j / y) with its least k, and lists them in ascending
    k.  The cover test: x divides f_k : f_j exactly when the exponent of x
    in f_k passes its exponent e in f_j.  One bitset per variable and
    exponent level holds the earlier k whose exponent of x is at least
    that level; ORed at level e + 1 over V_j, it must hold every k < j.
    Then f_j's shadows join the index and its exponents the bitsets.
    """
    shadows = {}  # shadow key -> the k of every key with that shadow, ascending
    levels = {}  # variable x -> [bitset of the k with exponent of x >= e, e = 1, 2, ...]
    lookup = shadows.get
    walk = []
    for j, key in enumerate(keys):
        exponents = _exponents(key, shape)
        found = {}  # k -> the variable f_k : f_j; each k is found at one shadow
        for y in exponents:
            shadow = key - y
            ks = lookup(shadow)
            if ks:
                for k in ks:
                    found[k] = keys[k] - shadow
        firsts = {}
        covered = 0
        for k in sorted(found):
            x = found[k]
            if x not in firsts:
                firsts[x] = k
                covered |= levels[x][exponents.get(x, 0)]
        if covered != (1 << j) - 1:
            return None
        walk.append(firsts)
        bit = 1 << j
        for x, e in exponents.items():
            shadow = key - x
            ks = lookup(shadow)
            if ks is None:
                shadows[shadow] = [j]
            else:
                ks.append(j)
            bitsets = levels.get(x)
            if bitsets is None:
                levels[x] = [bit] * e
            elif e == 1:  # most exponents: the squarefree case
                bitsets[0] |= bit
            else:
                for level in range(e):
                    if level < len(bitsets):
                        bitsets[level] |= bit
                    else:
                        bitsets.append(bit)
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
    shape: GridShape, closed: MonomialIdeal, f: int, prefix, keys, unsplit, members, rest_keys, inside
) -> bool:
    """Is closed the colon (<prefix, keys> : f)?  unsplit holds the keys of
    keys whose forward colon the caller has not certified; all of keys is
    the definitional check.  members is the set of all keys of prefix and
    keys.  rest_keys must satisfy <closed> = <rest_keys> + <variables of
    closed>: a caller with no rest passes closed's keys that are not
    variables.  inside holds keys already found in <rest_keys>; a caller
    may share it between calls with the same rest_keys.

    By the definition of a colon, the two are equal exactly when
    - forward: k : f lies in closed for every k of prefix and keys.  A key
      of keys outside unsplit is certified: it splits as d' * r', d' its
      row minima and a diagonal of f's window, r' a key of rest_keys, so
      k : f lies in <rest_keys> + <gaps of f> (the lemma of
      ``_colon_steps``), and a prefix that passes puts every gap of f in
      closed.  So the colon loop reads prefix and unsplit.  A
      variable of closed that does not divide f (a free variable) divides
      k : f exactly when it divides k, so the loop skips the keys that
      meet the free variables.  A colon c it keeps avoids them, so c lies
      in closed exactly when a variable of closed that divides f divides c
      (one mask AND) or c lies in <rest_keys>.  That membership does not
      depend on f, so each distinct c is scanned once against rest_keys
      and kept in inside; nothing about closed itself is kept;
    - reverse: g * f lies in <prefix, keys> for every generator g of
      closed: looked up in members, then scanned against prefix, then keys.
    """
    gens = closed.keys
    support = _radical(f, shape)
    variables = _variables(gens, shape)
    free = _variable_mask([v for v in variables if not v & support])
    bound = _variable_mask([v for v in variables if v & support])
    colons = set(_colons(prefix, f, shape, free))
    colons.update(_colons(unsplit, f, shape, free))
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


def _unsplit(shape: GridShape, table, keys, rest_keys) -> list:
    """The keys of keys that the row-minimum split leaves uncertified: those
    whose row minima d' (``_row_minima``) are not a diagonal of the table's
    window, or whose cofactor k / d' is not a key of rest_keys."""
    diagonals = table.diagonals
    rest = set(rest_keys)
    return [k for k, d in zip(keys, _row_minima(keys, shape)) if d not in diagonals or k - d not in rest]


def _colon_steps(shape: GridShape, window: Window, keys=(), rest_keys=()):
    """For each diagonal f_u of the window, in order, yield (u, brute, closed).

    closed joins rest_keys, the keys of R, to the gap keys of f_u
    (``_join``); brute is (<keys, f_0..f_{u-1}> : f_u).  When ``_is_colon``
    finds the two equal, brute is closed itself, since equal ideals have
    one minimal generating set; otherwise it is ``_brute_colon``'s.

    The forward half is certified once per chain.  A key k = d' * r' whose
    row minima d' are a diagonal of the window and whose cofactor r' is a
    key of R has k : f in <R> + <gaps of f> for every diagonal f: either k
    meets a gap variable of f, which survives in k : f, or row by row
    d'_i >= f_i (row 1 from the window's first column, row i from
    d'_i > d'_{i-1} >= f_{i-1}), so gcd(k, f) divides d' and r' divides
    k : f.  The prefix diagonals, always scanned, put every gap variable of
    f in a closed ideal that passes.  So each step scans only the prefix
    and the keys that do not split (``_unsplit``); a sorted chain's product
    leaves none.  The steps share one set of colons known to lie in <R>.
    With no keys and no rest this is the single-window closed form,
    otherwise the product one.
    """
    table = _window_table(shape, window)
    keys = list(keys)
    unsplit = _unsplit(shape, table, keys, rest_keys)
    members = set(keys)
    inside = set()
    prefix = []
    for u, f in enumerate(table.diagonals):
        closed = _join(shape, rest_keys, table.gaps[f])
        if _is_colon(shape, closed, f, prefix, keys, unsplit, members, rest_keys, inside):
            brute = closed
        else:
            brute = _brute_colon(shape, prefix + keys, f)
        yield u, brute, closed
        prefix.append(f)
        members.add(f)


def closed_form_colon(shape: GridShape, window: Window, f: GridMonomial) -> MonomialIdeal:
    """Closed form of (<earlier diagonals> : f) inside one window.

    Generated by the gap variables of f; the zero ideal when f is the
    window's top diagonal monomial.  f is looked up by its key in the
    window's table, so a monomial that is not one of its diagonals is a
    ``DomainError``.
    """
    _require(window, Window, "window")
    window.check_against(shape)
    _require(f, GridMonomial, "diagonal", shape)
    gaps = _window_table(shape, window).gaps.get(f.key)
    if gaps is None:
        raise DomainError(f"{f} is not a diagonal monomial of window {window}")
    return _join(shape, (), gaps)


def closed_form_product_colon(
    shape: GridShape, chain: WindowChain, f: GridMonomial, prefix_index: int, caps: Caps = DEFAULT_CAPS
) -> MonomialIdeal:
    """Closed form of (<product of all windows, f_1..f_u> : f_{u+1}).

    The remaining windows' product joins the gap variables of f, whose gap
    floor is taken from the first window.  Requires at least two windows and
    f equal to the first window's diagonal at position prefix_index.
    ``ResourceLimitError`` as soon as the remaining windows' product passes
    ``caps.max_product_gens``.
    """
    _require(chain, WindowChain, "window chain")
    _require(prefix_index, int, "diagonal index")
    _require(caps, Caps, "Caps")
    if len(chain) < 2:
        raise DomainError("product colon closed form needs at least two windows")
    chain.check_against(shape)
    _require(f, GridMonomial, "diagonal", shape)
    first = chain.windows[0]
    table = _window_table(shape, first)
    diagonals = tuple(table.diagonals)
    if not 0 <= prefix_index < len(diagonals):
        raise DomainError(
            f"prefix index {prefix_index} out of range for window {first}"
        )
    if diagonals[prefix_index] != f.key:
        raise DomainError(
            f"{f} is not diagonal #{prefix_index} of window {first}"
        )
    rest = _window_product(shape, chain.windows[1:], caps.max_product_gens, chain)
    return _join(shape, rest.keys, table.gaps[f.key])


def redistribute(shape: GridShape, chain: WindowChain, factors) -> list:
    """Rebalance one diagonal monomial per window so the j-th output takes
    the j-th smallest column in every row.

    The output monomials multiply to the same product, are again diagonal
    monomials, and the j-th lands in the j-th window of the sorted chain.
    Both guarantees are checked on keys before any output is built.
    """
    _require(chain, WindowChain, "window chain")
    chain.check_against(shape)
    factors = _items(factors, GridMonomial, "diagonal", shape)
    if len(factors) != len(chain):
        raise DomainError(f"{len(factors)} factors for {len(chain)} windows")
    selections = []
    for window, g in zip(chain.windows, factors):
        cols = selection_of(g)
        if cols is None:
            raise DomainError(f"{g!r} is not a diagonal monomial")
        selections.append(_columns(shape, cols, window))
    rows = [sorted(cols[i] for cols in selections) for i in range(shape.rows)]
    outputs = [
        _diagonal_key(shape, tuple(row[j] for row in rows)) for j in range(len(chain))
    ]

    # Unconditional guarantees of the construction: a product of monomials
    # is the sum of their keys.
    if sum(outputs) != sum(g.key for g in factors):
        raise EngineError(f"redistribution changed the product of {factors}")
    for window, h in zip(chain.windows, outputs):
        if h not in _window_table(shape, window).diagonals:
            raise EngineError(
                f"redistributed factor {_key_text(shape, h)} is not a diagonal of window {window}"
            )
    return [_from_key(shape, h) for h in outputs]


def verify_product_colons(
    shape: GridShape, chain: WindowChain, caps: Caps = DEFAULT_CAPS
) -> list:
    """Compare brute-force and closed-form colons for every prefix length.

    For u = 0..r-1 the brute colon of (product of all windows, first u
    diagonals of the first window) by diagonal u is compared with the closed
    form of ``closed_form_product_colon``: the remaining windows' product
    joined with the gap variables of diagonal u.  Both come from
    ``_colon_steps``.  Returns one entry per u with both ideals and the
    equality verdict.  ``ResourceLimitError`` as soon as a partial product
    passes ``caps.max_product_gens``.
    """
    _require(chain, WindowChain, "window chain")
    _require(caps, Caps, "Caps")
    if len(chain) < 2:
        raise DomainError("product colon verification needs at least two windows")
    chain.check_against(shape)
    rest = _window_product(shape, chain.windows[1:], caps.max_product_gens, chain)
    product = _window_product(shape, chain.windows[:1], caps.max_product_gens, chain, rest.keys)
    return [
        {"u": u, "brute": brute, "closed": closed, "equal": brute == closed}
        for u, brute, closed in _colon_steps(shape, chain.windows[0], product.keys, rest.keys)
    ]
