"""A small exact Buchberger engine and the initial-ideal conjecture check.

This module holds the pair logic; the term merge it divides with is
``polynomials._add_multiple``, the one that ``Polynomial``'s sums run.  All
division runs through ``_reduce``, on the packed keys a ``Polynomial``
holds, and builds no ``GridMonomial``.  A basis' division data (lead keys,
and each tail made monic, negated and held as a merge row of (key,
coefficient) pairs) is built once per basis, not once per division.  The
kernel always cancels the largest reducible term against the first divisor
in list order whose lead divides it, so remainders are deterministic; the
multiple is subtracted in one merge of the shifted tail into the ascending
work list.  While every lead has one degree d, as the leads of the natural
generators do, the basis keeps a table from each lead to its first index:
a term of degree d or d + 1 has no divisor of degree d but itself or its
quotient by one variable, so a few dict lookups find the same first
divisor, and a term they miss is scanned only when its degree is higher.
A division that would pass exponent 127 raises ``DomainError``.

S-pairs are pruned by the Gebauer-Moller update (Gebauer and Moller, J.
Symbolic Comput. 6, 1988), run on the packed lead keys: criteria M and F
keep one new pair per minimal lcm and drop coprime ones, and criterion B
drops old pairs that the new element makes redundant.  The queue pops the
surviving pair whose lcm is smallest in the grid order, ties broken by pair
index.  ``is_groebner_basis`` is the unpruned all-pairs check, independent
of the construction path.  The returned basis is the unique reduced one:
monic, minimal, tails reduced, listed descending by leading monomial.

``conjecture_check`` first tries a linear-quotients certificate.  The leads
of the natural generators are the diagonal product J, and J has linear
quotients in its canonical order, so its first syzygies come from one pair
per (j, x in V_j) (Herzog and Takayama, Manuscripta Math. 2002).  The pairs
are read off ``quotients._linear_quotients``, the V_j walk the mapping cone
also reads.  J's generators are distinct and of one degree, so a product of
more than ``quotients._SHADOW_WALK_KEYS`` generators takes the shadow walk,
near-linear in them, and a smaller one the pair walk over every colon.
Once those S-polynomials reduce to zero the kept generators are
a Groebner basis (Moller, Mora and Traverso, ISSAC 1992), and their leads
are J, so the initial ideal is J: a certified verdict is true on both
counts by proof and is read off the certificate, whose ``spairs`` is the
sum of the |V_j|, the first total Betti number of J.  Whenever the
certificate cannot decide (a nonzero remainder, no linear quotients, or more
pairs than ``caps.max_spairs``) the check falls back to ``buchberger``; only
that path builds the initial ideal and compares it with J, gives false
verdicts their witness and reports Gebauer-Moller's pair count.

The natural products are read from ``windows._minor_product``'s
process-wide cache, with their division rows, once ``minor``'s rows cap,
the product cap and the term cap have been checked for the chain.  Chains
share most of their S-pairs and duplicate-lead products, so each distinct
one is reduced once while its product stays cached.  A reduction to zero
is recorded on the cache entry of the product it reduced, keyed by the
column multiset that names the pair's other product (None for a
duplicate), with the multisets of the divisors it used; a later chain
whose kept generators include those divisors takes it as reduced.  A
record leaves the cache with its product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, product as iter_product
from math import factorial

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, EngineError, ResourceLimitError, _items, _require
from .fields import _Field, make_field
from .ideals import MonomialIdeal
from .monomials import (
    GridShape,
    _degree,
    _divides,
    _first_divisor,
    _from_key,
    _lcm,
    _lookup_divisor,
    _undivided,
)
from .polynomials import Polynomial, _add_multiple, _division_row, _polynomial
from .quotients import _linear_quotients
from .windows import (
    WindowChain,
    _check_minor_rows,
    _minor_product,
    _past_cap,
    _report_header,
    _window_product,
)


class _Basis:
    """Division data of a basis list, built once per basis.

    ``leads`` holds the lead key of each element in list order, the order
    divisors are tried in.  ``rows[i]`` is the division row of the i-th
    element (``polynomials._division_row``): the merge row of its tail made
    monic and negated, taken from the natural product cache when the
    element is one.  While every lead has one degree, ``firsts`` maps each
    lead key to its first index, the table ``monomials._lookup_divisor``
    reads.  A lead of another degree sets it to None for good; a None table
    only means every divisor is found by scan.
    """

    __slots__ = ("shape", "field", "leads", "rows", "firsts", "degree")

    def __init__(self, shape: GridShape, field, polys=()):
        self.shape = shape
        self.field = field
        self.leads = []
        self.rows = []
        self.firsts = {}
        self.degree = None
        for g in polys:
            self.append(g)

    def append(self, g: Polynomial, row=None) -> None:
        """Add a nonzero element checked to share the basis' grid and field,
        with its division row when one is at hand; a lead of another degree
        drops the table."""
        lead = g.keys[-1]
        if self.firsts is not None:
            degree = _degree(lead, self.shape)
            if self.degree is None:
                self.degree = degree
            if degree == self.degree:
                self.firsts.setdefault(lead, len(self.leads))
            else:
                self.firsts = None
        self.leads.append(lead)
        self.rows.append(_division_row(g) if row is None else row)


def _reduce(keys, coeffs, basis: _Basis, used: set | None = None) -> Polynomial:
    """The division kernel: the remainder of the polynomial held in
    ascending ``keys`` and ``coeffs`` on division by the basis.

    The largest term is cancelled against the first element, in list order,
    whose lead divides it; a term no lead divides goes to the remainder.
    While the leads share one degree d that element is looked up in
    ``basis.firsts`` first.  A miss is final for a term of degree at most
    d + 1, which has no divisor the lookups skip; only a term of higher
    degree is then scanned.  Given a set ``used``, the index of every
    element cancelled with is added to it.
    """
    keys, coeffs = list(keys), list(coeffs)
    shape, leads, rows, firsts = basis.shape, basis.leads, basis.rows, basis.firsts
    p = basis.field.characteristic
    rest_keys, rest_coeffs = [], []
    while keys:
        key = keys.pop()
        c = coeffs.pop()
        if not firsts:
            i = _first_divisor(key, leads, shape)
        else:
            i = _lookup_divisor(key, firsts, shape)
            if i < 0 and _degree(key, shape) > basis.degree + 1:
                i = _first_divisor(key, leads, shape)
        if i < 0:
            rest_keys.append(key)
            rest_coeffs.append(c)
        else:
            if used is not None:
                used.add(i)
            keys, coeffs = _add_multiple(keys, coeffs, c, key - leads[i], rows[i], shape, p)
    return _polynomial(shape, basis.field, reversed(rest_keys), reversed(rest_coeffs))


def _s_pair(basis: _Basis, i: int, j: int):
    """``s_polynomial`` of elements i and j, as ascending keys and coeffs."""
    shape, p = basis.shape, basis.field.characteristic
    lead_i, lead_j = basis.leads[i], basis.leads[j]
    lcm = _lcm(lead_i, lead_j, shape)
    # x^q * (element i, monic) without its lead, then minus x^q' * (element j,
    # monic) without its lead: the two leads cancel at the lcm.  The rows hold
    # negated tails, and -1 and 1 act as field elements under + and *.
    keys, coeffs = _add_multiple([], [], -1, lcm - lead_i, basis.rows[i], shape, p)
    return _add_multiple(keys, coeffs, 1, lcm - lead_j, basis.rows[j], shape, p)


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis list, which must share f's grid
    and field.

    No remainder term is divisible by any basis leading monomial.
    """
    _require(f, Polynomial, "polynomial")
    basis = _items(basis, Polynomial, "polynomial")
    for g in basis:
        f._check_compatible(g)
    divisors = _Basis(f.shape, f.field, [g for g in basis if not g.is_zero])
    return _reduce(f.keys, f.coeffs, divisors)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The classical S-polynomial, with both lead terms scaled to the lcm."""
    _require(f, Polynomial, "polynomial")
    _require(g, Polynomial, "polynomial")
    if f.is_zero or g.is_zero:
        raise DomainError("S-polynomial of the zero polynomial is undefined")
    f._check_compatible(g)
    return _polynomial(f.shape, f.field, *_s_pair(_Basis(f.shape, f.field, (f, g)), 0, 1))


@dataclass(frozen=True)
class GroebnerBasis:
    shape: GridShape
    field: object
    polys: tuple  # reduced basis, descending by leading monomial
    spairs_reduced: int = 0

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


def buchberger(generators, caps: Caps = DEFAULT_CAPS) -> GroebnerBasis:
    """Reduced Groebner basis of the given polynomials.

    Raises ResourceLimitError with a progress snapshot when more than
    ``caps.max_spairs`` S-polynomial reductions would be needed.
    """
    _require(caps, Caps, "Caps")
    gens = [g for g in _items(generators, Polynomial, "polynomial") if not g.is_zero]
    if not gens:
        raise DomainError("no nonzero generators")
    shape = gens[0].shape
    field = gens[0].field
    for g in gens:
        g._check_compatible(gens[0])

    basis = list(dict.fromkeys(g.monic() for g in gens))
    divisors = _Basis(shape, field, basis)

    leads = divisors.leads  # packed lead key of each basis element
    active = []  # indices new pairs are formed with: no later lead divides theirs
    live = {}  # pending pair (i, j) -> packed lcm of its leads
    queue = []  # heap of (lcm, i, j); pairs no longer in live are skipped

    def update(h: int) -> None:
        """Gebauer-Moller: add basis[h], pruning new and old pairs."""
        lh = leads[h]
        # Criteria M and F: one pair per lcm, in ascending lcm order; a pair
        # goes when a kept lcm properly divides its own, and an lcm class
        # goes whole when any of its pairs has coprime leads.
        classes = {}
        for g in active:
            lg = leads[g]
            lcm = _lcm(lg, lh, shape)
            coprime = lcm == lh + lg
            if lcm in classes:
                classes[lcm][1] |= coprime
            else:
                classes[lcm] = [g, coprime]
        minimal = []
        fresh = []
        for lcm in sorted(classes):
            if any(_divides(m, lcm, shape) for m in minimal):
                continue
            minimal.append(lcm)
            g, coprime = classes[lcm]
            if not coprime:
                fresh.append((lcm, g))
        # Criterion B: an old pair goes when lm(h) divides its lcm and
        # neither of its pairs with h has that same lcm.
        for (i, j), lcm in list(live.items()):
            if (
                _divides(lh, lcm, shape)
                and _lcm(lh, leads[i], shape) != lcm
                and _lcm(lh, leads[j], shape) != lcm
            ):
                del live[i, j]
        for lcm, g in fresh:
            live[g, h] = lcm
            heappush(queue, (lcm, g, h))
        active[:] = [g for g in active if not _divides(lh, leads[g], shape)]
        active.append(h)

    for h in range(len(basis)):
        update(h)

    reductions = 0
    while queue:
        lcm, i, j = heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        if reductions >= caps.max_spairs:
            raise ResourceLimitError(
                f"S-pair cap {caps.max_spairs} reached",
                snapshot={
                    "basis_size": len(basis),
                    "reductions": reductions,
                    "pending": len(live),
                },
            )
        reductions += 1
        remainder = _reduce(*_s_pair(divisors, i, j), divisors)
        if remainder:
            g = remainder.monic()
            basis.append(g)
            divisors.append(g)
            update(len(basis) - 1)

    reduced = _reduce_basis(shape, field, basis)
    return GroebnerBasis(shape, field, reduced, spairs_reduced=reductions)


def _reduce_basis(shape, field, basis) -> tuple:
    """Canonicalize: minimal lead terms, tails reduced, descending order.

    Each element's tail is reduced over the minimal basis as it stands,
    unreduced, and its lead put back.  A lead divides no monomial below it,
    and every term the tail's reduction meets lies below the lead, so no
    element is its own divisor, and the first divisor found is the first
    among the others.  The result keeps its lead, and no other term of it
    lies in the initial ideal.  The monic element of the ideal with a given
    lead and no other term in the initial ideal is unique (the difference
    of two would be an element with no term there, hence zero), so the
    results, made monic, are the reduced basis whichever divisors produced
    them.
    """
    minimal = []
    for g in sorted(basis, key=lambda g: g.keys[-1]):
        if not any(_divides(h.keys[-1], g.keys[-1], shape) for h in minimal):
            minimal.append(g)
    divisors = _Basis(shape, field, minimal)
    reduced = []
    for g in minimal:
        tail = _reduce(g.keys[:-1], g.coeffs[:-1], divisors)
        g = _polynomial(shape, field, tail.keys + g.keys[-1:], tail.coeffs + g.coeffs[-1:])
        reduced.append(g.monic())
    reduced.sort(key=lambda g: g.keys[-1], reverse=True)
    return tuple(reduced)


def is_groebner_basis(basis) -> bool:
    """Post-hoc soundness: every S-polynomial reduces to zero.

    Checks all pairs, independent of the pair update used during
    construction, except those whose leading monomials are coprime.  By
    Buchberger's first criterion such an S-polynomial always reduces to
    zero, so the check stays exact; reducing it anyway could pass the
    exponent bound on a basis whose own exponents stay far below it.
    """
    polys = [g for g in _items(basis, Polynomial, "polynomial") if not g.is_zero]
    if not polys:
        return True
    for g in polys:
        g._check_compatible(polys[0])
    shape = polys[0].shape
    divisors = _Basis(shape, polys[0].field, polys)
    leads = divisors.leads
    for i, j in combinations(range(len(polys)), 2):
        if _lcm(leads[i], leads[j], shape) == leads[i] + leads[j]:
            continue
        if _reduce(*_s_pair(divisors, i, j), divisors):
            return False
    return True


def initial_ideal(basis) -> MonomialIdeal:
    """Ideal of leading monomials of the given basis: nonzero polynomials
    on one grid."""
    polys = _items(basis, Polynomial, "polynomial")
    if not polys:
        raise DomainError("initial ideal of an empty basis is undefined")
    if not all(polys):
        raise DomainError("zero polynomial has no leading term")
    shape = polys[0].shape
    leads = [_require(g, Polynomial, "generator", shape).keys[-1] for g in polys]
    return MonomialIdeal._from_keys(shape, leads)


def natural_window_generators(
    shape: GridShape, chain: WindowChain, field, caps: Caps = DEFAULT_CAPS
) -> list:
    """Products of one maximal minor per window, one per column multiset.

    Maximal minors on distinct column sets are pairwise non-associate
    irreducibles, so by unique factorization two products agree up to a
    scalar exactly when their multisets of column sets agree.  A combination
    whose multiset came earlier is skipped before it is multiplied.  The
    arguments are type-checked, the rows cap of ``minor`` checked once per
    chain, the multisets counted against ``caps.max_product_gens``
    (``ResourceLimitError`` at the first past it) and their terms bounded
    against ``caps.max_natural_terms`` before the products are read from
    ``windows._minor_product``'s process-wide cache.
    """
    _require(chain, WindowChain, "window chain")
    _require(caps, Caps, "Caps")
    _require(field, _Field, "field")
    chain.check_against(shape)
    return [poly for _, poly, _, _ in _natural_products(shape, chain, field, caps)]


def _natural_products(shape: GridShape, chain: WindowChain, field, caps: Caps) -> list:
    """``natural_window_generators`` on checked arguments, as (multiset,
    product, row, reductions): the multiset is the sorted tuple of column
    sets that names the product, and the row and the reductions are its
    cache entry's (``windows._minor_product``).  The distinct multisets,
    one product each, are counted against ``caps.max_product_gens``, and
    their terms bounded against ``caps.max_natural_terms``, before any
    product is read: a product of s maximal minors of m rows has at most
    (m!)^s terms."""
    _check_minor_rows(shape, caps)
    per_window = [combinations(range(w.first, w.last + 1), shape.rows) for w in chain.windows]
    multisets = {}
    for combo in iter_product(*per_window):
        multisets[tuple(sorted(combo))] = None
        if len(multisets) > caps.max_product_gens:
            raise _past_cap(chain, len(multisets), caps.max_product_gens)
    terms = len(multisets) * factorial(shape.rows) ** len(chain)
    if terms > caps.max_natural_terms:
        raise ResourceLimitError(
            f"natural products bound at {terms} terms, cap is {caps.max_natural_terms}",
            snapshot={"chain": str(chain), "terms": terms},
        )
    return [(m, *_minor_product(shape, m, field)) for m in multisets]


def _certificate(naturals, product: MonomialIdeal, caps: Caps):
    """The number of S-pairs reduced when the linear-quotients certificate
    shows that the kept natural generators, one per lead, form a Groebner
    basis of all the naturals; None when it cannot decide.  naturals lists
    (multiset, product, row, reductions), as ``_natural_products`` gives
    them; a row of None is built.

    The product's V_j walk (``quotients._linear_quotients``) records, per
    generator m_j, each single-variable colon m_k : m_j with its first k:
    by the shadow walk above ``quotients._SHADOW_WALK_KEYS`` generators,
    whose keys are distinct and of one degree, by the pair walk below.
    When the product has linear quotients, its first syzygies are generated
    by the pairs (k, j) so recorded (Herzog and Takayama, Manuscripta Math.
    2002).  Then the kept set G is a Groebner basis once each of those
    S-polynomials has a standard representation over it (Moller, Mora and
    Traverso, ISSAC 1992), and the other naturals, the duplicates, lie in
    its ideal once they reduce to zero over it.  Its leads are then the
    product's generators, checked here, so the initial ideal is the product.

    A reduction to zero, of S(g_k, g_j) or of a duplicate, writes it as a
    sum of multiples of the divisors D it cancelled with, none leading
    above it: a standard representation over D, and so over any set that
    contains D.  Each such reduction is recorded, with the multisets of D,
    in the reductions of a product: S(g_k, g_j) in g_j's under g_k's
    multiset, a duplicate in its own under None.  A later chain whose kept
    set contains D reuses it and reduces nothing.  Pairs, then duplicates,
    are looked up in one loop, and each miss is reduced over G, whose
    division data is built at the first miss.  A remainder that is not
    zero shows that G is no Groebner basis, or that the duplicate is not
    in its ideal, for over a Groebner basis every element of its ideal
    reduces to zero, whichever divisor each step picks.  So the certificate
    succeeds exactly when G is a Groebner basis of all the naturals,
    whichever reductions the records hold, and the verdict and the count
    do not depend on them.
    """
    shape = product.shape
    leads = {}
    duplicates = []
    for entry in naturals:
        if leads.setdefault(entry[1].keys[-1], entry) is not entry:
            duplicates.append(entry)
    keys = product.keys
    if tuple(sorted(leads, reverse=True)) != keys:
        raise EngineError(
            "natural generator leads differ from the diagonal product: the "
            "Groebner engine is broken"
        )
    walk = _linear_quotients(keys, shape)
    if walk is None:
        return None
    pairs = [(k, j) for j, firsts in enumerate(walk) for k in firsts.values()]
    if len(pairs) > caps.max_spairs:
        return None
    kept = [leads[k] for k in keys]
    names = [multiset for multiset, _, _, _ in kept]
    named = set(names)
    work = [(kept[j][3], names[k], (k, j)) for k, j in pairs]
    work += [(reductions, None, g) for _, g, _, reductions in duplicates]
    divisors = None
    for reductions, name, reduced in work:
        recorded = reductions.get(name)
        if recorded is not None and recorded <= named:
            continue
        if divisors is None:
            divisors = _Basis(shape, kept[0][1].field)
            for _, g, row, _ in kept:
                divisors.append(g, row)
        terms = (reduced.keys, reduced.coeffs) if name is None else _s_pair(divisors, *reduced)
        used = set()
        if _reduce(*terms, divisors, used):
            return None
        reductions[name] = frozenset(names[i] for i in used)
    return len(pairs)


def conjecture_check(
    shape: GridShape,
    chain: WindowChain,
    characteristic: int = 32003,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Does the initial ideal of the window minor product equal the diagonal
    product, and do the natural generators already lead the reduced basis?

    Returns a verdict record; a false verdict carries a witness polynomial
    whose leading monomial escapes the diagonal product.  A chain the
    certificate decides has both answers true by proof, with the
    certificate's pair count; only the Buchberger fallback builds the
    initial ideal and compares it.  The diagonal product is formed first,
    under ``caps.max_product_gens``, and the natural products are bounded
    under ``caps.max_natural_terms`` before any forms.
    """
    _require(chain, WindowChain, "window chain")
    _require(caps, Caps, "Caps")
    chain.check_against(shape)
    field = make_field(characteristic)
    start = time.perf_counter()
    diagonal_product = _window_product(shape, chain.windows, caps.max_product_gens, chain)
    naturals = _natural_products(shape, chain, field, caps)
    spairs = _certificate(naturals, diagonal_product, caps)
    equal = covered = True
    if spairs is None:
        basis = buchberger([g for _, g, _, _ in naturals], caps)
        spairs = basis.spairs_reduced
        ini = initial_ideal(basis)
        # The diagonal product embeds in the initial ideal by construction;
        # a failure here would be an engine bug, not a mathematical finding.
        # Most generators of J are leads themselves; only the rest need a scan.
        leads = set(ini.keys)
        missing = _undivided([k for k in diagonal_product.keys if k not in leads], ini.keys, shape)
        if missing:
            raise EngineError(
                f"initial ideal misses diagonal generator {_from_key(shape, missing[0])}: "
                "the Groebner engine is broken"
            )
        natural_leads = {g.keys[-1] for _, g, _, _ in naturals}
        covered = all(p.keys[-1] in natural_leads for p in basis)
        equal = ini == diagonal_product
    verdict = {
        **_report_header(shape, chain),
        "char": characteristic,
        "ini_equals_J": equal,
        "natural_gens_are_GB": covered,
        "spairs": spairs,
        "millis": int((time.perf_counter() - start) * 1000),
    }
    if not equal:
        witness = next(p for p in basis if not diagonal_product.contains(p.leading_monomial))
        verdict["witness"] = str(witness)
    return verdict
