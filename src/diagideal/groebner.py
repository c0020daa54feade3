"""A small exact Buchberger engine and the initial-ideal conjecture check.

Division always cancels the largest reducible term against the first eligible
divisor in list order, so remainders are deterministic.  S-pairs are pruned
by the Gebauer-Moller update (Gebauer and Moller, J. Symbolic Comput. 6,
1988), run on the packed lead keys: criteria M and F keep one new pair per
minimal lcm and drop coprime ones, and criterion B drops old pairs that the
new element makes redundant.  The queue pops the surviving pair whose lcm is
smallest in the grid order, ties broken by pair index.  ``is_groebner_basis``
is the unpruned all-pairs check, independent of the construction path.  The
returned basis is the unique reduced one: monic, minimal, tails reduced,
listed descending by leading monomial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, product as iter_product

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, EngineError, ResourceLimitError
from .fields import make_field
from .ideals import MonomialIdeal
from .monomials import GridShape, _divides, _lcm
from .polynomials import Polynomial
from .windows import WindowChain, minor, window_product_ideal


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the basis list, which must share f's grid
    and field.

    No remainder term is divisible by any basis leading monomial.
    """
    basis = tuple(basis)
    for g in basis:
        f._check_compatible(g)
    divisors = [(g.leading_monomial, g) for g in basis if not g.is_zero]
    shape = f.shape
    field = f.field
    remainder = []
    work = f
    while work.terms:
        head_m, head_c = work.terms[0]
        for lm, g in divisors:
            if _divides(lm.key, head_m.key, shape):
                factor = head_m / lm
                scale = field.mul(head_c, field.invert(g.leading_coefficient))
                work = work - g.times_term(factor, scale)
                break
        else:
            remainder.append((head_m, head_c))
            work = Polynomial(work.shape, field, work.terms[1:])
    return Polynomial(shape, field, tuple(remainder))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The classical S-polynomial, with both lead terms scaled to the lcm."""
    if f.is_zero or g.is_zero:
        raise DomainError("S-polynomial of the zero polynomial is undefined")
    field = f.field
    lcm = f.leading_monomial.lcm(g.leading_monomial)
    left = f.times_term(lcm / f.leading_monomial, field.invert(f.leading_coefficient))
    right = g.times_term(lcm / g.leading_monomial, field.invert(g.leading_coefficient))
    return left - right


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
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise DomainError("no nonzero generators")
    shape = gens[0].shape
    field = gens[0].field
    for g in gens:
        g._check_compatible(gens[0])

    basis = []
    seen = set()
    for g in gens:
        g = g.monic()
        if g.terms not in seen:
            seen.add(g.terms)
            basis.append(g)

    leads = []  # packed lead key of each basis element
    active = []  # indices new pairs are formed with: no later lead divides theirs
    live = {}  # pending pair (i, j) -> packed lcm of its leads
    queue = []  # heap of (lcm, i, j); pairs no longer in live are skipped

    def update(h: int) -> None:
        """Gebauer-Moller: add basis[h], pruning new and old pairs."""
        lh = basis[h].leading_monomial.key
        leads.append(lh)
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
        remainder = reduce(s_polynomial(basis[i], basis[j]), basis)
        if not remainder.is_zero:
            basis.append(remainder.monic())
            update(len(basis) - 1)

    reduced = _reduce_basis(shape, field, basis)
    return GroebnerBasis(shape, field, reduced, spairs_reduced=reductions)


def _reduce_basis(shape, field, basis) -> tuple:
    """Canonicalize: minimal lead terms, tails reduced, descending order.

    No lead of a minimal basis divides another, so reduction never changes a
    lead term.  Whether a polynomial is reduced depends only on the others'
    leads, so one inter-reduction pass yields the reduced basis.
    """
    minimal = []
    for g in sorted(basis, key=lambda g: g.leading_monomial.key):
        lead = g.leading_monomial.key
        if not any(_divides(h.leading_monomial.key, lead, shape) for h in minimal):
            minimal.append(g)
    for idx in range(len(minimal)):
        replacement = reduce(minimal[idx], minimal[:idx] + minimal[idx + 1 :]).monic()
        if replacement.is_zero:
            raise EngineError("minimal basis element reduced to zero")
        minimal[idx] = replacement
    minimal.sort(key=lambda g: g.leading_monomial.key, reverse=True)
    return tuple(minimal)


def is_groebner_basis(basis) -> bool:
    """Post-hoc soundness: every S-polynomial reduces to zero.

    Checks all pairs, independent of the pair update used during
    construction, except those whose leading monomials are coprime.  By
    Buchberger's first criterion such an S-polynomial always reduces to
    zero, so the check stays exact; reducing it anyway could pass the
    exponent bound on a basis whose own exponents stay far below it.
    """
    polys = [g for g in basis if not g.is_zero]
    for f, g in combinations(polys, 2):
        if f.leading_monomial.gcd(g.leading_monomial).is_unit:
            continue
        if not reduce(s_polynomial(f, g), polys).is_zero:
            return False
    return True


def initial_ideal(basis) -> MonomialIdeal:
    """Ideal of leading monomials of the given basis."""
    polys = list(basis)
    if not polys:
        raise DomainError("initial ideal of an empty basis is undefined")
    shape = polys[0].shape
    return MonomialIdeal(shape, [g.leading_monomial for g in polys])


def natural_window_generators(shape: GridShape, chain: WindowChain, field) -> list:
    """Products of one maximal minor per window, deduplicated."""
    chain.check_against(shape)
    per_window = []
    for w in chain.windows:
        minors = [
            minor(shape, cols, field)
            for cols in combinations(range(w.first, w.last + 1), shape.rows)
        ]
        per_window.append(minors)
    products = []
    seen = set()
    for combo in iter_product(*per_window):
        poly = combo[0]
        for factor in combo[1:]:
            poly = poly * factor
        key = poly.monic().terms
        if key not in seen:
            seen.add(key)
            products.append(poly)
    return products


def conjecture_check(
    shape: GridShape,
    chain: WindowChain,
    characteristic: int = 32003,
    caps: Caps = DEFAULT_CAPS,
) -> dict:
    """Does the initial ideal of the window minor product equal the diagonal
    product, and do the natural generators already lead the reduced basis?

    Returns a verdict record; a false verdict carries a witness polynomial
    whose leading monomial escapes the diagonal product.
    """
    chain.check_against(shape)
    if shape.rows > caps.max_conjecture_rows or shape.cols > caps.max_conjecture_cols:
        raise ResourceLimitError(
            f"conjecture check capped at {caps.max_conjecture_rows}x"
            f"{caps.max_conjecture_cols}, got {shape.rows}x{shape.cols}",
            snapshot={"shape": [shape.rows, shape.cols]},
        )
    if len(chain) > caps.max_conjecture_factors:
        raise ResourceLimitError(
            f"conjecture check capped at {caps.max_conjecture_factors} factors, "
            f"got {len(chain)}",
            snapshot={"factors": len(chain)},
        )
    field = make_field(characteristic)
    start = time.perf_counter()
    naturals = natural_window_generators(shape, chain, field)
    basis = buchberger(naturals, caps)
    ini = initial_ideal(basis.polys)
    diagonal_product = window_product_ideal(shape, chain.windows)

    # The diagonal product embeds in the initial ideal by construction; a
    # failure here would be an engine bug, not a mathematical finding.
    for g in diagonal_product.gens:
        if not ini.contains(g):
            raise EngineError(
                f"initial ideal misses diagonal generator {g}: the Groebner "
                "engine is broken"
            )

    natural_lms = {p.leading_monomial for p in naturals}
    covered = all(p.leading_monomial in natural_lms for p in basis.polys)
    equal = ini == diagonal_product
    millis = int((time.perf_counter() - start) * 1000)
    verdict = {
        "shape": [shape.rows, shape.cols],
        "chain": [[w.first, w.last] for w in chain.windows],
        "char": characteristic,
        "ini_equals_J": equal,
        "natural_gens_are_GB": covered,
        "spairs": basis.spairs_reduced,
        "millis": millis,
    }
    if not equal:
        witness = next(
            p for p in basis.polys if not diagonal_product.contains(p.leading_monomial)
        )
        verdict["witness"] = str(witness)
    return verdict
