"""Graded Betti numbers, via simplicial homology or the mapping cone.

The homology oracle reads Betti numbers off reduced homology of the monomial
ideal's squarefree divisor complexes: for each candidate multidegree b (an lcm
of a generator subset) the complex holds the squarefree monomials s with b/s
in the ideal, and beta_{i,b} is the rank of reduced homology in dimension i-1
over the chosen field.  Multidegrees are packed keys and faces squarefree
keys; a monomial is built only to name b in the face-cap error.  Ranks come
from exact Gaussian elimination on sparse boundary matrices, in plain ``-``
and ``*`` with one ``% p`` per entry at characteristic p, and pivots
inverted by ``field.invert``: Fractions at char 0, residues at char p; no
floating point, no probabilistic shortcuts.

When a generator order has linear quotients, the mapping cone gives the same
table combinatorially: the generator whose colon has d variables contributes
binomial(d, i) to the i-th Betti number, one degree step up per i.  The d come
from the V_j walk (``quotients._linear_quotients``), and the count is the same
over every field.  The walk takes its shadow kernel on more than
``quotients._SHADOW_WALK_KEYS`` distinct generators of one degree, as a
window product has, and its pair kernel otherwise: on fewer generators,
so on every ideal within the homology oracle's default 12-generator cap,
and on mixed degrees.

``betti`` is the one path from an ideal to its table: the cone when the walk
finds linear quotients, the homology oracle (``betti_table``) otherwise.
"""

from __future__ import annotations

from math import comb

from .caps import DEFAULT_CAPS, Caps
from .errors import DomainError, ResourceLimitError, _require
from .fields import make_field
from .ideals import MonomialIdeal
from .monomials import _degree, _divides, _from_key, _lcm, _radical
from .quotients import _linear_quotients


class BettiTable:
    """Betti numbers keyed by (homological index i, internal degree j)."""

    __slots__ = ("characteristic", "cells")

    def __init__(self, characteristic: int, entries):
        """DomainError unless characteristic is an int and entries a dict of
        (int, int) keys and int values; zero values are dropped."""
        self.characteristic = _require(characteristic, int, "characteristic")
        entries = _require(entries, dict, "{(i, j): beta} dict")
        for key, beta in entries.items():
            if not (
                isinstance(key, tuple)
                and len(key) == 2
                and all(isinstance(x, int) for x in key)
                and isinstance(beta, int)
            ):
                raise DomainError(f"not an (int, int): int Betti entry: {key!r}: {beta!r}")
        self.cells = tuple(sorted((i, j, beta) for (i, j), beta in entries.items() if beta))

    def beta(self, i: int, j: int) -> int:
        if not (isinstance(i, int) and isinstance(j, int)):
            raise DomainError(f"Betti indices must be integers, got ({i!r}, {j!r})")
        for ci, cj, beta in self.cells:
            if (ci, cj) == (i, j):
                return beta
        return 0

    def totals(self) -> dict:
        """Total Betti number per homological index."""
        out = {}
        for i, _, beta in self.cells:
            out[i] = out.get(i, 0) + beta
        return out

    @property
    def regularity(self) -> int:
        if not self.cells:
            raise DomainError("empty Betti table has no regularity")
        return max(j - i for i, j, _ in self.cells)

    @property
    def projective_dimension(self) -> int:
        if not self.cells:
            raise DomainError("empty Betti table has no projective dimension")
        return max(i for i, _, _ in self.cells)

    def same_entries(self, other: "BettiTable") -> bool:
        _require(other, BettiTable, "Betti table")
        return self.cells == other.cells

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.characteristic == other.characteristic and self.cells == other.cells

    def __hash__(self):
        return hash((self.characteristic, self.cells))

    def to_json_obj(self) -> dict:
        return {
            "char": self.characteristic,
            "rows": [{"i": i, "j": j, "beta": beta} for i, j, beta in self.cells],
            "reg": self.regularity,
        }

    def __repr__(self):
        body = ", ".join(f"b[{i},{j}]={beta}" for i, j, beta in self.cells)
        return f"BettiTable(char {self.characteristic}: {body})"


def _divisor_complex(ideal: MonomialIdeal, b: int, caps: Caps = DEFAULT_CAPS):
    """Faces of the squarefree divisor complex of an ideal at the multidegree
    key b, as sorted squarefree keys per dimension (the empty face has
    dimension -1); None when the complex is a full simplex on at least one
    vertex, which is contractible.

    Faces are the squarefree s dividing b with b/s still inside the ideal:
    the union of the full simplices on supp(b/g) over generators g dividing
    b.  Larger facets are walked first, and a facet that is already a face
    is skipped.  Raises ResourceLimitError as soon as the walk finds more than
    ``caps.max_koszul_faces`` faces.
    """
    shape = ideal.shape
    facets = {_radical(b - g, shape) for g in ideal.keys if _divides(g, b, shape)}
    facets = sorted(facets, key=int.bit_count, reverse=True)
    if facets and facets[0] and all(f & facets[0] == f for f in facets):
        return None
    faces = set()
    for facet in facets:
        if facet in faces:  # inside a larger facet, so all its subsets are too
            continue
        sub = facet
        while True:
            faces.add(sub)
            if len(faces) > caps.max_koszul_faces:
                text = str(_from_key(shape, b))
                raise ResourceLimitError(
                    f"divisor complex at {text} exceeds {caps.max_koszul_faces} faces",
                    snapshot={"multidegree": text},
                )
            if not sub:
                break
            sub = (sub - 1) & facet
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(face.bit_count() - 1, []).append(face)
    return by_dim


def _reduced_homology(ideal: MonomialIdeal, b: int, field, caps: Caps = DEFAULT_CAPS) -> dict:
    """Reduced homology ranks per dimension of the divisor complex at b."""
    by_dim = _divisor_complex(ideal, b, caps)
    if by_dim is None:
        return {}
    ranks = {
        d: _rank_of_columns(_boundary_columns(by_dim[d - 1], by_dim[d]), field)
        for d in by_dim
        if d - 1 in by_dim
    }
    homology = {}
    for d in sorted(by_dim):
        h = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            homology[d] = h
    return homology


def _rank_of_columns(columns, field) -> int:
    """Exact rank of a sparse integer matrix given as row->coeff columns.

    Elimination runs on plain ``-`` and ``*``, with one ``% p`` per entry at
    characteristic p; the field only inverts pivots.  Entries enter as the
    integers given (reduced mod p), and each pivot row is kept scaled to a
    unit pivot and without its pivot entry, keyed by the pivot's row.  At
    char p a pivot row keeps inv * v unreduced, below p**2: every entry it
    changes is reduced.
    """
    p = field.characteristic
    pivots = {}
    for col in columns:
        if p:
            work = {row: v % p for row, v in col.items() if v % p}
        else:
            work = {row: v for row, v in col.items() if v}
        while work:
            row = min(work)
            c = work.pop(row)
            pivot = pivots.get(row)
            if pivot is None:
                inv = field.invert(c)
                pivots[row] = {r: inv * v for r, v in work.items()}
                break
            for r, v in pivot.items():
                nv = work.get(r, 0) - c * v
                if p:
                    nv %= p
                if nv:
                    work[r] = nv
                else:
                    work.pop(r, None)
    return len(pivots)


def _boundary_columns(lower_masks, upper_masks):
    """Boundary matrix columns from dimension d faces to dimension d-1."""
    index = {mask: k for k, mask in enumerate(lower_masks)}
    columns = []
    for mask in upper_masks:
        col = {}
        sign = 1
        sub = mask
        while sub:
            low = sub & -sub
            col[index[mask ^ low]] = sign
            sign = -sign
            sub ^= low
        if not col:  # a vertex maps to the empty face (augmentation)
            col[index[0]] = 1
        columns.append(col)
    return columns


def _candidate_multidegrees(ideal: MonomialIdeal, caps: Caps) -> list:
    """The distinct lcm keys of nonempty generator subsets, by degree then key.

    The lcms are closed up one generator at a time, so memory stays bounded
    by the cap.
    """
    shape = ideal.shape
    seen = set()
    for g in ideal.keys:
        seen |= {_lcm(s, g, shape) for s in seen}
        seen.add(g)
        if len(seen) > caps.max_lcm_candidates:
            raise ResourceLimitError(
                f"more than {caps.max_lcm_candidates} candidate multidegrees",
                snapshot={"generators": len(ideal)},
            )
    return sorted(seen, key=lambda k: (_degree(k, shape), k))


def betti_table(
    ideal: MonomialIdeal, characteristic: int = 0, caps: Caps = DEFAULT_CAPS
) -> BettiTable:
    """Full graded Betti table of a monomial ideal by the homology oracle.

    Candidate multidegrees are the lcms of generator subsets; each contributes
    the reduced homology ranks of its squarefree divisor complex.  A complex
    that is a single full simplex is contractible and skipped (unless it is a
    bare point-free complex, which marks a minimal generator).
    """
    _require(ideal, MonomialIdeal, "monomial ideal")
    _require(caps, Caps, "Caps")
    if ideal.is_zero:
        raise DomainError("Betti table of the zero ideal is undefined")
    if len(ideal) > caps.max_oracle_gens:
        raise ResourceLimitError(
            f"homology oracle capped at {caps.max_oracle_gens} generators, "
            f"got {len(ideal)}",
            snapshot={"generators": len(ideal)},
        )
    field = make_field(characteristic)
    entries = {}
    for b in _candidate_multidegrees(ideal, caps):
        degree = _degree(b, ideal.shape)
        for d, h in _reduced_homology(ideal, b, field, caps).items():
            key = (d + 1, degree)
            entries[key] = entries.get(key, 0) + h
    return BettiTable(characteristic, entries)


def _cone(ideal: MonomialIdeal, characteristic: int):
    """The mapping-cone table of the ideal's canonical generator order, or
    None when that order lacks linear quotients.

    Generator j contributes binomial(|V_j|, i) in degree deg + i, with V_j
    from the ideal's one V_j walk.  The count does not depend on the field:
    ``characteristic`` is validated and labels the table.
    """
    _require(ideal, MonomialIdeal, "monomial ideal")
    make_field(characteristic)
    if ideal.is_zero:
        raise DomainError("Betti table of the zero ideal is undefined")
    walk = _linear_quotients(ideal.keys, ideal.shape)
    if walk is None:
        return None
    entries = {}
    for f, firsts in zip(ideal.keys, walk):
        d = len(firsts)
        for i in range(d + 1):
            key = (i, _degree(f, ideal.shape) + i)
            entries[key] = entries.get(key, 0) + comb(d, i)
    return BettiTable(characteristic, entries)


def mapping_cone_betti(ideal: MonomialIdeal, characteristic: int = 0) -> BettiTable:
    """Betti table from the linear-quotients mapping cone of the ideal.

    Requires the canonical generator order to have linear quotients.
    """
    cone = _cone(ideal, characteristic)
    if cone is None:
        raise DomainError("generator order does not have linear quotients")
    return cone


def betti(
    ideal: MonomialIdeal, characteristic: int = 0, caps: Caps = DEFAULT_CAPS
) -> BettiTable:
    """Graded Betti table: the mapping cone when the canonical generator
    order has linear quotients, the homology oracle otherwise."""
    _require(caps, Caps, "Caps")
    return _cone(ideal, characteristic) or betti_table(ideal, characteristic, caps)
