from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import comb
from types import ModuleType

import pytest

import diagideal
from diagideal import checks, cli, groebner, resolution
from diagideal.caps import DEFAULT_CAPS
from diagideal.errors import DomainError, ResourceLimitError
from diagideal.fields import PrimeField, RationalField, make_field
from diagideal.ideals import MonomialIdeal, parse_ideal
from diagideal.monomials import GridShape, parse_monomial
from diagideal.resolution import (
    BettiTable,
    _divisor_complex,
    _rank_of_columns,
    _reduced_homology,
    betti,
    betti_table,
    mapping_cone_betti,
)
from diagideal.windows import (
    Window,
    WindowChain,
    diagonal_ideal,
    iter_windows,
    window_product_ideal,
)


def two_window_product_1x3():
    shape = GridShape(1, 3)
    return window_product_ideal(shape, [Window(1, 2), Window(2, 3)])


def test_betti_of_two_window_product_both_oracles():
    ideal = two_window_product_1x3()
    cone = mapping_cone_betti(ideal)
    assert cone.totals() == {0: 4, 1: 4, 2: 1}
    assert cone.regularity == 2
    for char in (0, 2):
        table = betti_table(ideal, characteristic=char)
        assert table.totals() == {0: 4, 1: 4, 2: 1}
        assert table.regularity == 2
        assert cone.same_entries(table)


def test_betti_principal_ideal():
    shape = GridShape(2, 2)
    ideal = parse_ideal(shape, "<x[1,1]*x[2,2]>")
    table = betti_table(ideal)
    assert table.totals() == {0: 1}
    assert table.beta(0, 2) == 1
    assert table.regularity == 2
    cone = mapping_cone_betti(ideal)
    assert cone.same_entries(table)


def test_betti_two_variables_is_koszul():
    shape = GridShape(1, 2)
    ideal = parse_ideal(shape, "<x[1,1], x[1,2]>")
    table = betti_table(ideal)
    assert table.beta(0, 1) == 2
    assert table.beta(1, 2) == 1
    assert table.totals() == {0: 2, 1: 1}
    assert table.regularity == 1


def test_betti_two_coprime_quadrics():
    shape = GridShape(1, 4)
    ideal = parse_ideal(shape, "<x[1,1]*x[1,2], x[1,3]*x[1,4]>")
    table = betti_table(ideal)
    assert table.beta(0, 2) == 2
    assert table.beta(1, 4) == 1
    assert table.regularity == 3
    assert betti(ideal).regularity == 3 != ideal.single_generation_degree()


def test_window_ideal_cross_check():
    shape = GridShape(3, 8)
    ideal = diagonal_ideal(shape, Window(2, 6))
    cone = mapping_cone_betti(ideal)
    table = betti_table(ideal)
    assert cone.totals() == {0: 10, 1: 15, 2: 6}
    assert cone.same_entries(table)
    assert table.regularity == 3
    assert table.projective_dimension == 2


def test_mapping_cone_requires_certificate():
    shape = GridShape(1, 4)
    ideal = parse_ideal(shape, "<x[1,1]*x[1,2], x[1,3]*x[1,4]>")
    with pytest.raises(DomainError):
        mapping_cone_betti(ideal)
    zero = MonomialIdeal.zero(shape)
    for compute in (mapping_cone_betti, betti):
        with pytest.raises(DomainError):
            compute(zero)
    assert cli.main(["betti", "--rows", "1", "--cols", "4", "--gens", "<>"]) == 2


def test_betti_table_json_shape():
    table = betti_table(two_window_product_1x3())
    obj = table.to_json_obj()
    assert obj["char"] == 0
    assert obj["reg"] == 2
    assert obj["rows"] == sorted(obj["rows"], key=lambda r: (r["i"], r["j"]))
    assert all(set(r) == {"i", "j", "beta"} for r in obj["rows"])


def test_betti_equality_tracks_characteristic():
    ideal = two_window_product_1x3()
    a = betti_table(ideal, characteristic=0)
    b = betti_table(ideal, characteristic=2)
    assert a.same_entries(b)
    assert a != b  # entries equal but fields differ
    assert a == betti_table(ideal, characteristic=0)


def test_characteristic_agreement_on_corpus():
    shape = GridShape(2, 5)
    corpus = [
        diagonal_ideal(shape, Window(1, 4)),
        diagonal_ideal(shape, Window(2, 5)),
        window_product_ideal(shape, [Window(1, 3), Window(2, 4)]),
        parse_ideal(shape, "<x[1,1]*x[2,2], x[1,2]*x[2,1]>"),
        parse_ideal(shape, "<x[1,1], x[2,2], x[1,2]*x[2,1]>"),
    ]
    for ideal in corpus:
        assert betti_table(ideal, characteristic=0).same_entries(
            betti_table(ideal, characteristic=2)
        )


def test_zero_ideal_rejected():
    with pytest.raises(DomainError):
        betti_table(MonomialIdeal.zero(GridShape(1, 2)))


def test_generator_cap():
    shape = GridShape(3, 8)
    ideal = diagonal_ideal(shape, Window(1, 8))  # 56 generators
    with pytest.raises(ResourceLimitError):
        betti_table(ideal)
    small_cap = replace(DEFAULT_CAPS, max_oracle_gens=4)
    with pytest.raises(ResourceLimitError):
        betti_table(two_window_product_1x3() * two_window_product_1x3(), caps=small_cap)


def test_candidate_multidegrees_are_the_subset_lcms():
    from itertools import combinations

    from diagideal.resolution import _candidate_multidegrees

    ideals = [
        two_window_product_1x3(),
        diagonal_ideal(GridShape(2, 5), Window(1, 4)),
        parse_ideal(GridShape(1, 3), "<x[1,1]^3, x[1,1]*x[1,2]^2, x[1,3]>"),
        MonomialIdeal.unit(GridShape(1, 2)),
    ]
    for ideal in ideals:
        degrees = {}
        for size in range(1, len(ideal.gens) + 1):
            for subset in combinations(ideal.gens, size):
                value = subset[0]
                for g in subset[1:]:
                    value = value.lcm(g)
                degrees[value.key] = value.degree
        found = _candidate_multidegrees(ideal, DEFAULT_CAPS)
        assert set(found) == set(degrees) and len(found) == len(degrees)
        assert found == sorted(found, key=lambda k: (degrees[k], k))


def test_lcm_candidate_cap_reports_the_generator_count():
    ideal = diagonal_ideal(GridShape(2, 5), Window(1, 4))  # 6 generators
    with pytest.raises(ResourceLimitError) as exc:
        betti_table(ideal, caps=replace(DEFAULT_CAPS, max_lcm_candidates=5))
    assert exc.value.snapshot == {"generators": 6}


def test_face_cap_stops_the_homology_oracle():
    shape = GridShape(1, 3)
    ideal = parse_ideal(shape, "<x[1,1]*x[1,2], x[1,2]*x[1,3]>")
    # the complex at the lcm has three faces: the empty face and two vertices
    assert betti_table(ideal, caps=replace(DEFAULT_CAPS, max_koszul_faces=3)).totals() == {0: 2, 1: 1}
    with pytest.raises(ResourceLimitError) as exc:
        betti_table(ideal, caps=replace(DEFAULT_CAPS, max_koszul_faces=2))
    assert exc.value.snapshot == {"multidegree": "x[1,1]*x[1,2]*x[1,3]"}


def test_regularity_of_windows_equals_rows():
    for rows, cols, window in ((2, 4, (1, 4)), (2, 5, (2, 5)), (3, 6, (2, 6))):
        shape = GridShape(rows, cols)
        ideal = diagonal_ideal(shape, Window(*window))
        assert betti(ideal).regularity == rows == ideal.single_generation_degree()


def test_regularity_of_sorted_products():
    shape = GridShape(2, 5)
    product = window_product_ideal(shape, [Window(1, 3), Window(2, 5)])
    assert betti(product).regularity == 4 == product.single_generation_degree()


def test_one_walk_per_ideal(monkeypatch, capsys):
    # theorem_report, betti and the CLI's auto and cone oracles each decide
    # linear quotients by one V_j walk; none builds the brute colon chain.
    calls = []
    real_walk = resolution._linear_quotients

    def counting(keys, shape):
        calls.append(len(keys))
        return real_walk(keys, shape)

    def no_chain(ideal):
        raise AssertionError("the brute colon chain was built")

    modules = [m for m in vars(diagideal).values() if isinstance(m, ModuleType)]
    walkers = [m for m in modules if hasattr(m, "_linear_quotients")]
    assert {resolution, groebner} <= set(walkers)
    for module in walkers:
        monkeypatch.setattr(module, "_linear_quotients", counting)
    for module in modules:
        if hasattr(module, "quotient_chain"):
            monkeypatch.setattr(module, "quotient_chain", no_chain)
    shape = GridShape(2, 4)
    report = checks.theorem_report(shape, WindowChain.of((1, 3), (2, 4)))
    assert report["linear_quotients"] and report["cone_agrees"]
    assert len(calls) == 1
    product = window_product_ideal(shape, [Window(1, 3), Window(2, 4)])
    assert betti(product).regularity == 4
    assert len(calls) == 2
    for oracle in ("auto", "cone"):
        assert cli.main(
            ["betti", "--rows", "2", "--cols", "4", "--chain", "1,3:2,4", "--oracle", oracle]
        ) == 0
    assert len(calls) == 4
    assert "reg = 4" in capsys.readouterr().out


def test_koszul_complex_structure():
    ideal = two_window_product_1x3()
    shape = ideal.shape
    inside = parse_monomial(shape, "x[1,1]*x[1,2]*x[1,3]")
    by_dim = _divisor_complex(ideal, inside.key)
    assert by_dim[-1] == [0]
    # faces are squarefree keys, a vertex the key of its variable: here the
    # three supp(b/g) for the generators g dividing b, and no edge
    variables = [parse_monomial(shape, f"x[1,{j}]").key for j in (1, 2, 3)]
    assert by_dim[0] == sorted(variables) and max(by_dim) == 0
    # simplicial: dropping any vertex of a face leaves a face one dimension down
    for d, faces in by_dim.items():
        assert faces == sorted(faces)
        for face in faces:
            assert face.bit_count() == d + 1
            sub = face
            while sub:
                low = sub & -sub
                assert face ^ low in by_dim[d - 1]
                sub ^= low
    outside = parse_monomial(shape, "x[1,1]")
    assert _divisor_complex(ideal, outside.key) == {}
    # one generator x[1,1] below x[1,1]*x[1,2]*x[1,3]: a full simplex, not walked
    simplex = parse_ideal(shape, "<x[1,1], x[1,2]^2*x[1,3]>")
    assert _divisor_complex(simplex, inside.key) is None


def test_euler_characteristic_consistency():
    # alternating sum of face counts equals alternating sum of reduced
    # homology dimensions, multidegree by multidegree
    ideals = [
        two_window_product_1x3(),
        diagonal_ideal(GridShape(2, 5), Window(1, 4)),
        parse_ideal(GridShape(1, 4), "<x[1,1]*x[1,2], x[1,2]*x[1,3], x[1,3]*x[1,4]>"),
    ]
    from diagideal.resolution import _candidate_multidegrees

    field = make_field(0)
    for ideal in ideals:
        for b in _candidate_multidegrees(ideal, DEFAULT_CAPS):
            faces = _divisor_complex(ideal, b)
            homology = _reduced_homology(ideal, b, field)
            if faces is None:  # a full simplex on at least one vertex
                assert homology == {}
                continue
            counts = {d: len(keys) for d, keys in faces.items()}
            lhs = sum((-1) ** d * c for d, c in counts.items())
            rhs = sum((-1) ** d * h for d, h in homology.items())
            assert lhs == rhs


def test_betti_table_value_object():
    table = BettiTable(0, {(0, 2): 3, (1, 3): 2})
    assert table.beta(0, 2) == 3
    assert table.beta(5, 9) == 0
    assert table.totals() == {0: 3, 1: 2}
    assert table.regularity == 2
    assert table.projective_dimension == 1


def test_single_windows_have_eagon_northcott_betti_numbers():
    # A window of width w on m rows has the Eagon-Northcott Betti numbers
    # beta_{i,m+i} = C(w, m+i) * C(m+i-1, i): a formula oracle for Lemma 1's
    # windows, far past the homology oracle's cap.
    windows = 0
    classes = {}
    for shape in checks.iter_shapes(4, 10):
        m = shape.rows
        for window in iter_windows(shape):
            w = window.width
            numbers = {(i, m + i): comb(w, m + i) * comb(m + i - 1, i) for i in range(w - m + 1)}
            ideal = diagonal_ideal(shape, window)
            assert betti(ideal) == BettiTable(0, numbers), (shape, window)
            if len(ideal.gens) <= DEFAULT_CAPS.max_oracle_gens:
                classes[(m, w)] = (ideal, numbers)
            windows += 1
    assert windows == 534
    # A window's ideal is the m x w generic matrix's up to renaming the
    # variables, so the homology oracle checks one window per (m, w), the
    # last one listed.  One-row windows wider than 8 are Koszul complexes
    # that take the oracle seconds each, so they are left to the cone.
    checked = 0
    for (m, w), (ideal, numbers) in classes.items():
        if m > 1 or w <= 8:
            for char in (0, 2):
                assert betti_table(ideal, characteristic=char) == BettiTable(char, numbers), (m, w)
            checked += 1
    assert checked == 16


@pytest.mark.parametrize(
    "call",
    [
        lambda table: table.beta("x", None),
        lambda table: table.same_entries(3),
    ],
    ids=["beta", "same-entries"],
)
def test_betti_table_rejects_wrong_type_arguments(call):
    table = BettiTable(0, {(0, 2): 1})
    with pytest.raises(DomainError):
        call(table)


_IDEAL = window_product_ideal(GridShape(2, 4), (Window(1, 3), Window(2, 4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: betti(3),
        lambda: betti_table(3),
        lambda: betti_table(_IDEAL, caps=3),
        lambda: mapping_cone_betti("x"),
        lambda: betti(_IDEAL, "x"),
        lambda: betti(_IDEAL, caps=3),
    ],
    ids=["betti", "betti-table", "betti-table-caps", "cone", "betti-char", "betti-caps"],
)
def test_betti_entries_raise_domain_error_for_wrong_types(call):
    with pytest.raises(DomainError):
        call()


def _dense_rank(columns, nrows: int, p: int) -> int:
    """Rank by dense Gaussian elimination: Fraction rows at char 0, residues
    inverted by pow(x, -1, p) at char p."""
    if p:
        rows = [[col.get(r, 0) % p for r in range(nrows)] for col in columns]
    else:
        rows = [[Fraction(col.get(r, 0)) for r in range(nrows)] for col in columns]
    rank = 0
    for c in range(nrows):
        found = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        inv = pow(rows[rank][c], -1, p) if p else 1 / rows[rank][c]
        top = [x * inv % p if p else x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c]
                rows[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(row, top)]
        rank += 1
    return rank


def _random_columns(rng, nrows: int, ncols: int) -> list:
    """Sparse columns with entries in -3..3, some of them sums of earlier
    ones so that the rank drops."""
    columns = []
    for _ in range(ncols):
        if len(columns) > 1 and rng.random() < 0.3:
            a, b = rng.sample(columns, 2)
            s, t = rng.choice((-1, 1)), rng.choice((-1, 1))
            col = {r: s * a.get(r, 0) + t * b.get(r, 0) for r in set(a) | set(b)}
            columns.append({r: v for r, v in col.items() if -3 <= v <= 3})
        else:
            rows = rng.sample(range(nrows), rng.randint(1, nrows))
            columns.append({r: rng.randint(-3, 3) for r in rows})
    return columns


@pytest.mark.parametrize("p", [0, 2, 3, 7, 32003])
def test_rank_kernel_matches_dense_elimination(p):
    rng = random.Random(f"rank/{p}")
    field = make_field(p)
    ranks = set()
    for _ in range(200):
        nrows = rng.randint(1, 7)
        columns = _random_columns(rng, nrows, rng.randint(1, 9))
        rank = _rank_of_columns(columns, field)
        assert rank == _dense_rank(columns, nrows, p)
        ranks.add((rank, len(columns)))
    assert any(r < n for r, n in ranks) and any(r == n for r, n in ranks)


@pytest.mark.parametrize(
    "columns, ranks",
    [
        ([{0: 2}], {0: 1, 2: 0, 3: 1}),
        ([{0: 3}], {0: 1, 2: 1, 3: 0}),
        ([{0: 1, 1: 1}, {0: 1, 1: -1}], {0: 2, 2: 1, 3: 2}),
    ],
)
def test_rank_kernel_drops_rank_mod_p(columns, ranks):
    for p, rank in ranks.items():
        assert _rank_of_columns(columns, make_field(p)) == rank
        assert _dense_rank(columns, 2, p) == rank


def test_homology_oracle_calls_no_per_operation_field_method(monkeypatch):
    tables = {p: betti_table(_IDEAL, p) for p in (0, 32003)}

    def refuse(*args):
        raise AssertionError("a per-operation field method was called")

    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul", "neg", "is_zero"):
            monkeypatch.setattr(cls, name, refuse)
        monkeypatch.setattr(cls, "zero", property(refuse))
    for p, table in tables.items():
        assert betti_table(_IDEAL, p) == table
        assert table.same_entries(mapping_cone_betti(_IDEAL, p))
