from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import diagideal
import diagideal.groebner as groebner
import diagideal.windows as windows
from diagideal.caps import DEFAULT_CAPS
from diagideal.fields import make_field
from diagideal.groebner import conjecture_check
from diagideal.ideals import MonomialIdeal, _minimal_keys
from diagideal.monomials import GridMonomial, GridShape, _from_key
from diagideal.polynomials import Polynomial
from diagideal.quotients import verify_product_colons
from diagideal.windows import WindowChain

# Removing or adding an export is a deliberate API change: edit this list
# in the same change and name the export in CHANGES.md.
PUBLIC_API = [
    "BettiTable",
    "Caps",
    "ChainOrderError",
    "ColumnSelection",
    "DEFAULT_CAPS",
    "DiagIdealError",
    "DomainError",
    "EngineError",
    "FormatError",
    "GridMonomial",
    "GridShape",
    "GroebnerBasis",
    "MonomialIdeal",
    "Polynomial",
    "PrimeField",
    "QuotientChain",
    "RationalField",
    "ResourceLimitError",
    "SelectionError",
    "ShapeMismatchError",
    "Window",
    "WindowChain",
    "WindowError",
    "__version__",
    "betti",
    "betti_table",
    "buchberger",
    "closed_form_colon",
    "closed_form_product_colon",
    "conjecture_check",
    "diagonal_ideal",
    "diagonal_monomial",
    "enumerate_diagonals",
    "initial_ideal",
    "is_groebner_basis",
    "is_prime",
    "iter_sorted_chains",
    "iter_windows",
    "load_caps_file",
    "make_field",
    "mapping_cone_betti",
    "minimal_generators",
    "minor",
    "natural_window_generators",
    "parse_caps_text",
    "parse_ideal",
    "parse_monomial",
    "quotient_chain",
    "redistribute",
    "reduce",
    "run_paper_replay",
    "s_polynomial",
    "selection_of",
    "verify_product_colons",
    "window_product_ideal",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert len(set(diagideal.__all__)) == len(diagideal.__all__)
    assert sorted(diagideal.__all__) == PUBLIC_API
    for name in diagideal.__all__:
        assert hasattr(diagideal, name), name


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so a real check must raise.
    found = []
    for path in sorted(Path(diagideal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_process_wide_caches_are_lru_caches():
    # A cache keyed by a call's arguments is a bounded functools.lru_cache.
    # The package keeps all its process-wide state in two of them: no
    # module-level dict store, no cache without a finite bound, and no
    # cache but the window table and the natural product cache.
    found, decorated = [], []
    for path in sorted(Path(diagideal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            value = getattr(node, "value", None)
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "dict"
                and not value.args
                and not value.keywords
            )
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and empty:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.stem}.{getattr(t, 'id', '?')}" for t in targets]
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", ()):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(decorator)}
                if names & {"lru_cache", "cache"}:
                    decorated.append(f"{path.stem}.{node.name}")
    assert found == []
    caches = []
    for info in pkgutil.iter_modules(diagideal.__path__):
        module = importlib.import_module(f"diagideal.{info.name}")
        scopes = [vars(module)] + [
            vars(v) for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__
        ]
        for scope in scopes:
            for name, value in scope.items():
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    assert value.cache_parameters()["maxsize"] is not None, name
                    caches.append(f"{info.name}.{name}")
    assert sorted(caches) == sorted(decorated) == ["windows._minor_product", "windows._window_table"]


def test_only_monomials_knows_the_key_layout():
    # The guard bits and bytes of a packed key are read in monomials.py
    # alone; other modules go through its key helpers or the GridMonomial
    # operators.  255 is the modulus of the byte-sum degree (256 = 1 mod 255).
    layout = {"_guard", "_excess", "to_bytes", "from_bytes", "255"}
    found = []
    for path in sorted(Path(diagideal.__file__).parent.glob("*.py")):
        if path.name == "monomials.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 255:
                names.add("255")
            found += [f"{path.name}:{node.lineno}:{name}" for name in sorted(names & layout)]
    assert found == []


def test_ideals_and_polynomials_hold_keys():
    # Ideals and polynomials store packed keys; GridMonomials are built only
    # when a caller asks for gens, terms or a leading monomial.
    assert MonomialIdeal.__slots__ == ("shape", "keys")
    assert Polynomial.__slots__ == ("shape", "field", "keys", "coeffs")
    shape = GridShape(3, 6)
    keys = _minimal_keys(shape, [3 << 8, 1 << 8, 1, 2])
    assert keys == (1 << 8, 1) and all(type(k) is int for k in keys)
    chain = WindowChain.of((1, 4), (2, 6))
    verify_product_colons(shape, chain)  # warms the window caches
    built = {_from_key.__code__, GridMonomial.__init__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        entries = verify_product_colons(shape, chain)
        counted = len(calls)
        entries[0]["brute"].gens  # the view builds them, and the count sees it
    finally:
        sys.setprofile(None)
    assert len(entries) == 4 and all(entry["equal"] for entry in entries)
    assert counted == 0
    assert len(calls) == len(entries[0]["brute"]) > 0


def test_cold_colon_and_groebner_checks_build_no_monomial():
    # With every cache emptied, the diagonals, gap tables, diagonal ideals,
    # minors and products are built on packed keys: a cold product colon
    # check and a cold initial-ideal check build no GridMonomial.
    for cached in (windows._window_table, windows._minor_product):
        cached.cache_clear()
    built = {_from_key.__code__, GridMonomial.__init__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        entries = verify_product_colons(GridShape(3, 6), WindowChain.of((1, 4), (2, 6)))
        verdict = conjecture_check(GridShape(2, 5), WindowChain.of((1, 4), (2, 5)))
    finally:
        sys.setprofile(None)
    assert len(entries) == 4 and all(entry["equal"] for entry in entries)
    assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
    naturals = groebner._natural_products(
        GridShape(2, 5), WindowChain.of((1, 4), (2, 5)), make_field(32003), DEFAULT_CAPS
    )
    assert any(record for _, _, _, record in naturals)
    assert windows._minor_product.cache_info().currsize
    assert calls == []
