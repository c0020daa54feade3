from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path
from types import GeneratorType

import pytest

import diagideal
import diagideal.checks as checks
import diagideal.errors as errors
import diagideal.groebner as groebner
import diagideal.windows as windows
from diagideal import (
    BettiTable,
    Caps,
    ChainOrderError,
    DiagIdealError,
    DomainError,
    EngineError,
    FormatError,
    GroebnerBasis,
    OperandTypeError,
    PrimeField,
    QuotientChain,
    RationalField,
    ResourceLimitError,
    SelectionError,
    ShapeMismatchError,
    Window,
    WindowError,
    betti,
    betti_table,
    buchberger,
    closed_form_colon,
    closed_form_product_colon,
    diagonal_ideal,
    diagonal_monomial,
    enumerate_diagonals,
    initial_ideal,
    is_groebner_basis,
    is_prime,
    iter_sorted_chains,
    iter_windows,
    load_caps_file,
    mapping_cone_betti,
    minimal_generators,
    minor,
    natural_window_generators,
    parse_caps_text,
    parse_ideal,
    parse_monomial,
    quotient_chain,
    redistribute,
    reduce,
    run_paper_replay,
    s_polynomial,
    selection_of,
    window_product_ideal,
)
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
    "DEFAULT_CAPS",
    "DiagIdealError",
    "DomainError",
    "EngineError",
    "FormatError",
    "GridMonomial",
    "GridShape",
    "GroebnerBasis",
    "MonomialIdeal",
    "OperandTypeError",
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


_S = GridShape(2, 4)
_QQ, _GF = make_field(0), make_field(7)
_W = Window(1, 3)
_CHAIN = WindowChain.of((1, 3), (2, 4))
_M, _N = diagonal_monomial(_S, (1, 3)), diagonal_monomial(_S, (2, 4))
_I = diagonal_ideal(_S, _W)
_F, _G = minor(_S, (1, 3), _QQ), minor(_S, (2, 4), _QQ)
_B = betti(_I)

# Valid sample arguments of every public callable: each export of
# diagideal.__all__, each public method and operator of its classes, and
# each public function of checks, the reports behind the command line.
# A method is bound to a sample receiver, which is never swapped.  The
# windows.py rows keep their own test,
# test_windows.py::test_window_entries_type_every_argument.
ENTRIES = {
    "BettiTable": (BettiTable, (0, {(0, 2): 3})),
    "BettiTable.beta": (_B.beta, (0, 2)),
    "BettiTable.same_entries": (_B.same_entries, (_B,)),
    "BettiTable.to_json_obj": (_B.to_json_obj, ()),
    "BettiTable.totals": (_B.totals, ()),
    "Caps": (Caps, (6, 5000, 12, 4096, 1 << 20, 200_000, 3, 6, 2)),
    "ChainOrderError": (ChainOrderError, ("message",)),
    "DiagIdealError": (DiagIdealError, ("message",)),
    "DomainError": (DomainError, ("message",)),
    "EngineError": (EngineError, ("message",)),
    "FormatError": (FormatError, ("message",)),
    "OperandTypeError": (OperandTypeError, ("message",)),
    "GridMonomial": (GridMonomial, (_S, (1, 0, 0, 0, 0, 0, 1, 0))),
    "GridMonomial.__ge__": (_M.__ge__, (_N,)),
    "GridMonomial.__gt__": (_M.__gt__, (_N,)),
    "GridMonomial.__le__": (_M.__le__, (_N,)),
    "GridMonomial.__lt__": (_M.__lt__, (_N,)),
    "GridMonomial.__mul__": (_M.__mul__, (_N,)),
    "GridMonomial.__truediv__": (_M.__truediv__, (_M,)),
    "GridMonomial.colon": (_M.colon, (_N,)),
    "GridMonomial.divides": (_M.divides, (_N,)),
    "GridMonomial.from_exponents": (GridMonomial.from_exponents, (_S, {(1, 1): 2})),
    "GridMonomial.gcd": (_M.gcd, (_N,)),
    "GridMonomial.lcm": (_M.lcm, (_N,)),
    "GridMonomial.support": (_M.support, ()),
    "GridMonomial.unit": (GridMonomial.unit, (_S,)),
    "GridMonomial.variable": (GridMonomial.variable, (_S, 1, 2)),
    "GridShape": (GridShape, (2, 4)),
    "GridShape.contains": (_S.contains, (1, 2)),
    "GridShape.variables": (_S.variables, ()),
    "GroebnerBasis": (GroebnerBasis, (_S, _QQ, (_F,), 0)),
    "MonomialIdeal": (MonomialIdeal, (_S, [_M])),
    "MonomialIdeal.__add__": (_I.__add__, (_I,)),
    "MonomialIdeal.__mul__": (_I.__mul__, (_I,)),
    "MonomialIdeal.colon": (_I.colon, (_M,)),
    "MonomialIdeal.contains": (_I.contains, (_M,)),
    "MonomialIdeal.generator_degrees": (_I.generator_degrees, ()),
    "MonomialIdeal.single_generation_degree": (_I.single_generation_degree, ()),
    "MonomialIdeal.unit": (MonomialIdeal.unit, (_S,)),
    "MonomialIdeal.zero": (MonomialIdeal.zero, (_S,)),
    "Polynomial": (Polynomial, (_S, _QQ, (_M.key,), (Fraction(1),))),
    "Polynomial.__add__": (_F.__add__, (_G,)),
    "Polynomial.__mul__": (_F.__mul__, (_G,)),
    "Polynomial.__neg__": (_F.__neg__, ()),
    "Polynomial.__sub__": (_F.__sub__, (_G,)),
    "Polynomial.constant": (Polynomial.constant, (_S, _QQ, 2)),
    "Polynomial.from_terms": (Polynomial.from_terms, (_S, _QQ, [(_M, 1)])),
    "Polynomial.monic": (_F.monic, ()),
    "Polynomial.times_term": (_F.times_term, (_M, 2)),
    "Polynomial.zero": (Polynomial.zero, (_S, _QQ)),
    "PrimeField": (PrimeField, (7,)),
    "QuotientChain": (QuotientChain, (_I, ())),
    "RationalField": (RationalField, ()),
    "ResourceLimitError": (ResourceLimitError, ("message", {"done": 1})),
    "SelectionError": (SelectionError, ("message",)),
    "ShapeMismatchError": (ShapeMismatchError, ("message",)),
    "Window": (Window, (1, 3)),
    "Window.check_against": (_W.check_against, (_S,)),
    "WindowChain": (WindowChain, ((_W,),)),
    "WindowChain.check_against": (_CHAIN.check_against, (_S,)),
    "WindowChain.of": (WindowChain.of, ((1, 3), (2, 4))),
    "WindowError": (WindowError, ("message",)),
    "betti": (betti, (_I, 0, DEFAULT_CAPS)),
    "betti_table": (betti_table, (_I, 0, DEFAULT_CAPS)),
    "buchberger": (buchberger, ([_F, _G], DEFAULT_CAPS)),
    "checks.conjecture_scan": (checks.conjecture_scan, (1, 3, 1, 32003, DEFAULT_CAPS)),
    "checks.iter_shapes": (checks.iter_shapes, (2, 4)),
    "checks.product_chain_report": (checks.product_chain_report, (_S, _CHAIN, DEFAULT_CAPS)),
    "checks.remarks_report": (checks.remarks_report, ()),
    "checks.sample_product_chains": (checks.sample_product_chains, (2, 2, 0, 1, 3)),
    "checks.single_window_report": (checks.single_window_report, (_S, _W)),
    "checks.sweep_product_chains": (checks.sweep_product_chains, (2, 1, 3, DEFAULT_CAPS)),
    "checks.sweep_single_windows": (checks.sweep_single_windows, (1, 3)),
    "checks.theorem_report": (checks.theorem_report, (_S, _CHAIN, DEFAULT_CAPS, 0)),
    "checks.verify_reports": (checks.verify_reports, ("theorem", None, None, None, DEFAULT_CAPS, 0)),
    "closed_form_colon": (closed_form_colon, (_S, _W, _M)),
    "closed_form_product_colon": (closed_form_product_colon, (_S, _CHAIN, diagonal_monomial(_S, (1, 2)), 0)),
    "conjecture_check": (conjecture_check, (_S, _CHAIN, 32003, DEFAULT_CAPS)),
    "diagonal_ideal": (diagonal_ideal, (_S, Window(1, 3))),
    "diagonal_monomial": (diagonal_monomial, (_S, (1, 3))),
    "enumerate_diagonals": (enumerate_diagonals, (_S, Window(1, 3))),
    "initial_ideal": (initial_ideal, ([_F, _G],)),
    "is_groebner_basis": (is_groebner_basis, ([_F, _G],)),
    "is_prime": (is_prime, (7,)),
    "iter_sorted_chains": (iter_sorted_chains, (_S, 2)),
    "iter_windows": (iter_windows, (_S,)),
    "load_caps_file": (load_caps_file, (os.devnull,)),
    "make_field": (make_field, (7,)),
    "mapping_cone_betti": (mapping_cone_betti, (_I, 0)),
    "minimal_generators": (minimal_generators, (_S, [_M, _N])),
    "minor": (minor, (_S, (1, 3), _QQ, DEFAULT_CAPS)),
    "natural_window_generators": (
        natural_window_generators, (_S, WindowChain.of((1, 3)), _QQ, DEFAULT_CAPS)
    ),
    "parse_caps_text": (parse_caps_text, ("max_spairs = 9",)),
    "parse_ideal": (parse_ideal, (_S, "<x[1,1]*x[2,3]>")),
    "parse_monomial": (parse_monomial, (_S, "x[1,1]^2")),
    "quotient_chain": (quotient_chain, (_I,)),
    "redistribute": (redistribute, (_S, _CHAIN, [_M, _N])),
    "reduce": (reduce, (_F, [_G])),
    "run_paper_replay": (run_paper_replay, ()),
    "s_polynomial": (s_polynomial, (_F, _G)),
    "selection_of": (selection_of, (diagonal_monomial(_S, (1, 3)),)),
    "verify_product_colons": (verify_product_colons, (_S, _CHAIN, DEFAULT_CAPS)),
    "window_product_ideal": (window_product_ideal, (_S, (Window(1, 3), Window(2, 4)))),
}
for _field in (_QQ, _GF):
    _kind = type(_field).__name__
    for _method, _args in (
        ("normalize", (3,)), ("invert", (3,)), ("is_zero", (3,)), ("neg", (3,)),
        ("add", (3, 4)), ("sub", (3, 4)), ("mul", (3, 4)),
    ):
        ENTRIES[f"{_kind}.{_method}"] = (getattr(_field, _method), _args)
# Every entry answers a swap for a value of another type than the sample
# argument's with a TypeError, but these: the window and chain
# constructors and the text and caps parsers keep their own error classes
# (WindowError, ChainOrderError, FormatError) by design, the result
# records GroebnerBasis and QuotientChain hold what they are given, and an
# exception takes any message, as Python's own do.
EXEMPT = {
    "Window", "WindowChain", "WindowChain.of",
    "load_caps_file", "parse_caps_text", "parse_ideal", "parse_monomial",
    "GroebnerBasis", "QuotientChain",
} | {
    name for name in diagideal.__all__
    if isinstance(getattr(diagideal, name), type) and issubclass(getattr(diagideal, name), Exception)
}
WINDOW_ENTRIES = (
    "minor", "diagonal_monomial", "selection_of", "enumerate_diagonals", "diagonal_ideal",
    "window_product_ideal", "iter_windows", "iter_sorted_chains", "GridMonomial",
    "natural_window_generators",
)
BAD_ARGUMENTS = pytest.mark.parametrize(
    "bad", [3, "x", None, 2.5, [None]], ids=["int", "str", "none", "float", "list"]
)
_OPERATORS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__"}


def _public_callables() -> list:
    """Every callable export and every public method and operator of an
    exported class other than an exception, as ENTRIES names them."""
    names = []
    for name in diagideal.__all__:
        obj = getattr(diagideal, name)
        if not callable(obj):
            continue
        names.append(name)
        if isinstance(obj, type) and not issubclass(obj, Exception):
            names += [
                f"{name}.{attr}"
                for attr in vars(obj)
                if (attr in _OPERATORS or not attr.startswith("_")) and callable(getattr(obj, attr))
            ]
    return names


def _checks_functions() -> list:
    """Every public function of checks, as ENTRIES names them."""
    return [
        f"checks.{name}"
        for name, obj in vars(checks).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == checks.__name__
    ]


def drain(result):
    """The result, with a generator run to its end."""
    return list(result) if isinstance(result, GeneratorType) else result


def swapped(name: str, position: int, bad):
    """ENTRIES[name]'s call with argument position swapped for bad."""
    func, args = ENTRIES[name]
    return drain(func(*args[:position], bad, *args[position + 1 :]))


@BAD_ARGUMENTS
@pytest.mark.parametrize(
    "name, position",
    [
        (name, position)
        for name in _public_callables() + _checks_functions()
        if name not in WINDOW_ENTRIES
        for position in (range(len(ENTRIES[name][1])) if name in ENTRIES else [None])
    ],
)
def test_public_entries_type_every_argument(name, position, bad):
    # Each argument of each public callable in turn is swapped for a value
    # of another type.  The call, its generator run to the end, gives an
    # answer of the sample answer's type or raises a DiagIdealError, and
    # nothing else.  A wrong type that the operand check sees raises an
    # error that is a TypeError as well, no other raise is one, and no
    # handler turns the operand check's raise into another class.  Outside
    # EXEMPT a swap of another type is always a TypeError.  An export, a
    # method or a function of checks without a sample row fails here.
    assert name in ENTRIES, f"no sample arguments for {name}"
    func, args = ENTRIES[name]
    want = type(drain(func(*args)))
    typed = name not in EXEMPT and type(bad) is not type(args[position])
    try:
        answer = swapped(name, position, bad)
    except DiagIdealError as err:
        assert isinstance(err, TypeError) is _raised_by_the_type_check(err), (name, position, bad, err)
        assert not isinstance(err.__context__, OperandTypeError), (name, position, bad, err)
        assert isinstance(err, TypeError) or not typed, (name, position, bad, err)
        return
    assert not typed, (name, position, bad, answer)
    assert type(answer) is want, (name, position, bad, answer)


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(checks.sweep_product_chains("x", 0, 0)),
        lambda: list(checks.sweep_product_chains(2, 1, 1, "caps")),
        lambda: checks.sample_product_chains("x", 2, 0, 0, 0),
        lambda: list(checks.conjecture_scan(1, 1, 1, "x")),
        lambda: list(checks.conjecture_scan(1, 1, 1, 0, "caps")),
    ],
    ids=["sweep-length", "sweep-caps", "sample-length", "scan-char", "scan-caps"],
)
def test_checks_functions_type_their_arguments_before_any_instance(call):
    # A sweep over a range with no chains still refuses an argument of the
    # wrong type, rather than answering with an empty sweep.
    with pytest.raises(OperandTypeError):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: checks.sample_product_chains(2, -1, 0), DomainError),
        (lambda: list(checks.verify_reports("lemma3")), DomainError),
        (lambda: list(checks.verify_reports("lemma2", chain=WindowChain.of((1, 3), (2, 4)))), DomainError),
        (lambda: list(checks.verify_reports("lemma1", window=Window(1, 3))), DomainError),
        (lambda: list(checks.conjecture_scan(0, 6, 2)), DomainError),
        (lambda: list(checks.conjecture_scan(3, 6, 6)), ResourceLimitError),
    ],
    ids=[
        "negative-sample-count", "unknown-target", "chain-without-shape",
        "window-without-shape", "scan-below-one", "scan-above-caps",
    ],
)
def test_checks_functions_refuse_values_outside_their_domain(call, error):
    # A value of the right type outside a checks function's domain is a plain
    # DomainError, not a leaked ValueError, an empty answer or an ignored
    # argument; scan bounds past the conjecture caps are refused before the
    # first chain (58,721 records at default caps when they were not).
    with pytest.raises(error) as info:
        call()
    assert not isinstance(info.value, TypeError)


def _raised_by_the_type_check(err) -> bool:
    """Was err raised by ``errors._require`` or ``errors._items`` for an
    operand of the wrong type, rather than of the wrong grid?"""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    codes = (errors._require.__code__, errors._items.__code__)
    return tb.tb_frame.f_code in codes and not isinstance(err, ShapeMismatchError)


def test_shape_mismatch_is_raised_only_in_the_operand_check():
    # Every type-and-grid check of a public entry goes through
    # errors._require, the one place that raises ShapeMismatchError.
    found = []
    for path in sorted(Path(diagideal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.exc)}
                if "ShapeMismatchError" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("errors.py:")


def test_type_errors_are_caught_only_in_the_operand_check():
    # Every iterable check of a public entry goes through errors._items, the
    # one handler of a TypeError: no except clause elsewhere names it or
    # catches it unnamed.  WindowChain's constructor keeps its own, since
    # it raises ChainOrderError by design.
    found, kept = [], []
    for path in sorted(Path(diagideal.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "WindowChain":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                        exempt |= {id(n) for n in ast.walk(item)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type or ast.Pass())}
                if node.type is None or names & {"TypeError", "Exception", "BaseException"}:
                    (kept if id(node) in exempt else found).append(f"{path.name}:{node.lineno}")
    assert found == [] and len(kept) == 1 and kept[0].startswith("windows.py:")


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
    # check, both closed forms and a cold initial-ideal check build no
    # GridMonomial, and redistribute builds only the one it returns per
    # window.
    shape, chain = GridShape(3, 6), WindowChain.of((1, 4), (2, 6))
    f, g = enumerate_diagonals(shape, chain.windows[0])[1], diagonal_monomial(shape, (2, 4, 6))
    for cached in (windows._window_table, windows._minor_product):
        cached.cache_clear()
    built = {_from_key.__code__, GridMonomial.__init__.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in built:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        entries = verify_product_colons(shape, chain)
        closed = closed_form_colon(shape, chain.windows[0], f)
        product = closed_form_product_colon(shape, chain, f, 1)
        verdict = conjecture_check(GridShape(2, 5), WindowChain.of((1, 4), (2, 5)))
        before = len(calls)
        outputs = redistribute(shape, chain, [f, g])
    finally:
        sys.setprofile(None)
    assert len(outputs) == len(chain) and calls[before:] == ["_from_key"] * len(chain)
    del calls[before:]
    assert str(closed) == "<x[3,3]>" and product == entries[1]["closed"]
    assert len(entries) == 4 and all(entry["equal"] for entry in entries)
    assert verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
    naturals = groebner._natural_products(
        GridShape(2, 5), WindowChain.of((1, 4), (2, 5)), make_field(32003), DEFAULT_CAPS
    )
    assert any(record for _, _, _, record in naturals)
    assert windows._minor_product.cache_info().currsize
    assert calls == []


def test_the_grid_check_names_both_grids():
    # One message for every public entry: the operand's grid, then the grid
    # it should lie on, with no monomial or ideal written out.
    small, large = GridShape(2, 3), GridShape(2, 4)
    m = GridMonomial.variable(small, 1, 1)
    f = Polynomial.constant(small, _QQ, 1)
    calls = {
        "monomial": [lambda: _M * m, lambda: _I.contains(m), lambda: _F.times_term(m, 1)],
        "generator": [lambda: MonomialIdeal(large, [m]), lambda: initial_ideal([_F, f])],
        "monomial ideal": [lambda: _I + MonomialIdeal(small, [m])],
        "polynomial": [lambda: _F + f],
        "diagonal": [lambda: closed_form_colon(large, _W, diagonal_monomial(small, (1, 3)))],
    }
    for what, entries in calls.items():
        for call in entries:
            with pytest.raises(ShapeMismatchError) as info:
                call()
            assert str(info.value) == f"{what} on the 2x3 grid, not 2x4"
