"""Re-derivation of the worked examples shipped under ``data/golden``.

Each golden file freezes hand-checked data for one small scenario: a
window's colon chain, a redistribution of diagonal factors, a product
ideal, or a colon identity that is supposed to *fail*.  The replay
functions recompute everything from scratch and diff the results
against the frozen text, so any drift in ordering, minimalization, or
rendering shows up as a failed record.

A golden file is ``#`` comments and ``key rest-of-line`` lines, with
``shape`` first.  ``VALUE_PARSERS`` is the key set: each key's parser
reads the rest of its line on the file's grid shape.  ``load_case``
gathers a file's values as ``{key: [value, ...]}`` in file order, and
each replay raises ``FormatError`` when a key it reads is missing.
"""

from __future__ import annotations

from importlib import resources

from .errors import FormatError
from .ideals import parse_ideal
from .monomials import GridShape, parse_monomial
from .quotients import _brute_colon, quotient_chain, redistribute
from .windows import Window, WindowChain, diagonal_ideal, enumerate_diagonals, window_product_ideal

# Out-of-order window products whose colon must differ from the closed form.
NEGATIVE_CONTROLS = ("colon_mismatch_3x9.txt", "colon_mismatch_3x8.txt")
GOLDEN_FILES = (
    "window_2_6_quotients.txt",
    "redistribute_6x16.txt",
    "product_1x3.txt",
) + NEGATIVE_CONTROLS


def golden_text(name: str) -> str:
    path = resources.files("diagideal").joinpath("data").joinpath("golden").joinpath(name)
    return path.read_text(encoding="utf-8")


def _pair(text: str) -> tuple[int, int]:
    first, second = (int(part) for part in text.split())
    return first, second


def _step(shape: GridShape, text: str) -> tuple:
    index, _, body = text.partition(" ")
    return int(index), parse_ideal(shape, body)


VALUE_PARSERS = {
    "shape": lambda shape, text: GridShape(*_pair(text)),
    "window": lambda shape, text: Window(*_pair(text)),
    "generators": parse_ideal,
    "step": _step,
    "factor": parse_monomial,
    "result": parse_monomial,
    "product": parse_ideal,
    "colon_by": parse_monomial,
    "prefix": lambda shape, text: int(text),
    "prefix_through": parse_monomial,
    "claimed": parse_ideal,
    "expect": lambda shape, text: text,
}


def load_case(name: str) -> dict[str, list]:
    """One golden file's values, ``{key: [value, ...]}`` in file order."""
    case: dict[str, list] = {}
    shape = None
    for raw in golden_text(name).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, text = line.partition(" ")
        if shape is None and key != "shape":
            raise FormatError(f"{name}: 'shape' must come first, got {key!r}")
        if key not in VALUE_PARSERS:
            raise FormatError(f"{name}: unknown key {key!r}")
        try:
            value = VALUE_PARSERS[key](shape, text.strip())
        except ValueError as exc:
            raise FormatError(f"{name}: bad {key} value {text.strip()!r}: {exc}") from None
        if key == "shape":
            shape = value
        case.setdefault(key, []).append(value)
    return case


def _required(name: str, case: dict, *keys: str) -> list[list]:
    """The values of each key; FormatError unless the file sets them all."""
    missing = [key for key in keys if key not in case]
    if missing:
        raise FormatError(f"{name}: missing {', '.join(missing)}")
    return [case[key] for key in keys]


def _record(name: str, ok: bool, expected: str, got: str) -> dict:
    return {"name": name, "ok": ok, "expected": expected, "got": got}


def _same(name: str, expected, got) -> dict:
    """A record that passes when got equals expected and renders alike."""
    return _record(name, got == expected and str(got) == str(expected), str(expected), str(got))


def replay_window_quotients() -> list[dict]:
    name = "window_2_6_quotients.txt"
    (shape,), (window,), (generators,), steps = _required(
        name, load_case(name), "shape", "window", "generators", "step"
    )
    ideal = diagonal_ideal(shape, window)
    computed = dict(enumerate(quotient_chain(ideal).steps, start=1))
    return [_same(f"window {window} generators", generators, ideal)] + [
        _same(f"window {window} colon step {index}", expected, computed.get(index, "missing"))
        for index, expected in steps
    ]


def replay_redistribute() -> list[dict]:
    name = "redistribute_6x16.txt"
    (shape,), windows, factors, results = _required(
        name, load_case(name), "shape", "window", "factor", "result"
    )
    rebalanced = redistribute(shape, WindowChain(tuple(windows)), factors)
    return [
        _same(f"redistribute 6x16 factor {position}", expected, got)
        for position, (expected, got) in enumerate(zip(results, rebalanced), start=1)
    ]


def replay_product() -> list[dict]:
    name = "product_1x3.txt"
    (shape,), windows, (product,) = _required(name, load_case(name), "shape", "window", "product")
    got = window_product_ideal(shape, windows)
    return [_same("product 1x3 windows (1,2)*(2,3)", product, got)]


def replay_colon_mismatch(name: str) -> list[dict]:
    case = load_case(name)
    (shape,), windows, (colon_by,), (claimed,), (expect,) = _required(
        name, case, "shape", "window", "colon_by", "claimed", "expect"
    )
    if expect != "unequal":
        raise FormatError(f"{name}: expect must be 'unequal', got {expect!r}")
    diagonals = enumerate_diagonals(shape, windows[0])
    if "prefix_through" in case:
        cutoff = diagonals.index(case["prefix_through"][0]) + 1
    else:
        cutoff = case.get("prefix", [0])[0]
    keys = list(window_product_ideal(shape, windows).keys)
    keys += [d.key for d in diagonals[:cutoff]]
    brute = _brute_colon(shape, keys, colon_by.key)
    return [
        _record(
            f"{name.removesuffix('.txt')} stays unequal",
            brute != claimed,
            f"anything other than {claimed}",
            str(brute),
        )
    ]


def run_paper_replay() -> list[dict]:
    """Recompute every golden scenario and diff against the frozen data."""
    records = replay_window_quotients() + replay_redistribute() + replay_product()
    for name in NEGATIVE_CONTROLS:
        records += replay_colon_mismatch(name)
    return records
