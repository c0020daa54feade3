"""Re-derivation of the worked examples shipped under ``data/golden``.

Each golden file freezes hand-checked data for one small scenario: a
window's colon chain, a redistribution of diagonal factors, a product
ideal, or a colon identity that is supposed to *fail*.  The replay
functions recompute everything from scratch and diff the results
against the frozen text, so any drift in ordering, minimalization, or
rendering shows up as a failed record.
"""

from __future__ import annotations

from importlib import resources

from .errors import FormatError
from .ideals import MonomialIdeal, parse_ideal
from .monomials import GridMonomial, GridShape, parse_monomial
from .quotients import _brute_colon, quotient_chain, redistribute
from .windows import Window, WindowChain, diagonal_ideal, enumerate_diagonals, window_product_ideal

GOLDEN_FILES = (
    "window_2_6_quotients.txt",
    "redistribute_6x16.txt",
    "product_1x3.txt",
    "colon_mismatch_3x9.txt",
    "colon_mismatch_3x8.txt",
)


def golden_text(name: str) -> str:
    path = resources.files("diagideal").joinpath("data").joinpath("golden").joinpath(name)
    return path.read_text(encoding="utf-8")


class GoldenCase:
    """Parsed form of one golden data file."""

    __slots__ = (
        "name",
        "shape",
        "windows",
        "generators",
        "steps",
        "factors",
        "results",
        "product",
        "colon_by",
        "prefix",
        "prefix_through",
        "claimed",
        "expect",
    )

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.shape: GridShape | None = None
        self.windows: list[Window] = []
        self.generators: MonomialIdeal | None = None
        self.steps: list[tuple[int, MonomialIdeal]] = []
        self.factors: list[GridMonomial] = []
        self.results: list[GridMonomial] = []
        self.product: MonomialIdeal | None = None
        self.colon_by: GridMonomial | None = None
        self.prefix: int | None = None
        self.prefix_through: GridMonomial | None = None
        self.claimed: MonomialIdeal | None = None
        self.expect: str | None = None
        self._parse(text)

    def _parse(self, text: str) -> None:
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key == "shape":
                rows, cols = (int(part) for part in rest.split())
                self.shape = GridShape(rows, cols)
                continue
            if self.shape is None:
                raise FormatError(f"{self.name}: 'shape' must come first, got {key!r}")
            if key == "window":
                first, last = (int(part) for part in rest.split())
                self.windows.append(Window(first, last))
            elif key == "generators":
                self.generators = parse_ideal(self.shape, rest)
            elif key == "step":
                index_text, _, body = rest.partition(" ")
                self.steps.append((int(index_text), parse_ideal(self.shape, body.strip())))
            elif key == "factor":
                self.factors.append(parse_monomial(self.shape, rest))
            elif key == "result":
                self.results.append(parse_monomial(self.shape, rest))
            elif key == "product":
                self.product = parse_ideal(self.shape, rest)
            elif key == "colon_by":
                self.colon_by = parse_monomial(self.shape, rest)
            elif key == "prefix":
                self.prefix = int(rest)
            elif key == "prefix_through":
                self.prefix_through = parse_monomial(self.shape, rest)
            elif key == "claimed":
                self.claimed = parse_ideal(self.shape, rest)
            elif key == "expect":
                self.expect = rest
            else:
                raise FormatError(f"{self.name}: unknown key {key!r}")

    def require(self, *keys: str) -> None:
        """Raise FormatError unless every named field was set by the file."""
        missing = [key for key in keys if getattr(self, key) is None]
        if missing:
            raise FormatError(f"{self.name}: missing {', '.join(missing)}")


def load_case(name: str) -> GoldenCase:
    return GoldenCase(name, golden_text(name))


def _record(name: str, ok: bool, expected: str, got: str) -> dict:
    return {"name": name, "ok": ok, "expected": expected, "got": got}


def replay_window_quotients() -> list[dict]:
    case = load_case("window_2_6_quotients.txt")
    case.require("shape", "generators")
    (window,) = case.windows
    records = []
    ideal = diagonal_ideal(case.shape, window)
    records.append(
        _record(
            f"window {window} generators",
            ideal == case.generators and str(ideal) == str(case.generators),
            str(case.generators),
            str(ideal),
        )
    )
    chain = quotient_chain(ideal)
    computed = dict(enumerate(chain.steps, start=1))
    for index, expected in case.steps:
        got = computed.get(index)
        records.append(
            _record(
                f"window {window} colon step {index}",
                got is not None and got == expected and str(got) == str(expected),
                str(expected),
                "missing" if got is None else str(got),
            )
        )
    return records


def replay_redistribute() -> list[dict]:
    case = load_case("redistribute_6x16.txt")
    case.require("shape")
    chain = WindowChain(tuple(case.windows))
    rebalanced = redistribute(case.shape, chain, case.factors)
    records = []
    for position, (expected, got) in enumerate(zip(case.results, rebalanced), start=1):
        records.append(
            _record(
                f"redistribute 6x16 factor {position}",
                got == expected and str(got) == str(expected),
                str(expected),
                str(got),
            )
        )
    return records


def replay_product() -> list[dict]:
    case = load_case("product_1x3.txt")
    case.require("shape", "product")
    got = window_product_ideal(case.shape, case.windows)
    return [
        _record(
            "product 1x3 windows (1,2)*(2,3)",
            got == case.product and str(got) == str(case.product),
            str(case.product),
            str(got),
        )
    ]


def replay_colon_mismatch(name: str) -> list[dict]:
    case = load_case(name)
    case.require("shape", "colon_by", "claimed")
    if case.expect != "unequal":
        raise FormatError(f"{name}: expect must be 'unequal', got {case.expect!r}")
    diagonals = enumerate_diagonals(case.shape, case.windows[0])
    if case.prefix_through is not None:
        cutoff = diagonals.index(case.prefix_through) + 1
    else:
        cutoff = case.prefix or 0
    keys = list(window_product_ideal(case.shape, case.windows).keys)
    keys += [d.key for d in diagonals[:cutoff]]
    brute = _brute_colon(case.shape, keys, case.colon_by.key)
    label = f"{name.removesuffix('.txt')} stays unequal"
    return [
        _record(
            label,
            brute != case.claimed,
            f"anything other than {case.claimed}",
            str(brute),
        )
    ]


def run_paper_replay() -> list[dict]:
    """Recompute every golden scenario and diff against the frozen data."""
    records: list[dict] = []
    records.extend(replay_window_quotients())
    records.extend(replay_redistribute())
    records.extend(replay_product())
    records.extend(replay_colon_mismatch("colon_mismatch_3x9.txt"))
    records.extend(replay_colon_mismatch("colon_mismatch_3x8.txt"))
    return records
