"""Verification drivers shared by the command-line front end and the tests.

Each driver recomputes one of the claimed identities two ways (closed
form vs. brute force, or cone count vs. homology oracle) and returns a
plain-dict report that serializes to JSON lines.  Nothing here mutates
its inputs; sweeps yield reports in a fixed enumeration order.
"""

from __future__ import annotations

import random
from math import comb, prod
from typing import Iterator

from .caps import Caps, DEFAULT_CAPS
from .errors import DomainError, ResourceLimitError, _items, _require
from .groebner import conjecture_check
from .monomials import GridShape, _key_text
from .quotients import _colon_steps, verify_product_colons
from .replay import NEGATIVE_CONTROLS, replay_colon_mismatch
from .resolution import _cone, betti_table
from .windows import (
    Window,
    WindowChain,
    _report_header,
    _window_product,
    iter_sorted_chains,
    iter_windows,
)

# Desk-scale sweep bounds: every window on grids this size gets checked.
SWEEP_MAX_ROWS = 3
SWEEP_MAX_COLS = 8
# Bound on the product of per-window generator counts for sampled chains;
# keeps each brute-force colon run comfortably under the global gen cap.
SAMPLE_GEN_BOUND = 1200


def iter_shapes(max_rows: int, max_cols: int) -> Iterator[GridShape]:
    _require(max_rows, int, "row bound")
    _require(max_cols, int, "column bound")
    for rows in range(1, max_rows + 1):
        for cols in range(rows, max_cols + 1):
            yield GridShape(rows, cols)


def _ideal_text(ideal, texts: dict) -> str:
    """``str(ideal)``, each generator's text taken from or added to texts,
    so a generator repeated across steps is rendered once."""
    parts = []
    for k in ideal.keys:
        text = texts.get(k)
        if text is None:
            text = texts[k] = _key_text(ideal.shape, k)
        parts.append(text)
    return "<" + ", ".join(parts) + ">"


def _rendered_step(u: int, brute, closed, equal: bool, texts: dict) -> dict:
    """One colon step as text; equal ideals have identical generators, so
    their text is rendered once."""
    text = _ideal_text(brute, texts)
    closed_text = text if equal else _ideal_text(closed, texts)
    return {"u": u, "brute": text, "closed": closed_text, "equal": equal}


def single_window_report(shape: GridShape, window: Window) -> dict:
    """Diff the brute-force colon chain of one window ideal against the
    gap-variable closed form, step by step from the second diagonal."""
    _require(window, Window, "window").check_against(shape)
    entries = []
    texts = {}
    all_equal = certificate = True
    for u, brute, closed in _colon_steps(shape, window):
        if u:
            equal = brute == closed
            all_equal = all_equal and equal
            certificate = certificate and brute.is_generated_by_variables
            entries.append(_rendered_step(u, brute, closed, equal, texts))
    return {
        "check": "window-colon",
        "shape": [shape.rows, shape.cols],
        "window": [window.first, window.last],
        "steps": entries,
        "linear_quotients": certificate,
        "ok": all_equal and certificate,
    }


def sweep_single_windows(
    max_rows: int = SWEEP_MAX_ROWS, max_cols: int = SWEEP_MAX_COLS
) -> Iterator[dict]:
    for shape in iter_shapes(max_rows, max_cols):
        for window in iter_windows(shape):
            yield single_window_report(shape, window)


def product_chain_report(
    shape: GridShape, chain: WindowChain, caps: Caps = DEFAULT_CAPS
) -> dict:
    entries = verify_product_colons(shape, chain, caps=caps)
    texts = {}
    rendered = [
        _rendered_step(entry["u"], entry["brute"], entry["closed"], entry["equal"], texts)
        for entry in entries
    ]
    return {
        "check": "product-colon",
        **_report_header(shape, chain),
        "steps": rendered,
        "ok": all(entry["equal"] for entry in entries),
    }


def sweep_product_chains(
    length: int,
    max_rows: int = SWEEP_MAX_ROWS,
    max_cols: int = SWEEP_MAX_COLS,
    caps: Caps = DEFAULT_CAPS,
) -> Iterator[dict]:
    _require(length, int, "chain length")
    _require(caps, Caps, "Caps")
    for shape in iter_shapes(max_rows, max_cols):
        for chain in iter_sorted_chains(shape, length):
            yield product_chain_report(shape, chain, caps=caps)


def sample_product_chains(
    length: int,
    count: int,
    seed: int,
    max_rows: int = SWEEP_MAX_ROWS,
    max_cols: int = SWEEP_MAX_COLS,
) -> list[tuple[GridShape, WindowChain]]:
    """Seeded sample of sorted chains whose product stays desk-sized."""
    _require(length, int, "chain length")
    _require(count, int, "sample count")
    _require(seed, int, "seed")
    if count < 0:
        raise DomainError(f"sample count must be >= 0, got {count}")
    pool = [
        (shape, chain)
        for shape in iter_shapes(max_rows, max_cols)
        for chain in iter_sorted_chains(shape, length)
        if prod(comb(w.width, shape.rows) for w in chain.windows) <= SAMPLE_GEN_BOUND
    ]
    if len(pool) <= count:
        return pool
    picks = sorted(random.Random(seed).sample(range(len(pool)), count))
    return [pool[i] for i in picks]


def theorem_report(
    shape: GridShape,
    chain: WindowChain,
    caps: Caps = DEFAULT_CAPS,
    characteristic: int = 0,
) -> dict:
    """Check the product ideal resolves linearly: regularity from the
    homology oracle must equal (number of windows) * rows, and the cone
    count must agree whenever the canonical order has linear quotients.
    The product is counted as it forms, as in ``verify_product_colons``:
    ``ResourceLimitError`` at the first partial product past
    ``caps.max_product_gens``, before any of it reaches the oracle."""
    _require(chain, WindowChain, "window chain").check_against(shape)
    product = _window_product(shape, chain.windows, _require(caps, Caps, "Caps").max_product_gens, chain)
    expected = len(chain.windows) * shape.rows
    report = {
        "check": "linear-resolution",
        **_report_header(shape, chain),
        "generators": len(product),
        "expected_reg": expected,
    }
    table = betti_table(product, characteristic=characteristic, caps=caps)
    report["reg"] = table.regularity
    report["degree"] = product.single_generation_degree()
    report["linear"] = table.regularity == report["degree"] == expected
    cone = _cone(product, characteristic)
    report["linear_quotients"] = cone is not None
    report["cone_agrees"] = None if cone is None else cone.same_entries(table)
    report["ok"] = bool(report["linear"]) and report["cone_agrees"] is not False
    return report


def remarks_report() -> list[dict]:
    """Reproduce the two negative controls: out-of-order window products
    whose colons must differ from the naive closed form."""
    return [
        {"check": "negative-control", **record}
        for name in NEGATIVE_CONTROLS
        for record in replay_colon_mismatch(name)
    ]


def conjecture_scan(
    max_rows: int,
    max_cols: int,
    max_factors: int,
    characteristic: int = 32003,
    caps: Caps = DEFAULT_CAPS,
) -> Iterator[dict]:
    """Run the initial-ideal comparison over every sorted chain within
    bounds, in enumeration order.  Resource blowups are recorded per
    instance and the scan moves on.

    The bounds are checked before the first chain: their types, then
    ``DomainError`` for one below 1, then ``ResourceLimitError`` for one
    above its conjecture cap (rows, columns, factors)."""
    bounds = _items((max_rows, max_cols, max_factors), int, "scan bound")
    _require(characteristic, int, "characteristic")
    _require(caps, Caps, "Caps")
    limits = (caps.max_conjecture_rows, caps.max_conjecture_cols, caps.max_conjecture_factors)
    if min(bounds) < 1:
        raise DomainError(f"scan bounds {bounds} must be at least 1")
    if any(value > limit for value, limit in zip(bounds, limits)):
        raise ResourceLimitError(f"scan bounds {bounds} exceed caps {limits}")
    for shape in iter_shapes(max_rows, max_cols):
        for length in range(1, max_factors + 1):
            for chain in iter_sorted_chains(shape, length):
                base = {**_report_header(shape, chain), "char": characteristic}
                try:
                    yield conjecture_check(
                        shape, chain, characteristic=characteristic, caps=caps
                    )
                except ResourceLimitError as err:
                    base["skipped"] = True
                    base["error"] = str(err)
                    yield base


# (rows, cols, window bounds) of the instances `verify --target lemma2` and
# `--target theorem` run when no shape is given.
LEMMA2_DEFAULTS = (
    (1, 3, ((1, 2), (2, 3))),
    (2, 4, ((1, 3), (2, 4))),
    (2, 5, ((1, 4), (2, 5))),
    (3, 8, ((2, 6), (2, 6))),
    (3, 9, ((1, 5), (3, 7))),
)
THEOREM_DEFAULTS = (
    (1, 3, ((1, 2), (2, 3))),
    (2, 4, ((1, 3), (2, 4))),
    (2, 4, ((1, 4),)),
    (3, 6, ((2, 5),)),
    (2, 5, ((1, 3), (3, 5))),
)


def _default_cases(table) -> list[tuple[GridShape, WindowChain]]:
    return [(GridShape(rows, cols), WindowChain.of(*bounds)) for rows, cols, bounds in table]


def verify_reports(
    target: str,
    shape: GridShape | None = None,
    window: Window | None = None,
    chain: WindowChain | None = None,
    caps: Caps = DEFAULT_CAPS,
    characteristic: int = 0,
) -> Iterator[dict]:
    """Reports for one `verify` target: on the shape with the window or chain
    the target reads, or, given no shape, on a default desk-scale set.  A
    window or chain without a shape is a ``DomainError``."""
    if _require(target, str, "verify target") not in ("lemma1", "lemma2", "theorem", "remarks", "all"):
        raise DomainError(f"unknown verify target: {target!r}")
    _require(shape, (GridShape, type(None)), "grid shape")
    _require(window, (Window, type(None)), "window")
    _require(chain, (WindowChain, type(None)), "window chain")
    _require(caps, Caps, "Caps")
    _require(characteristic, int, "characteristic")
    if shape is None and (window is not None or chain is not None):
        raise DomainError("a window or chain needs a grid shape")
    if target in ("lemma1", "all"):
        yield from [single_window_report(shape, window)] if shape else sweep_single_windows()
    if target in ("lemma2", "all"):
        for case in [(shape, chain)] if shape else _default_cases(LEMMA2_DEFAULTS):
            yield product_chain_report(*case, caps=caps)
    if target in ("theorem", "all"):
        for case in [(shape, chain)] if shape else _default_cases(THEOREM_DEFAULTS):
            yield theorem_report(*case, caps=caps, characteristic=characteristic)
    if target in ("remarks", "all"):
        yield from remarks_report()
