"""Command-line front end.

Subcommands cover generation (diagonals, ideal-product), single
computations (colon, betti, reg, groebner), verification sweeps
(verify, conjecture-scan), and the golden-data replay (paper-replay).
Output format and characteristic are set by flags only; a --caps file
sets resource limits only.  Every command builds one record per result
and passes it, with its text lines if it renders its own, to ``emit``, the
one place that reads the output format.  Exit codes: 0 pass, 1 mismatch,
2 resource or config error, 141 (128 + SIGPIPE) when the reader of stdout
goes away.  JSON output is one object per line, keys sorted, so identical
invocations produce identical bytes (timing fields excepted); text output
is the command's own lines, or else a one-line summary of the record, with
the unequal steps of a report below it.  The window product is
defined for windows in any order, so ideal-product, colon, betti and reg
take unsorted chains (colon then has no closed form to compare); groebner
and verify need a sorted chain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, IO

from . import checks
from .caps import Caps, DEFAULT_CAPS, load_caps_file
from .errors import ChainOrderError, DiagIdealError, FormatError, ResourceLimitError
from .fields import make_field
from .groebner import buchberger, initial_ideal, natural_window_generators
from .ideals import MonomialIdeal, parse_ideal
from .monomials import GridShape, _key_text
from .quotients import _brute_colon, closed_form_colon, closed_form_product_colon
from .replay import run_paper_replay
from .resolution import betti, betti_table, mapping_cone_betti
from .windows import (
    Window,
    WindowChain,
    _report_header,
    _window_product,
    diagonal_ideal,
    enumerate_diagonals,
)

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_RESOURCE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer
CHAIN = "K1,L1:K2,L2"  # the metavar of every --chain flag


@dataclass
class RunConfig:
    format: str = "text"
    caps: Caps = DEFAULT_CAPS
    stream: IO[str] = sys.stdout


def emit(config: RunConfig, record: dict, lines: list[str] | None = None) -> None:
    """Write one result: json mode the record as one sorted-key line, text
    mode the given lines, or the record's summary when there are none."""
    if config.format == "json":
        lines = [json.dumps(record, sort_keys=True)]
    elif lines is None:
        lines = _text_lines(record)
    for line in lines:
        config.stream.write(line + "\n")


def _flat(value: Any) -> bool:
    return bool(value) and isinstance(value, list) and all(
        isinstance(item, int) or (isinstance(item, list) and all(isinstance(x, int) for x in item))
        for item in value
    )


def _scalar_summary(record: dict) -> str:
    parts = []
    for key in sorted(record):
        value = record[key]
        if key == "ok" or isinstance(value, dict):
            continue
        if isinstance(value, list):
            if not _flat(value):
                continue
            value = str(value).replace(" ", "")
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _text_lines(record: dict) -> list[str]:
    if "ok" in record:
        head = "PASS" if record["ok"] else "FAIL"
    elif record.get("skipped"):
        head = "SKIP"
    else:
        head = "INFO"
    lines = [f"{head} {_scalar_summary(record)}".rstrip()]
    for step in record.get("steps", ()):
        if step.get("equal"):
            continue
        lines.append(
            f"  step u={step['u']} brute={step['brute']} closed={step['closed']}"
        )
    return lines


def _parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"window must be 'k,l', got {text!r}")
    return Window(int(parts[0]), int(parts[1]))


def _shape(args: argparse.Namespace) -> GridShape:
    return GridShape(args.rows, args.cols)


def _chain_windows(args: argparse.Namespace) -> list[Window]:
    """The --chain windows in the order given; the window product is
    defined for any order, so only commands with a closed form need them
    sorted."""
    windows = [_parse_window(part) for part in args.chain.split(":") if part]
    if not windows:
        raise ChainOrderError("empty window chain")
    return windows


def _ideal_argument(config: RunConfig, args: argparse.Namespace, shape: GridShape) -> MonomialIdeal:
    given = [
        name
        for name in ("window", "chain", "gens", "gens_file")
        if getattr(args, name, None) is not None
    ]
    if len(given) != 1:
        raise DiagIdealError(
            "provide exactly one of --window, --chain, --gens, --gens-file"
        )
    if args.window is not None:
        return diagonal_ideal(shape, _parse_window(args.window))
    if args.chain is not None:
        return _window_product(shape, _chain_windows(args), config.caps.max_product_gens, args.chain)
    if args.gens is not None:
        return parse_ideal(shape, args.gens)
    try:
        with open(args.gens_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read gens file {args.gens_file}: {exc}") from None
    return parse_ideal(shape, text.strip())


def cmd_diagonals(config: RunConfig, args: argparse.Namespace) -> int:
    shape = _shape(args)
    window = _parse_window(args.window)
    gens = [_key_text(shape, k) for k in diagonal_ideal(shape, window).keys]
    record = {
        "shape": [shape.rows, shape.cols],
        "window": [window.first, window.last],
        "generators": gens,
    }
    emit(config, record, gens)
    return EXIT_PASS


def cmd_ideal_product(config: RunConfig, args: argparse.Namespace) -> int:
    shape = _shape(args)
    windows = _chain_windows(args)
    product = _window_product(shape, windows, config.caps.max_product_gens, args.chain)
    gens = [_key_text(shape, k) for k in product.keys]
    emit(config, {**_report_header(shape, windows), "generators": gens}, gens)
    return EXIT_PASS


def cmd_colon(config: RunConfig, args: argparse.Namespace) -> int:
    shape = _shape(args)
    windows = _chain_windows(args)
    diagonals = enumerate_diagonals(shape, windows[0])
    u = args.step
    if not 0 <= u < len(diagonals):
        raise DiagIdealError(
            f"step {u} out of range: window {windows[0]} has {len(diagonals)} diagonals"
        )
    f = diagonals[u]
    keys = [d.key for d in diagonals[:u]]
    if len(windows) > 1:
        keys += _window_product(shape, windows, config.caps.max_product_gens, args.chain).keys
    brute = _brute_colon(shape, keys, f.key)
    record: dict[str, Any] = {**_report_header(shape, windows), "u": u, "brute": str(brute)}
    try:
        chain = WindowChain(windows)
    except ChainOrderError:
        record["closed"] = record["equal"] = None
        emit(config, record)
        return EXIT_PASS
    if len(windows) == 1:
        closed = closed_form_colon(shape, windows[0], f)
    else:
        closed = closed_form_product_colon(shape, chain, f, u)
    record["closed"] = str(closed)
    record["equal"] = brute == closed
    emit(config, record)
    return EXIT_PASS if record["equal"] else EXIT_MISMATCH


def _betti_for(config: RunConfig, args: argparse.Namespace, ideal: MonomialIdeal):
    if args.oracle == "cone":
        return mapping_cone_betti(ideal, args.char)
    if args.oracle == "homology":
        return betti_table(ideal, args.char, config.caps)
    return betti(ideal, args.char, config.caps)


def cmd_betti(config: RunConfig, args: argparse.Namespace) -> int:
    table = _betti_for(config, args, _ideal_argument(config, args, _shape(args)))
    record = table.to_json_obj()
    lines = [f"beta[{row['i']},{row['j']}] = {row['beta']}" for row in record["rows"]]
    emit(config, record, lines + [f"reg = {table.regularity}"])
    return EXIT_PASS


def cmd_reg(config: RunConfig, args: argparse.Namespace) -> int:
    ideal = _ideal_argument(config, args, _shape(args))
    table = _betti_for(config, args, ideal)
    degree = ideal.single_generation_degree()
    linear = None if degree is None else table.regularity == degree
    lines = [f"reg = {table.regularity}"]
    if linear is not None:
        lines.append(f"linear resolution: {'yes' if linear else 'no'}")
    emit(config, {"reg": table.regularity, "degree": degree, "linear": linear}, lines)
    return EXIT_PASS


def cmd_groebner(config: RunConfig, args: argparse.Namespace) -> int:
    shape = _shape(args)
    chain = WindowChain(_chain_windows(args))
    generators = natural_window_generators(shape, chain, make_field(args.char), config.caps)
    basis = buchberger(generators, caps=config.caps)
    ini = initial_ideal(basis)
    polys = [str(p) for p in basis.polys]
    gens = [_key_text(shape, k) for k in ini.keys]
    record = {
        **_report_header(shape, chain),
        "char": args.char,
        "generators": len(generators),
        "basis": polys,
        "initial_ideal": gens,
        "spairs": basis.spairs_reduced,
    }
    lines = [f"reduced basis ({len(polys)} elements, {basis.spairs_reduced} S-pairs):"]
    lines += [f"  {poly}" for poly in polys]
    lines.append(f"initial ideal: <{', '.join(gens)}>")
    emit(config, record, lines)
    return EXIT_PASS


def cmd_conjecture_scan(config: RunConfig, args: argparse.Namespace) -> int:
    caps = config.caps
    limits = (caps.max_conjecture_rows, caps.max_conjecture_cols, caps.max_conjecture_factors)
    given = (args.max_rows, args.max_cols, args.max_factors)
    bounds = tuple(limit if value is None else value for value, limit in zip(given, limits))
    for verdict in checks.conjecture_scan(*bounds, characteristic=args.char, caps=caps):
        lines = None  # a skipped verdict prints its SKIP summary
        if not verdict.get("skipped"):
            holds = verdict["ini_equals_J"] and verdict["natural_gens_are_GB"]
            lines = [
                f"{'true' if holds else 'FALSE'} shape={verdict['shape']} "
                f"chain={verdict['chain']} spairs={verdict['spairs']}"
            ]
        emit(config, verdict, lines)
    # A FALSE verdict is a finding, not a failure; only engine errors exit nonzero.
    return EXIT_PASS


# The flags that together give one instance of each verify target; with none
# of them, verify runs the target's default set.
_VERIFY_INSTANCE = {
    "lemma1": {"rows", "cols", "window"},
    "lemma2": {"rows", "cols", "chain"},
    "theorem": {"rows", "cols", "chain"},
    "remarks": set(),
    "all": {"rows", "cols", "window", "chain"},
}


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    needed = _VERIFY_INSTANCE[args.target]
    given = {flag for flag in _VERIFY_INSTANCE["all"] if getattr(args, flag) is not None}
    if given - needed:
        raise DiagIdealError(f"--target {args.target} does not use --{min(given - needed)}")
    if given and given != needed:
        missing = ", --".join(sorted(needed - given))
        raise DiagIdealError(f"--target {args.target} needs --{missing} as well")
    shape = _shape(args) if given else None
    window = _parse_window(args.window) if args.window is not None else None
    chain = WindowChain(_chain_windows(args)) if args.chain is not None else None
    all_ok = True
    for report in checks.verify_reports(
        args.target,
        shape=shape,
        window=window,
        chain=chain,
        caps=config.caps,
        characteristic=args.char,
    ):
        emit(config, report)
        all_ok = all_ok and bool(report["ok"])
    return EXIT_PASS if all_ok else EXIT_MISMATCH


def cmd_paper_replay(config: RunConfig, args: argparse.Namespace) -> int:
    all_ok = True
    for record in run_paper_replay():
        all_ok = all_ok and record["ok"]
        line = f"{'PASS' if record['ok'] else 'FAIL'} {record['name']}"
        if not record["ok"]:
            line += f" expected={record['expected']} got={record['got']}"
        emit(config, record, [line])
    return EXIT_PASS if all_ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagideal",
        description="Window ideals of a generic matrix: generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flag groups that several commands share; argparse lists a parent's
    # flags before the command's own.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--caps", metavar="FILE",
                        help="resource-limit config file (key = value lines)")
    common.add_argument("--output", metavar="PATH",
                        help="write output here instead of standard output")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--rows", type=int, required=True)
    grid.add_argument("--cols", type=int, required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--window", metavar="K,L")
    source.add_argument("--chain", metavar=CHAIN)
    source.add_argument("--gens", metavar="IDEAL",
                        help="ideal text, e.g. '<x[1,1]*x[1,2], x[1,2]^2>'")
    source.add_argument("--gens-file", metavar="PATH")
    source.add_argument("--char", type=int, default=0)
    source.add_argument("--oracle", choices=("auto", "homology", "cone"), default="auto")

    def command(name, handler, parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("diagonals", cmd_diagonals, [grid], "list the diagonal monomials of a window")
    p.add_argument("--window", required=True, metavar="K,L")
    p = command("ideal-product", cmd_ideal_product, [grid], "product of window diagonal ideals")
    p.add_argument("--chain", required=True, metavar=CHAIN)
    p = command("colon", cmd_colon, [grid], "one colon step, brute force vs closed form")
    p.add_argument("--chain", required=True, metavar=CHAIN)
    p.add_argument("--step", type=int, required=True, metavar="U",
                   help="0-based index of the divided generator")
    command("betti", cmd_betti, [grid, source], "Betti table of a monomial ideal")
    command("reg", cmd_reg, [grid, source], "Castelnuovo-Mumford regularity")
    p = command("groebner", cmd_groebner, [grid],
                "reduced basis of a product of window minor ideals")
    p.add_argument("--chain", required=True, metavar=CHAIN)
    p.add_argument("--char", type=int, default=32003, help="default 32003")
    p = command("conjecture-scan", cmd_conjecture_scan, [],
                "compare initial ideals of minor products over many chains")
    p.add_argument("--max-rows", type=int)
    p.add_argument("--max-cols", type=int)
    p.add_argument("--max-factors", type=int)
    p.add_argument("--char", type=int, default=32003, help="default 32003")
    p = command("verify", cmd_verify, [], "run a verification target")
    p.add_argument("--target", required=True, choices=tuple(_VERIFY_INSTANCE))
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--window", metavar="K,L")
    p.add_argument("--chain", metavar=CHAIN)
    p.add_argument("--char", type=int, default=0)
    command("paper-replay", cmd_paper_replay, [], "recompute the golden worked examples and diff")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(format=args.format, stream=sys.stdout)
    try:
        if args.output is not None:
            config.stream = open(args.output, "w", encoding="utf-8")
        if args.caps is not None:
            config.caps = load_caps_file(args.caps)
        return args.handler(config, args)
    except ResourceLimitError as err:
        emit(config, {"error": str(err), "snapshot": err.snapshot, "ok": False})
        return EXIT_RESOURCE
    except BrokenPipeError:
        # reader went away (e.g. piped into head); die quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DiagIdealError, ValueError, OSError) as err:
        # OSError: an --output path that cannot be opened
        emit(config, {"error": str(err), "ok": False})
        return EXIT_RESOURCE
    finally:
        if config.stream is not sys.stdout:
            config.stream.close()


if __name__ == "__main__":
    sys.exit(main())
