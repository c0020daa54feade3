"""Resource limits.

Every cap is configuration, not a constant: the CLI accepts a key-value caps
file and the library functions accept a ``Caps`` instance.  A caps file sets
caps only; every key must name a ``Caps`` field.  Exceeding a cap raises
``ResourceLimitError`` instead of producing a partial answer.  Each cap is
checked by the library code that does the capped work, so a caller of the
library meets the same limits as the CLI, which checks none itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError, FormatError, _require


@dataclass(frozen=True)
class Caps:
    """Every cap is a positive int: ``OperandTypeError`` for another type,
    ``DomainError`` for an int below 1."""

    max_minor_rows: int = 6
    max_product_gens: int = 5000
    max_oracle_gens: int = 12
    max_lcm_candidates: int = 4096
    max_koszul_faces: int = 1 << 20
    max_spairs: int = 200_000
    max_conjecture_rows: int = 3
    max_conjecture_cols: int = 6
    max_conjecture_factors: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if _require(value, int, f"cap {f.name}") < 1:
                raise DomainError(f"cap {f.name} must be a positive integer, got {value!r}")


DEFAULT_CAPS = Caps()

_CAP_NAMES = {f.name for f in fields(Caps)}


def parse_caps_text(text: str) -> Caps:
    """Parse ``key = value`` lines into a ``Caps``."""
    if not isinstance(text, str):
        raise FormatError(f"caps text must be a string, got {text!r}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"caps line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CAP_NAMES:
            raise FormatError(f"caps line {lineno}: unknown key {key!r}")
        try:
            values[key] = int(val)
        except ValueError:
            raise FormatError(f"caps line {lineno}: {key} needs an integer, got {val!r}") from None
    try:
        return replace(DEFAULT_CAPS, **values)
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def load_caps_file(path: str) -> Caps:
    if not isinstance(path, (str, os.PathLike)):
        raise FormatError(f"caps file path must be a string or path, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read caps file {path}: {exc}") from None
    return parse_caps_text(text)
