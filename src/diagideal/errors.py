"""Exception types shared across the toolkit, and the operand checks of
its public entries: ``_require`` for one value, ``_items`` for an
iterable, the only code that raises ``OperandTypeError``."""


class DiagIdealError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(DiagIdealError):
    """Operands live on different variable grids."""


class WindowError(DiagIdealError):
    """A column window violates its bounds for the given grid."""


class ChainOrderError(DiagIdealError):
    """A window chain is not sorted componentwise."""


class SelectionError(DiagIdealError):
    """A column selection is not strictly increasing or out of range."""


class DomainError(DiagIdealError):
    """Input lies outside an operation's domain."""


class OperandTypeError(DomainError, TypeError):
    """An operand of a public entry has the wrong type.  A ``DomainError``
    like every input outside an operation's domain, and a ``TypeError`` as
    Python's own operations raise for a wrong type."""


def _require(value, kind, what: str, shape=None):
    """value, after the operand check of a public entry: OperandTypeError
    unless it is a kind, then, given a grid shape, ShapeMismatchError unless
    it lies on that grid.  The grid message names both grids and builds no
    repr."""
    if not isinstance(value, kind):
        raise OperandTypeError(f"not {'an' if what[0] in 'aeiou' else 'a'} {what}: {value!r}")
    if shape is not None and value.shape is not shape and value.shape != shape:
        on = value.shape
        raise ShapeMismatchError(f"{what} on the {on.rows}x{on.cols} grid, not {shape.rows}x{shape.cols}")
    return value


def _items(value, kind, what: str, shape=None) -> tuple:
    """value as a tuple, after the operand check of an iterable at a public
    entry: OperandTypeError unless it is an iterable, then each item checked
    by ``_require`` against kind and, given one, the grid shape, all before
    the caller's count or range checks.  what names one item."""
    try:
        items = iter(value)
    except TypeError:
        raise OperandTypeError(f"not an iterable of {what}s: {value!r}") from None
    return tuple(_require(item, kind, what, shape) for item in items)


class FormatError(DiagIdealError):
    """Text or JSON input failed to parse."""


class EngineError(DiagIdealError):
    """An internal consistency check failed: a bug in the engine, not a
    finding about the input."""


class ResourceLimitError(DiagIdealError):
    """A configured resource cap was exceeded.

    ``snapshot`` carries whatever partial progress is safe to report.
    """

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = dict(_require(snapshot or {}, dict, "snapshot dict"))
