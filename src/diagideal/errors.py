"""Exception types shared across the toolkit."""


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


def _require(value, kind, what: str):
    """DomainError unless value is a kind: the type check of a public entry."""
    if not isinstance(value, kind):
        raise DomainError(f"not a {what}: {value!r}")


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
        self.snapshot = dict(snapshot or {})
