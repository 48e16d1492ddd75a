"""Exception hierarchy shared by all pipeline stages.

Three top-level families map onto CLI exit codes: ConfigError (usage or
bad configuration, exit 1), DataError (malformed or inconsistent inputs,
exit 2), InternalError (invariant violations, exit 3). The message, not
the class, names the problem: a class below the families exists only when
the package catches it by type, another class extends it, or raise sites in
two or more modules share its message format.
"""

from __future__ import annotations


class GametraceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GametraceError):
    """Invalid configuration, parameters, or usage."""


class DataError(GametraceError):
    """Malformed, inconsistent, or unusable input data."""


class InternalError(GametraceError):
    """An internal invariant was violated; indicates a bug."""


class LengthMismatchError(DataError):
    def __init__(self, n_left: int, n_right: int, what: str = "vector lengths"):
        super().__init__(f"{what} differ: {n_left} vs {n_right}")


class DimensionMismatchError(DataError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"query dimension {got} does not match stored dimension {expected}")


class ShapeMismatchError(DataError):
    def __init__(self, detail: str):
        super().__init__(f"shape mismatch: {detail}")


class ContainerFormatError(DataError):
    """Model container bytes are malformed or truncated."""
