"""Exception hierarchy shared by all pipeline stages.

Three top-level families map onto CLI exit codes: ConfigError (usage or
bad configuration, exit 1), DataError (malformed or inconsistent inputs,
exit 2), InternalError (invariant violations, exit 3).
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


# events -----------------------------------------------------------------

class MissingColumnError(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column missing from header: {name!r}")
        self.name = name


class DuplicateLabelError(DataError):
    def __init__(self, session_id: str, question: int):
        super().__init__(f"duplicate label for session {session_id!r} question {question}")
        self.session_id = session_id
        self.question = question


class QuestionOutOfRangeError(DataError):
    def __init__(self, question: int):
        super().__init__(f"question number {question} outside [1, 18]")
        self.question = question


# aggregation ------------------------------------------------------------

class SpecTypeMismatchError(ConfigError):
    def __init__(self, column: str, kind: str):
        super().__init__(f"aggregator kind {kind!r} does not match type class of column {column!r}")
        self.column = column
        self.kind = kind


# dataset ----------------------------------------------------------------

class EmptyJoinError(DataError):
    def __init__(self) -> None:
        super().__init__("no label matched any feature row")


class AllMissingColumnError(DataError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} has no present values; mean undefined")
        self.name = name


class TooFewRowsError(DataError):
    def __init__(self, detail: str):
        super().__init__(f"too few rows: {detail}")


# selection / metrics ----------------------------------------------------

class LengthMismatchError(DataError):
    def __init__(self, n_left: int, n_right: int, what: str = "vector lengths"):
        super().__init__(f"{what} differ: {n_left} vs {n_right}")


class PolicyUnsatisfiableError(ConfigError):
    def __init__(self, kept: int, wanted: int):
        super().__init__(f"only {kept} features survive the policy, {wanted} requested")
        self.kept = kept
        self.wanted = wanted


# models -----------------------------------------------------------------

class KTooLargeError(ConfigError):
    def __init__(self, k: int, rows: int):
        super().__init__(f"k={k} exceeds number of stored rows ({rows})")


class DimensionMismatchError(DataError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"query dimension {got} does not match stored dimension {expected}")


class ShapeMismatchError(DataError):
    def __init__(self, detail: str):
        super().__init__(f"shape mismatch: {detail}")


class ZeroVectorError(DataError):
    def __init__(self) -> None:
        super().__init__("cosine distance undefined for zero-norm vector")


class EmptySetError(DataError):
    def __init__(self) -> None:
        super().__init__("impurity undefined for an empty sample set")


class NumericalError(InternalError):
    """Non-finite value appeared where the algorithm guarantees finiteness."""


# persistence ------------------------------------------------------------

class ContainerFormatError(DataError):
    """Model container bytes are malformed or truncated."""


class UnsupportedVersionError(DataError):
    def __init__(self, version: int, supported: int):
        super().__init__(f"model container version {version} not supported (expected {supported})")
        self.version = version


class FingerprintMismatchError(DataError):
    def __init__(self, detail: str):
        super().__init__(f"config fingerprint mismatch: {detail}")
