"""Exception types shared across the package.

Every error raised by library code derives from DelinsError so callers can
catch the whole family at the CLI boundary and map it to an exit code.
"""


class DelinsError(Exception):
    """Base class for all library errors."""


class UnknownSymbol(DelinsError):
    """A symbol in the input text is absent from a frozen vocabulary."""

    def __init__(self, symbol: str):
        super().__init__(f"unknown symbol {symbol!r}")
        self.symbol = symbol


class TooLarge(DelinsError):
    """An enumeration bound was exceeded; oracles never silently approximate."""


class Overflow(DelinsError):
    """A count left the range of its arithmetic domain (uint64 or float64).

    Recoverable: the caller may rerun the same computation in the next
    domain of the ladder exact, float, log.
    """


class BeyondFloat64(Overflow):
    """A count that only the log domain holds; log_count is its natural log."""

    def __init__(self, log_count: float):
        super().__init__(f"count e^{log_count:.6g} exceeds float64")
        self.log_count = log_count


class NotASubsequence(DelinsError):
    """x_t cannot be embedded in x_0 (subsequence count is zero)."""


class NotSingleDeletion(DelinsError):
    """y does not reduce to x_t by deleting exactly one token."""


class InvalidTimes(DelinsError):
    """Times outside the required range or ordering."""


class NonFinite(DelinsError):
    """A loss, a parameter table or a gap's insertion scores hold a non-finite value."""


class NonPositiveScore(DelinsError):
    """A score entry is <= 0 where the training target requires log(score)."""


class NormalizationViolation(DelinsError):
    """Fixed-length scores do not sum to the required K - |x_t|."""


class ModeMismatch(DelinsError):
    """Operation called in a way inconsistent with the scorer mode."""


class ZeroDenominator(DelinsError):
    """The state is unreachable at this time; the score denominator vanishes."""


class InvalidSteps(DelinsError):
    """Step count for a timestep grid must be >= 1."""


class ShapeMismatch(DelinsError):
    """Array shape inconsistent with the sequence or vocabulary it describes."""


class ConfigError(DelinsError):
    """Invalid or inconsistent run configuration."""


class VersionMismatch(DelinsError):
    """Checkpoint was written by an incompatible format version."""
