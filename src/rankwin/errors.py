"""Exception types shared across the package; all derive from RankwinError."""


class RankwinError(Exception):
    """Base of every error the package raises on purpose; each subclass also
    keeps a builtin base (ValueError, ArithmeticError, RuntimeError)."""


class DomainError(RankwinError, ValueError):
    """Inputs outside an operation's mathematical domain."""


class ConfigError(RankwinError, ValueError):
    """Invalid configuration: partition sizing, bad dimensions, bad flags."""


class ShapeError(RankwinError, ValueError):
    """Array dimensions do not match what an operation expects."""


class DataError(RankwinError, ValueError):
    """Malformed or non-finite data."""


class NumericalError(RankwinError, ArithmeticError):
    """Non-finite values appeared in the middle of a computation."""


class SelectionError(RankwinError, RuntimeError):
    """No usable reference pair exists for a window."""


class DigestMismatchError(DataError):
    """Stored artifact was produced by a different model or dataset."""
