"""Error types shared across the pipeline.

DataError: bad input data (malformed files, invariant violations in feeds).
UsageError: the caller asked for something unsupported (bad flags, bad config).
Programming-contract violations (empty distributions, inconsistent counts)
raise plain ValueError.
"""


class DataError(Exception):
    """Raised when an input file or record violates the data contract."""

    def __init__(self, message, *, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UsageError(Exception):
    """Raised when a command, format, or configuration value is not supported."""
