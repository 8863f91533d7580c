"""Error types shared across the pipeline, and the base of the records
that raise them on bad values.

DataError: bad input data (malformed files, invariant violations in feeds).
UsageError: the caller asked for something unsupported (bad flags, bad config).
Programming-contract violations (empty distributions, inconsistent counts)
raise plain ValueError.
"""


class DataError(Exception):
    """Raised when an input file or record violates the data contract."""

    def __init__(self, message, *, line=None):
        self.line, self.message = line, message  # the message without "line N: "
        super().__init__(message if line is None else f"line {line}: {message}")


def cut(text: str) -> str:
    """How a message shows a value: `text`, or past 100 characters its first 99 and "…"."""
    return text if len(text) <= 100 else text[:99] + "…"


class UsageError(Exception):
    """Raised when a command, format, or configuration value is not supported."""


class Checked:
    """The first base of a namedtuple subclass whose `_check` raises on bad
    values. Every way to build one runs it: a call, `_make`, `_replace`
    (which calls `_make`) and unpickling (which calls `__new__`)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
