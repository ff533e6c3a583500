"""Exception types shared across the package.

Every error raised on a bad input or an impossible request derives from
GstbnError so callers (and the CLI) can catch one base class.
"""

from __future__ import annotations

__all__ = [
    "GstbnError",
    "StructuralError",
    "OrderingError",
    "NoObserversError",
    "NotFoundError",
    "ParameterError",
    "ParseError",
]


class GstbnError(Exception):
    """Base class for all domain errors."""


class StructuralError(GstbnError):
    """Inputs are internally inconsistent (grid mismatch, empty domain, ...)."""


class OrderingError(GstbnError):
    """Timestamps are not strictly increasing where they must be."""


class NoObserversError(GstbnError):
    """An operation needs at least one (eligible) active sensor and found none."""


class NotFoundError(GstbnError):
    """A referenced node or timestamp does not exist."""


class ParameterError(GstbnError):
    """A numeric or enum parameter is outside its legal range."""


class ParseError(GstbnError):
    """A file could not be parsed; message carries path and line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")
