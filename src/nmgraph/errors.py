"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed edge-list or matrix text input.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class InvalidMatrixError(ValueError):
    """A matrix that cannot have come from any simple graph."""


class SizeGuardError(ValueError):
    """Input too large for brute-force enumeration or for an exact
    floating-point product."""
