"""Error types for the HDL frontend and simulator.

Every error carries an optional source location so that agent-facing
diagnostics (the syntax-fix loop of the RTL agent) can point at the
offending line, the way an ``iverilog`` message would.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLoc(NamedTuple):
    """A position in Verilog source text (1-based line and column).

    A named tuple rather than a dataclass: every token carries one, and
    a tuple is several times cheaper to build.
    """

    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


class HdlError(Exception):
    """Base class for all HDL substrate errors."""

    def __init__(self, message: str, loc: SourceLoc | None = None):
        self.message = message
        self.loc = loc
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.loc is not None:
            return f"{self.message} ({self.loc})"
        return self.message


class LexError(HdlError):
    """Raised on unrecognized characters or malformed literals."""


class ParseError(HdlError):
    """Raised when the token stream does not form a valid module."""


class ElaborationError(HdlError):
    """Raised for semantic errors found while building the design."""


class SimulationError(HdlError):
    """Raised for runtime failures (oscillation, bad indexing, ...)."""
