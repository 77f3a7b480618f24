"""Pure-Python Verilog substrate: frontend, elaboration, and simulation.

This package replaces Icarus Verilog in the MAGE reproduction.  It provides:

- :mod:`repro.hdl.values` -- 4-state logic vectors with Verilog operator
  semantics (X propagation, signed arithmetic, reductions).
- :mod:`repro.hdl.lexer`, :mod:`repro.hdl.parser`,
  :mod:`repro.hdl.ast_nodes` -- a frontend for the synthesizable subset.
- :mod:`repro.hdl.unparse` -- AST back to Verilog source.
- :mod:`repro.hdl.elaborator` -- parameter resolution and hierarchy
  flattening into a simulatable design.
- :mod:`repro.hdl.lower` -- lowers each elaborated design, once, into
  python closures with widths and operators precomputed.
- :mod:`repro.hdl.simulator` -- an event-driven simulation kernel with
  delta cycles and nonblocking-assignment semantics that runs them.
- :mod:`repro.hdl.lint` -- diagnostics used by the agents' syntax-fix loop.
- :mod:`repro.hdl.deps` -- signal dependency graphs / cones of influence.
"""

from repro.hdl.errors import (
    ElaborationError,
    HdlError,
    LexError,
    ParseError,
    SimulationError,
)
from repro.hdl.values import LogicVec

__all__ = [
    "ElaborationError",
    "HdlError",
    "LexError",
    "LogicVec",
    "ParseError",
    "SimulationError",
]
