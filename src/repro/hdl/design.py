"""Elaborated design IR: what the simulator executes.

The elaborator flattens a module hierarchy into a :class:`Design`:
a flat table of signals and memories plus a list of processes whose
statements reference flattened global names and have all parameters
substituted as constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl import ast_nodes as ast


@dataclass(frozen=True)
class Signal:
    """A flattened scalar/vector signal."""

    name: str
    width: int
    signed: bool = False
    kind: str = "wire"  # "wire" | "reg"
    lsb: int = 0  # declared LSB index, e.g. 4 for ``wire [7:4] x``
    is_input: bool = False
    is_output: bool = False

    @property
    def msb(self) -> int:
        return self.lsb + self.width - 1


@dataclass(frozen=True)
class Memory:
    """A flattened memory array (``reg [w-1:0] mem [base:base+size-1]``)."""

    name: str
    width: int
    size: int
    base: int = 0
    signed: bool = False


@dataclass(frozen=True)
class Process:
    """One executable process.

    kind:
        ``comb``    -- continuous assign or combinational always block;
                       runs whenever a signal in ``reads`` changes.
        ``clocked`` -- edge-triggered always block; runs on ``edges``.
        ``initial`` -- runs once at time zero.
    """

    kind: str
    body: tuple[ast.Stmt, ...]
    edges: tuple[tuple[str, str], ...] = ()  # (edge, signal_name)
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    origin: str = ""  # instance path, for diagnostics
    continuous: bool = False  # assign statement / port binding, not an always block


@dataclass
class Design:
    """A fully elaborated, simulatable design.

    Only the elaborator writes a design.
    :func:`~repro.hdl.compile.compile_design` memoizes designs by
    content, so one instance is shared by every caller and every
    :class:`~repro.hdl.simulator.Simulation` built on it; simulations
    keep their mutable state apart from the design.  The first
    simulation lowers the design to closures (:mod:`repro.hdl.lower`)
    and keeps the result in ``_lowered``, which is not a field: it takes
    no part in equality, ``repr`` or pickling.
    """

    name: str
    signals: dict[str, Signal] = field(default_factory=dict)
    memories: dict[str, Memory] = field(default_factory=dict)
    processes: list[Process] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    functions: dict[str, ast.FunctionDecl] = field(default_factory=dict)

    _lowered = None  # repro.hdl.lower.LoweredDesign, set on first simulation

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lowered", None)
        return state
