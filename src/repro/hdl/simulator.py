"""Event-driven simulation kernel.

Scheduling model (a faithful subset of the IEEE 1364 stratified event
queue):

- combinational processes (continuous assigns, ``always @(*)``,
  level-sensitive always blocks) re-run whenever a signal in their
  sensitivity set changes, via a FIFO worklist drained to a fixpoint
  (delta cycles);
- edge-triggered processes fire on ``posedge``/``negedge`` transitions
  detected after the combinational network settles;
- nonblocking assignments are queued while clocked processes run and
  commit together afterwards (the NBA region), then the network settles
  again -- so classic shift registers and cross-coupled registers work;
- an activation budget guards against combinational oscillation
  (``always @(*) x = ~x;``) with a clear diagnostic.

Process bodies run as python closures that :mod:`repro.hdl.lower` builds
once per design (on the first simulation of it) and that every simulation
of that design shares; this module holds only the per-simulation state
and the schedule.

The kernel is driven from Python: testbenches poke input values and call
:meth:`Simulation.settle`, typically via :mod:`repro.tb.runner`.
"""

from __future__ import annotations

from collections import deque

from repro.hdl.design import Design
from repro.hdl.errors import SimulationError
from repro.hdl.values import LogicVec, _vec

_MAX_EDGE_ROUNDS = 64


class Simulation:
    """Simulates one elaborated :class:`~repro.hdl.design.Design`."""

    def __init__(self, design: Design, max_activations: int | None = None):
        # Imported on first use: a process that never simulates (a client,
        # a fully cache-served grid) never compiles the lowering module.
        from repro.hdl.lower import lowered

        low = lowered(design)
        self.design = design
        self.values: dict[str, LogicVec] = dict(low.values)
        self.memories: dict[str, list[LogicVec]] = {
            name: list(words) for name, words in low.memories.items()
        }
        self.display_log: list[str] = []
        self.finished = False
        self.time = 0  # advanced by the testbench runner, for logs only
        self.max_activations = max_activations or (200 * len(low.comb) + 1000)

        self._comb = low.comb
        self._clocked = low.clocked
        self._ports = low.ports
        self._edge_sources = low.edge_sources
        self._pending: deque[int] = deque()
        self._in_queue: set[int] = set()
        # (commit, value, msb, lsb, word) per queued nonblocking write.
        self._nba: list[tuple] = []
        # Index of the comb process currently executing.  A Verilog process
        # is not waiting on its event list while it runs, so its own writes
        # must not re-trigger it (otherwise every for-loop livelocks).
        self._running: int | None = None
        self._call_depth = 0  # user-function activations in progress

        for body in low.initial:
            body(self, None)
        self._commit_nba()
        self._wake(range(len(self._comb)))
        self._drain_comb()
        self._edge_prev = self._edge_states()

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def poke(self, name: str, value: LogicVec | int) -> None:
        """Drive a top-level input (does not settle; call :meth:`settle`)."""
        port = self._ports.get(name)
        if port is None:
            raise SimulationError(f"{name!r} is not a top-level input")
        width, mask, signed, readers = port
        values = self.values
        old = values[name]
        if isinstance(value, int):
            val = value & mask
            if val == old.val and not old.xmask and old.signed == signed:
                return
            new = _vec(width, val, 0, signed)  # from_int, then the port's sign
        else:
            new = value.resize(width, signed)
            if new.val == old.val and new.xmask == old.xmask and new.signed == old.signed:
                return
        values[name] = new
        if readers:
            self._wake(readers)

    def peek(self, name: str) -> LogicVec:
        """Read any signal by flattened name."""
        if name not in self.values:
            raise SimulationError(f"no signal named {name!r}")
        return self.values[name]

    def settle(self) -> None:
        """Propagate until quiescent: comb fixpoint, edges, NBA commit."""
        for _ in range(_MAX_EDGE_ROUNDS):
            self._drain_comb()
            fired = self._collect_edge_processes()
            if not fired and not self._nba:
                return
            for body in fired:
                body(self, None)
            self._commit_nba()
        raise SimulationError(
            f"simulation did not converge after {_MAX_EDGE_ROUNDS} edge rounds "
            "(unstable derived clock?)"
        )

    def step(self, changes: dict[str, LogicVec | int]) -> None:
        """Apply input changes, then settle."""
        for name, value in changes.items():
            self.poke(name, value)
        self.settle()

    # ------------------------------------------------------------------
    # Internals (the lowered closures call _wake and append to _nba)
    # ------------------------------------------------------------------

    def _wake(self, readers) -> None:
        """Queue comb processes whose inputs changed (not the running one)."""
        running = self._running
        queued = self._in_queue
        pending = self._pending
        for idx in readers:
            if idx != running and idx not in queued:
                queued.add(idx)
                pending.append(idx)

    def _commit_nba(self) -> None:
        queued = self._nba
        self._nba = []
        for commit, value, msb, lsb, word in queued:
            commit(self, value, msb, lsb, word)

    def _drain_comb(self) -> None:
        pending = self._pending
        if not pending:
            return
        queued = self._in_queue
        comb = self._comb
        limit = self.max_activations
        activations = 0
        while pending:
            activations += 1
            if activations > limit:
                raise SimulationError(
                    "combinational logic did not stabilise "
                    f"(> {limit} process activations); "
                    "likely a zero-delay feedback loop"
                )
            idx = pending.popleft()
            queued.discard(idx)
            self._running = idx
            try:
                comb[idx](self, None)
            finally:
                self._running = None

    def _edge_states(self) -> list[int]:
        """Bit 0 of every edge source: 0, 1, or 2 for x."""
        values = self.values
        states = []
        for name in self._edge_sources:
            v = values[name]
            states.append(2 if v.xmask & 1 else v.val & 1)
        return states

    def _collect_edge_processes(self) -> list:
        if not self._clocked:
            return []
        states = self._edge_states()
        prev = self._edge_prev
        if states == prev:
            return []  # no source moved, so no edge
        self._edge_prev = states
        fired = []
        for body, edges in self._clocked:
            for source, table in edges:
                if (prev[source], states[source]) in table:
                    fired.append(body)
                    break
        return fired
