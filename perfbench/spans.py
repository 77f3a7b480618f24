"""Span recorder and the layer wrappers of the traced benchmark pass.

Tracing installs wrappers around the public functions and methods of
each layer from outside the program: ``src/`` is never edited.  A
wrapped call records a :class:`Span` (name, start, end, parent span,
cell id) in memory; the spans are reduced to per-layer metrics and
written out when the run ends.  Self time is a span's duration minus
the time its direct child spans cover.

``Simulation.settle`` runs hundreds of thousands of times per grid, so
it is recorded as a *leaf*: its calls and time are summed per thread
and charged to the enclosing span as child time, without a span object
per call.

Work that runs in another process is only seen when that process
installs the wrappers too (the traced ``repro serve`` of the service
workload does); cells an executor ships to pool worker processes are
not traced.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
import typing

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _family(name: str) -> str:
    """Spans of one family nest as one piece of work (llm.sample inside
    llm.complete, agents.judge inside agents.judge)."""
    return "llm" if name.startswith("llm.") else name


class Span:
    """One traced call."""

    __slots__ = ("name", "start", "end", "parent", "cell", "child_ns", "tid")

    def __init__(self, name: str, parent: "Span | None", cell: str) -> None:
        self.name = name
        self.parent = parent
        self.cell = cell
        self.child_ns = 0
        self.tid = threading.get_ident()
        self.start = 0
        self.end = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Recorder:
    """Holds every span and counter of one traced pass.

    ``enabled`` gates the wrappers: with it off a wrapped call costs one
    attribute test, so untraced passes of a traced run stay comparable.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._leaf_tables: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        # Submit times of grid cells by cell identity: a cell's queue
        # wait runs from the executor's submit to the start of run_cell.
        self.submitted: dict[int, int] = {}
        # Disk-tier entry sizes per directory (see entry_size).
        self._sizes: dict[str, dict[str, int]] = {}

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        with self._lock:
            self._leaf_tables = []
            self.counters = {}
            self.keys = {}
        self._local = threading.local()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def distinct(self, name: str, key) -> None:
        with self._lock:
            self.keys.setdefault(name, set()).add(key)

    def span(self, name, fn, cell_of=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``name`` may be a function of the call's positional arguments
        (one wrapper serving several cache layers).  ``cell_of(args)``
        names the grid cell a top-level span belongs to (nested spans
        inherit it); ``after(span, args, kwargs, result)`` records
        per-call counters.
        """
        recorder = self
        name_of = name if callable(name) else (lambda _args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            parent = _current.get()
            if parent is not None:
                cell = parent.cell
            else:
                cell = cell_of(args) if cell_of is not None else ""
            span = Span(name_of(args), parent, cell)
            token = _current.set(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                _current.reset(token)
                if parent is not None:
                    parent.child_ns += span.end - span.start
                recorder.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def leaf(self, name, fn):
        """Wrap a hot leaf: count calls and time, charge the parent."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - started
                parent = _current.get()
                if parent is not None:
                    parent.child_ns += elapsed
                table = recorder._leaf_table()
                entry = table.get(name)
                if entry is None:
                    table[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return traced

    def entry_size(self, directory: str, key: str) -> int:
        """Bytes of the disk-tier entry for ``key`` (files are named
        ``<key>.<suffix>``); the listing is cached per directory and
        refreshed when a key is missing from it."""
        sizes = self._sizes.get(directory)
        if sizes is None or key not in sizes:
            sizes = {}
            with os.scandir(directory) as entries:
                for entry in entries:
                    try:
                        sizes[entry.name.split(".", 1)[0]] = entry.stat().st_size
                    except OSError:
                        continue
            self._sizes[directory] = sizes
        return sizes.get(key, 0)

    def _leaf_table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._lock:
                self._leaf_tables.append(table)
        return table

    def leaf_totals(self) -> dict[str, tuple[int, int]]:
        totals: dict[str, list[int]] = {}
        with self._lock:
            tables = list(self._leaf_tables)
        for table in tables:
            for name, (calls, ns) in table.items():
                entry = totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += ns
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def watch_executor(self, executor) -> None:
        """Record submit times on one executor instance (queue wait)."""
        for attr in ("submit", "submit_unchecked"):
            original = getattr(executor, attr)

            def submit(fn, *args, _original=original):
                if self.enabled and args:
                    self.submitted[id(args[0])] = _now()
                return _original(fn, *args)

            setattr(executor, attr, submit)

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        outer: dict[str, int] = {}
        for span in self.spans:
            name = span.name
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + span.duration_ns
            self_ns[name] = self_ns.get(name, 0) + span.self_ns
            # Outermost span of its family: agents.judge inside agents.judge,
            # or llm.sample inside llm.complete, is one piece of work.
            family = _family(name)
            ancestor = span.parent
            while ancestor is not None and _family(ancestor.name) != family:
                ancestor = ancestor.parent
            if ancestor is None:
                outer[family] = outer.get(family, 0) + span.duration_ns
                calls[f"{family}#outer"] = calls.get(f"{family}#outer", 0) + 1
        counters = dict(self.counters)
        settles, settle_ns = self.leaf_totals().get("hdl.simulate", (0, 0))

        def n(counter: str) -> int:
            return int(counters.get(counter, 0))

        def seconds(ns_by_name: dict, name: str) -> float:
            return ns_by_name.get(name, 0) * 1e-9

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def distinct_ratio(name: str) -> float:
            return ratio(len(self.keys.get(name, ())), calls.get(name, 0))

        metrics = {
            "hdl.parse.calls": calls.get("hdl.parse", 0),
            "hdl.parse.busy_s": seconds(busy, "hdl.parse"),
            "hdl.parse.distinct_ratio": distinct_ratio("hdl.parse"),
            "hdl.elaborate.calls": calls.get("hdl.elaborate", 0),
            "hdl.elaborate.busy_s": seconds(busy, "hdl.elaborate"),
            "hdl.simulate.settles": settles,
            "hdl.simulate.busy_s": settle_ns * 1e-9,
            "tb.run.calls": calls.get("tb.run", 0),
            "tb.run.self_s": seconds(self_ns, "tb.run"),
            "tb.run.checks": n("tb.run.checks"),
            "tb.run.error_ratio": ratio(n("tb.run.errors"), calls.get("tb.run", 0)),
            "evalsets.derive_tb.calls": calls.get("evalsets.derive_tb", 0),
            "evalsets.derive_tb.self_s": seconds(self_ns, "evalsets.derive_tb"),
            "evalsets.derive_tb.distinct_ratio": distinct_ratio("evalsets.derive_tb"),
            "llm.calls": calls.get("llm#outer", 0),
            "llm.self_s": seconds(self_ns, "llm.complete")
            + seconds(self_ns, "llm.sample"),
        }
        for role in ("tb", "rtl", "judge", "debug"):
            metrics[f"agents.{role}.busy_s"] = seconds(outer, f"agents.{role}")
        for layer in ("sim", "solve"):
            prefix = f"runtime.cache.{layer}"
            lookups = n(f"{prefix}.lookups")
            metrics[f"{prefix}.lookups"] = lookups
            metrics[f"{prefix}.hit_ratio"] = ratio(n(f"{prefix}.hits"), lookups)
            metrics[f"{prefix}.get_s"] = seconds(busy, f"{prefix}.get")
        metrics["runtime.cache.sim.put_s"] = seconds(busy, "runtime.cache.sim.put")
        metrics["runtime.cache.solve.replayed_events"] = n(
            "runtime.cache.solve.replayed_events"
        )
        for name in ("reads", "bytes_read", "writes", "corrupt"):
            metrics[f"runtime.cache.disk.{name}"] = n(f"runtime.cache.disk.{name}")
        metrics.update(
            {
                "runtime.cache.disk.read_s": seconds(busy, "runtime.cache.disk.read"),
                "runtime.cache.disk.write_s": seconds(
                    busy, "runtime.cache.disk.write"
                ),
                "runtime.cache.key_s": seconds(busy, "runtime.cache.key"),
                "runtime.executor.queue_wait_s": seconds(
                    counters, "runtime.executor.queue_wait_ns"
                ),
                "runtime.executor.cell_busy_s": seconds(busy, "runtime.executor.cell"),
                "service.protocol.frames": n("service.protocol.frames"),
                "service.protocol.bytes": n("service.protocol.bytes"),
                "service.protocol.codec_s": seconds(
                    counters, "service.protocol.codec_ns"
                ),
            }
        )
        return metrics

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome Trace Event JSON (Perfetto opens it)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = []
        pid = os.getpid()
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": pid,
                    "tid": span.tid,
                    "args": {
                        "span": index,
                        "parent": ids.get(id(span.parent)),
                        "cell": span.cell,
                    },
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# Installing the wrappers.
# ----------------------------------------------------------------------


def _import_all_repro() -> None:
    """Import every ``repro`` module, so every binding of a wrapped
    function is visible before the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _rebind(original, wrapped) -> None:
    """Replace ``original`` with ``wrapped`` wherever a repro module
    holds it by name (``from x import f`` copies the binding)."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(module_name: str, attr: str, make) -> None:
    original = getattr(sys.modules[module_name], attr)
    _rebind(original, make(original))


def _wrap_method(cls, attr: str, make) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def install(recorder: Recorder) -> None:
    """Wrap every traced layer boundary; call once per process."""
    _import_all_repro()

    from repro.agents.team import AgentTeam
    from repro.hdl.elaborator import Elaborator
    from repro.hdl.simulator import Simulation
    from repro.llm.simllm import SimLLM
    from repro.runtime.cache import DiskTier, TieredCache

    r = recorder

    # hdl: parse / elaborate / simulate.
    def after_parse(span, args, kwargs, result):
        r.distinct("hdl.parse", _digest(args[0] if args else kwargs.get("source")))

    _wrap_function(
        "repro.hdl.parser",
        "parse_source",
        lambda fn: r.span("hdl.parse", fn, after=after_parse),
    )
    _wrap_method(Elaborator, "elaborate", lambda fn: r.span("hdl.elaborate", fn))
    _wrap_method(Simulation, "settle", lambda fn: r.leaf("hdl.simulate", fn))

    # tb: one testbench run.
    def after_tb(span, args, kwargs, result):
        r.count("tb.run.checks", len(result.records))
        if result.error is not None:
            r.count("tb.run.errors")

    _wrap_function(
        "repro.tb.runner",
        "run_testbench",
        lambda fn: r.span("tb.run", fn, after=after_tb),
    )

    # evalsets: golden / probe testbench derivation.
    def after_derive(span, args, kwargs, result):
        # The testbench name is a label; the content is everything else.
        r.distinct("evalsets.derive_tb", _digest(args[:7]))

    _wrap_function(
        "repro.evalsets.problem",
        "derive_testbench",
        lambda fn: r.span("evalsets.derive_tb", fn, after=after_derive),
    )

    # llm: the simulated model.
    _wrap_method(SimLLM, "complete", lambda fn: r.span("llm.complete", fn))
    _wrap_method(SimLLM, "sample", lambda fn: r.span("llm.sample", fn))

    # agents: the public methods of each role AgentTeam holds.
    for role, cls in typing.get_type_hints(AgentTeam).items():
        if not isinstance(cls, type) or not hasattr(cls, "ask"):
            continue
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            _wrap_method(
                cls, attr, lambda fn, role=role: r.span(f"agents.{role}", fn)
            )

    # runtime.cache: tiered lookups, disk tier I/O, key hashing.
    def after_get(span, args, kwargs, result):
        layer = getattr(args[0], "layer", "generic")
        r.count(f"runtime.cache.{layer}.lookups")
        if result is not None:
            r.count(f"runtime.cache.{layer}.hits")
            events = getattr(result, "events", None)
            if events is not None:
                r.count(f"runtime.cache.{layer}.replayed_events", len(events))

    _wrap_method(
        TieredCache,
        "get",
        lambda fn: r.span(
            lambda args: f"runtime.cache.{args[0].layer}.get", fn, after=after_get
        ),
    )
    _wrap_method(
        TieredCache,
        "put",
        lambda fn: r.span(lambda args: f"runtime.cache.{args[0].layer}.put", fn),
    )

    def after_disk_read(span, args, kwargs, result):
        r.count("runtime.cache.disk.reads")
        if result is not None:
            r.count(
                "runtime.cache.disk.bytes_read",
                r.entry_size(args[0].directory, args[1]),
            )

    def disk_read(fn):
        traced = r.span("runtime.cache.disk.read", fn, after=after_disk_read)

        @functools.wraps(fn)
        def read(self, key, *args, **kwargs):
            corrupt = self.stats.corrupt
            result = traced(self, key, *args, **kwargs)
            if r.enabled and self.stats.corrupt != corrupt:
                r.count("runtime.cache.disk.corrupt", self.stats.corrupt - corrupt)
            return result

        return read

    _wrap_method(DiskTier, "get", disk_read)
    _wrap_method(DiskTier, "peek", disk_read)

    def after_disk_write(span, args, kwargs, result):
        r.count("runtime.cache.disk.writes")

    _wrap_method(
        DiskTier,
        "put",
        lambda fn: r.span("runtime.cache.disk.write", fn, after=after_disk_write),
    )
    for name in ("simulation_key", "solve_cell_key"):
        _wrap_function(
            "repro.runtime.cache",
            name,
            lambda fn: r.span("runtime.cache.key", fn),
        )

    # runtime.executor: the grid's cell function.
    def cell_id(args):
        cell = args[0]
        return f"{cell.problem.id}#{cell.seed}"

    def run_cell(fn):
        traced = r.span("runtime.executor.cell", fn, cell_of=cell_id)

        @functools.wraps(fn)
        def timed(cell, *args, **kwargs):
            submitted = r.submitted.pop(id(cell), None)
            if r.enabled and submitted is not None:
                r.count("runtime.executor.queue_wait_ns", _now() - submitted)
            return traced(cell, *args, **kwargs)

        return timed

    _wrap_function("repro.runtime.workers", "run_cell", run_cell)

    # service: client-side frame codec.
    def codec(kind):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not r.enabled:
                    return fn(*args, **kwargs)
                started = _now()
                result = fn(*args, **kwargs)
                elapsed = _now() - started
                size = len(result) if kind == "encode" else len(args[0])
                r.count("service.protocol.frames")
                r.count("service.protocol.bytes", size)
                r.count("service.protocol.codec_ns", elapsed)
                return result

            return traced

        return make

    _wrap_function("repro.service.protocol", "encode_frame", codec("encode"))
    _wrap_function(
        "repro.service.protocol", "decode_payload_versioned", codec("decode")
    )
