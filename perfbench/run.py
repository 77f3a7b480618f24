#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MAGE reproduction.

Three workloads, each driven through the entry point a user's command
reaches:

- ``cold-grid``: ``evaluate_many`` over ``mage`` x ``verilogeval-v2`` x 4
  runs with fresh in-memory caches on a serial executor (``repro eval
  --jobs 1``) -- one fresh process per pass;
- ``warm-grid``: the same 164 cells, serially, over simulation and
  solve-cell caches pre-filled on disk during set-up, fresh cache
  objects per pass;
- ``service-mixed``: a fresh ``repro serve --workers <nproc>`` driven by
  ``nproc`` closed-loop ``MultiplexedClient`` connections through a
  shuffled list holding every cell of 2 seeds twice.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cold-grid --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds traced
passes and prints the per-layer metrics, the tracing overhead, the exact
layer counts and the grid on the executor ``repro eval`` resolves by
default.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every cell's
``(passed, score)`` is checked against ``reference.json``; full-size
runs are appended to ``history.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
HISTORY = os.path.join(HERE, "history.jsonl")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cold-grid", "warm-grid", "service-mixed")
PAPER_PASS_AT_1 = 95.7  # MAGE on VerilogEval-v2, paper Table II
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0

END_TO_END = {
    "cells_per_s": "cells/s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_at_1": "%",
}

# Per-layer metrics of the result line.  A layer's time is listed here
# only when that layer works on every workload; the times of layers
# idle on some workload (an idle layer's time reads 0 on every run)
# are printed in the table and recorded in the history instead.
PER_LAYER = {
    "hdl.parse.calls": "count",
    "hdl.parse.distinct_ratio": "ratio",
    "hdl.elaborate.calls": "count",
    "hdl.simulate.settles": "count",
    "tb.run.calls": "count",
    "tb.run.checks": "count",
    "tb.run.error_ratio": "ratio",
    "evalsets.derive_tb.calls": "count",
    "evalsets.derive_tb.self_s": "s",
    "evalsets.derive_tb.distinct_ratio": "ratio",
    "llm.calls": "count",
    "runtime.cache.sim.lookups": "count",
    "runtime.cache.sim.hit_ratio": "ratio",
    "runtime.cache.sim.get_s": "s",
    "runtime.cache.sim.executed": "count",
    "runtime.cache.solve.lookups": "count",
    "runtime.cache.solve.hit_ratio": "ratio",
    "runtime.cache.solve.replayed_events": "count",
    "runtime.cache.disk.reads": "count",
    "runtime.cache.disk.bytes_read": "bytes",
    "runtime.cache.disk.writes": "count",
    "runtime.cache.disk.corrupt": "count",
    "runtime.cache.key_s": "s",
    "service.protocol.frames": "count",
    "service.protocol.bytes": "bytes",
    "service.server.solved": "count",
    "service.server.replayed": "count",
    "service.server.dedup": "count",
    "setup.import_s": "s",
    "setup.import.repro_s": "s",
    "setup.import.numpy_s": "s",
    "trace.overhead_cells_per_s": "cells/s",
}

# Table-only per-layer metrics (see PER_LAYER).
LAYER_TABLE_ONLY = {
    "hdl.parse.busy_s": "s",
    "hdl.elaborate.busy_s": "s",
    "hdl.simulate.busy_s": "s",
    "tb.run.self_s": "s",
    "llm.self_s": "s",
    "agents.tb.busy_s": "s",
    "agents.rtl.busy_s": "s",
    "agents.judge.busy_s": "s",
    "agents.debug.busy_s": "s",
    "runtime.cache.sim.put_s": "s",
    "runtime.cache.solve.get_s": "s",
    "runtime.cache.disk.read_s": "s",
    "runtime.cache.disk.write_s": "s",
    "runtime.executor.queue_wait_s": "s",
    "runtime.executor.cell_busy_s": "s",
    "runtime.executor.default_cells_per_s": "cells/s",
    "service.client.ack_p50_ms": "ms",
    "service.client.ack_p90_ms": "ms",
    "service.client.done_p50_ms": "ms",
    "service.client.done_p90_ms": "ms",
    "service.protocol.codec_s": "s",
    "setup.import.networkx_s": "s",
    "setup.server_ready_s": "s",
}

# Counts that must repeat exactly across traced passes of the same code
# and seed (taken on a serial schedule, the only deterministic one).
EXACT_COUNTS = (
    "hdl.parse.calls",
    "hdl.elaborate.calls",
    "hdl.simulate.settles",
    "tb.run.calls",
    "tb.run.checks",
    "evalsets.derive_tb.calls",
    "llm.calls",
    "runtime.cache.sim.lookups",
    "runtime.cache.sim.executed",
    "runtime.cache.solve.lookups",
    "runtime.cache.disk.reads",
    "service.server.solved",
    "service.server.replayed",
    "service.server.dedup",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ----------------------------------------------------------------------
# Inputs: every workload's cells follow from its seed.
# ----------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def plan(workload: str, seed: int, tiny: bool, reference: dict) -> dict:
    """The cells one run submits, derived from ``seed`` alone."""
    rng = random.Random(seed)
    base = seed % reference["base_seeds"]
    problems = list(reference["problems"])
    rng.shuffle(problems)
    if tiny:
        problems = problems[:3]
    if workload == "service-mixed":
        runs = 1 if tiny else 2
        requests = [[pid, base + run] for pid in problems for run in range(runs)]
        requests = requests * 2
        rng.shuffle(requests)
        return {
            "problems": problems,
            "runs": runs,
            "seed0": base,
            "requests": requests,
        }
    return {"problems": problems, "runs": 1 if tiny else 4, "seed0": base}


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------


def child_env() -> dict:
    # The program's own settings come from its defaults, never from a
    # REPRO_* variable the caller's shell happens to carry.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Child:
    """One started process: its start time, ready time and output."""

    live: list["Child"] = []

    def __init__(self, argv: list[str], ready_marker: str, capture_stderr=False):
        self.ready_marker = ready_marker
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None,
            text=True,
        )
        Child.live.append(self)
        self.ready_line = ""
        self.ready_s = 0.0
        self.lines: list[str] = []
        self.stderr = ""
        self.maxrss_kb = 0

    def signal(self, signum: int) -> None:
        # os.kill, not Popen.send_signal: Popen would reap the process
        # itself, and finish() needs to reap it to read its peak RSS.
        if self.proc.returncode is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def wait_ready(self, timeout: float = CHILD_TIMEOUT) -> str:
        """Block until the ready line; returns it."""
        watchdog = threading.Timer(timeout, self.signal, (signal.SIGKILL,))
        watchdog.start()
        try:
            return self._read_ready()
        finally:
            watchdog.cancel()

    def _read_ready(self) -> str:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.finish()
                raise BenchError(
                    f"{self.proc.args[1:3]} exited before it was ready "
                    f"(code {self.proc.returncode})"
                )
            if line.startswith(self.ready_marker):
                self.ready_s = time.perf_counter() - self.started
                self.ready_line = line.strip()
                return self.ready_line

    def finish(self, timeout: float = CHILD_TIMEOUT) -> int:
        """Drain output, reap the process (killing it past ``timeout``)."""
        collected: list[str] = []
        drains = [
            threading.Thread(
                target=lambda: collected.append(self.proc.stdout.read())
            )
        ]
        errors: list[str] = []
        if self.proc.stderr is not None:
            drains.append(
                threading.Thread(
                    target=lambda: errors.append(self.proc.stderr.read())
                )
            )
        for thread in drains:
            thread.start()
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.signal(signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for thread in drains:
            thread.join()
        self.proc.stdout.close()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        Child.live.remove(self)
        self.lines = "".join(collected).splitlines()
        self.stderr = "".join(errors)
        self.maxrss_kb = usage.ru_maxrss
        return self.proc.returncode

    def result(self) -> dict:
        code = self.finish()
        for line in reversed(self.lines):
            if line.startswith("@result "):
                if code != 0:
                    break
                return json.loads(line[len("@result ") :])
        raise BenchError(f"{self.proc.args[1:3]} failed (exit code {code})")

    @classmethod
    def stop_all(cls) -> None:
        for child in list(cls.live):
            child.signal(signal.SIGKILL)
            child.finish(timeout=10.0)


def child_argv(mode: str, spec: dict | None = None) -> list[str]:
    argv = [sys.executable, CHILD, mode]
    if spec is not None:
        argv.append(json.dumps(spec))
    return argv


def serve_argv(workers: int, traced: dict | None) -> list[str]:
    options = ["--port", "0", "--workers", str(workers)]
    if traced is None:
        return [sys.executable, "-m", "repro", "serve", *options]
    return [*child_argv("serve", traced), "--", *options]


def parent_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Set-up time.
# ----------------------------------------------------------------------


def setup_samples(workload: str) -> tuple[list[float], int, str]:
    """Start-to-ready times of fresh processes, the peak RSS of the
    benchmark process plus one of them, and the executor `repro eval`
    resolves by default."""
    samples = []
    peak = 0
    parent = parent_rss_kb()
    default = f"serve --workers {os.cpu_count() or 1}"
    for _ in range(SETUP_SAMPLES):
        if workload == "service-mixed":
            child = Child(serve_argv(os.cpu_count() or 1, None), "listening on ")
            child.wait_ready()
            child.signal(signal.SIGTERM)
        else:
            child = Child(child_argv("probe"), "@ready")
            child.wait_ready()
        child.finish(timeout=30.0)
        samples.append(child.ready_s)
        peak = max(peak, parent + child.maxrss_kb)
        for line in child.lines:
            if line.startswith("@executor "):
                default = line.removeprefix("@executor ")
    return samples, peak, default


def import_breakdown() -> dict[str, float]:
    """Import time of the grid path, by package (``-X importtime``)."""
    child = Child(
        [sys.executable, "-X", "importtime", CHILD, "probe"],
        "@ready",
        capture_stderr=True,
    )
    child.wait_ready()
    if child.finish(timeout=30.0) != 0:
        raise BenchError("import probe failed")
    entries = []
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            micros = int(cumulative.strip())
        except ValueError:
            continue  # the header line
        entries.append((len(name) - len(name.lstrip()), name.strip(), micros))
    # Imports made by the probe come after the interpreter's own `site`.
    start = next(
        (i + 1 for i, (_, name, _) in enumerate(entries) if name == "site"), 0
    )
    own = entries[start:]
    top = min((indent for indent, _, _ in own), default=0)
    first = {}
    for _, name, micros in own:
        first.setdefault(name, micros)
    return {
        "setup.import_s": sum(m for i, _, m in own if i == top) / 1e6,
        "setup.import.repro_s": first.get("repro", 0) / 1e6,
        "setup.import.numpy_s": first.get("numpy", 0) / 1e6,
        "setup.import.networkx_s": first.get("networkx", 0) / 1e6,
    }


# ----------------------------------------------------------------------
# Passes.  Each returns a list of pass records:
#   {"wall_s", "cells": [[pid, seed, passed, score, seconds]], "rss_kb",
#    "layers"?, "service"?}
# ----------------------------------------------------------------------


def grid_spec(inputs: dict, **overrides) -> dict:
    spec = {
        "problems": inputs["problems"],
        "runs": inputs["runs"],
        "seed0": inputs["seed0"],
        "trace": False,
        "serial": False,
        "disk": False,
        "repeat": False,
        "seconds": 0,
        "sim_dir": None,
        "solve_dir": None,
        "trace_out": None,
    }
    spec.update(overrides)
    return spec


def run_grid_child(spec: dict) -> list[dict]:
    parent = parent_rss_kb()
    child = Child(child_argv("grid", spec), "@ready")
    child.wait_ready()
    child.result()
    records = []
    for line in child.lines:
        if not line.startswith("@pass "):
            continue
        record = json.loads(line.removeprefix("@pass "))
        cells = [
            [pid, spec["seed0"] + run, passed, score, seconds]
            for pid, run, passed, score, seconds in record["cells"]
        ]
        records.append(
            {
                "wall_s": record["wall_s"],
                "cells": cells,
                "executor": record["executor"],
                "rss_kb": parent + child.maxrss_kb,
                "layers": record.get("layers"),
            }
        )
    return records


def grid_passes(workload, inputs, seconds, dirs, trace, serial, trace_out=None):
    """Passes for ``seconds`` (at least one): a fresh process per cold
    pass; warm passes repeat inside one process, each over fresh cache
    objects."""
    overrides = {"trace": trace, "serial": serial, "trace_out": trace_out}
    if workload == "warm-grid":
        spec = grid_spec(
            inputs,
            disk=True,
            repeat=True,
            seconds=seconds,
            sim_dir=dirs["sim"],
            solve_dir=dirs["solve"],
            **overrides,
        )
        return run_grid_child(spec)
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        records += run_grid_child(grid_spec(inputs, **overrides))
        overrides["trace_out"] = None
        if time.perf_counter() >= deadline:
            return records


def prefill(inputs: dict, dirs: dict) -> None:
    """Fill the warm-grid disk caches (benchmark set-up, not measured)."""
    run_grid_child(
        grid_spec(inputs, disk=True, sim_dir=dirs["sim"], solve_dir=dirs["solve"])
    )


def service_pass(inputs, connections, trace, work, trace_out=None) -> dict:
    """One fresh server, one client process, the whole request list."""
    parent = parent_rss_kb()
    layers_path = os.path.join(work, "server-layers.json")
    traced = None
    if trace:
        traced = {
            "layers_out": layers_path,
            "trace_out": trace_out and trace_out + "-server",
        }
    server = Child(serve_argv(os.cpu_count() or 1, traced), "listening on ")
    try:
        address = server.wait_ready().removeprefix("listening on ").strip()
        spec = {
            "address": address,
            "requests": inputs["requests"],
            "connections": connections,
            "trace": trace,
        }
        client = Child(child_argv("client", spec), "@ready")
        client.wait_ready()
        payload = client.result()
    finally:
        if server in Child.live:
            # The client stops the server; a failed client leaves it to
            # the timeout.
            server.finish(timeout=30.0)
    if payload["errors"] or server.proc.returncode != 0:
        raise BenchError(
            f"service pass failed: {payload['errors'][:3]} "
            f"(server exit code {server.proc.returncode})"
        )
    rows = sorted(payload["rows"])
    cells = [
        [pid, seed, passed, score, latency]
        for _, pid, seed, passed, score, latency, *_ in rows
    ]
    rss = parent + server.maxrss_kb + client.maxrss_kb
    record = {
        "wall_s": payload["wall_s"],
        "cells": cells,
        "executor": f"serve --workers {os.cpu_count() or 1}, {connections} connections",
        "rss_kb": rss,
        "service": {
            "solved": sum(1 for r in rows if not r[6] and not r[7]),
            "replayed": sum(1 for r in rows if r[6]),
            "dedup": sum(1 for r in rows if r[7] and not r[6]),
        },
        "layers": None,
    }
    if trace:
        with open(layers_path) as handle:
            server_layers = json.load(handle)
        client_layers = payload["layers"]
        layers = dict(server_layers)
        for name, value in client_layers.items():
            if name.startswith("service."):
                layers[name] = value
        acks = [r[8] for r in rows if r[8] is not None]
        dones = [r[5] - r[8] for r in rows if r[8] is not None]
        layers["service.client.ack_p50_ms"] = quantile(acks, 0.5) * 1e3
        layers["service.client.ack_p90_ms"] = quantile(acks, 0.9) * 1e3
        layers["service.client.done_p50_ms"] = quantile(dones, 0.5) * 1e3
        layers["service.client.done_p90_ms"] = quantile(dones, 0.9) * 1e3
        for name, value in record["service"].items():
            layers[f"service.server.{name}"] = value
        record["layers"] = layers
    return record


def service_passes(inputs, seconds, trace, work, trace_out=None):
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        records.append(
            service_pass(inputs, os.cpu_count() or 1, trace, work, trace_out)
        )
        trace_out = None
        if time.perf_counter() >= deadline:
            return records


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def pass_at_1(cells: list) -> float:
    """Paper Eq. 7 at k=1: mean over problems of the passing run share."""
    by_problem: dict[str, list[bool]] = {}
    for pid, seed, passed, _score, _seconds in cells:
        by_problem.setdefault(pid, []).append(bool(passed))
    shares = [sum(runs) / len(runs) for runs in by_problem.values()]
    return 100.0 * sum(shares) / len(shares)


def end_to_end(records: list[dict], setup: list[float], setup_rss: int) -> dict:
    """Medians over passes, so one disturbed pass cannot move a metric."""

    def per_pass(measure) -> float:
        return statistics.median(measure(r) for r in records)

    def latency(q: float):
        return lambda r: quantile([cell[4] for cell in r["cells"]], q) * 1e3

    peak_kb = max([r["rss_kb"] for r in records] + [setup_rss])
    return {
        "cells_per_s": per_pass(lambda r: len(r["cells"]) / r["wall_s"]),
        "cell_p50_ms": per_pass(latency(0.5)),
        "cell_p90_ms": per_pass(latency(0.9)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_at_1": pass_at_1(records[0]["cells"]),
    }


def check(records: list[dict], reference: dict, corrupt: bool) -> tuple[int, int]:
    """(attempted, failed): each cell against its reference row."""
    rows = reference["rows"]
    if corrupt:
        # Self-check: flip one row the run will look up.
        pid, seed = records[0]["cells"][0][:2]
        rows = {s: dict(r) for s, r in rows.items()}
        passed, score = rows[str(seed)][pid]
        rows[str(seed)][pid] = [not passed, score]
    attempted = failed = 0
    for record in records:
        for pid, seed, passed, score, _seconds in record["cells"]:
            attempted += 1
            expected = rows.get(str(seed), {}).get(pid)
            if expected is None or [passed, score] != expected:
                failed += 1
    return attempted, failed


def median_layers(records: list[dict]) -> dict:
    names = records[0]["layers"].keys()
    return {
        name: statistics.median(r["layers"][name] for r in records) for name in names
    }


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


def measure(workload, inputs, seconds, trace, work):
    """All passes of one run: ``untraced``, and when traced also
    ``traced``, ``counts``, ``default`` (grids) and the ``imports``
    breakdown."""
    dirs = {"sim": os.path.join(work, "sim"), "solve": os.path.join(work, "solve")}
    if workload == "warm-grid":
        prefill(inputs, dirs)
    traces = os.path.join(WORK, "traces", workload)
    span = seconds / 2 if trace else seconds
    out = {}
    if workload == "service-mixed":
        out["untraced"] = service_passes(inputs, span, False, work)
    else:
        out["untraced"] = grid_passes(
            workload, inputs, span, dirs, trace=False, serial=True
        )
    if not trace:
        return out
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, "traced")
    if workload == "service-mixed":
        out["traced"] = service_passes(inputs, span, True, work, trace_out)
        out["counts"] = [service_pass(inputs, 1, True, work) for _ in range(2)]
    else:
        out["traced"] = grid_passes(
            workload, inputs, span, dirs, trace=True, serial=True, trace_out=trace_out
        )
        out["default"] = grid_passes(
            workload, inputs, span / 2, dirs, trace=True, serial=False
        )
        out["counts"] = [
            grid_passes(workload, inputs, 0, dirs, trace=True, serial=True)[0]
            for _ in range(2)
        ]
    out["imports"] = import_breakdown()
    return out


def environment(records: list[dict]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "executor": records[0]["executor"],
    }


def run(args) -> dict:
    reference = load_reference()
    inputs = plan(args.workload, args.seed, args.size == "tiny", reference)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup, setup_rss, default_executor = setup_samples(args.workload)
        passes = measure(args.workload, inputs, args.seconds, args.trace, work)
    finally:
        Child.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    untraced = passes["untraced"]
    every = [
        r
        for key in ("untraced", "traced", "counts", "default")
        for r in passes.get(key, ())
    ]
    attempted, failed = check(every, reference, args.corrupt_reference)
    e2e = end_to_end(untraced, setup, setup_rss)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "pass_at_1_error": e2e["pass_at_1"] - PAPER_PASS_AT_1,
        "setup_samples_s": setup,
        # Per untraced pass: wall seconds, cells, p50 and p90 in ms.
        "pass_stats": [
            [
                r["wall_s"],
                len(r["cells"]),
                quantile([c[4] for c in r["cells"]], 0.5) * 1e3,
                quantile([c[4] for c in r["cells"]], 0.9) * 1e3,
            ]
            for r in untraced
        ],
    }
    if args.workload == "service-mixed":
        served = {
            key: sum(r["service"][key] for r in untraced)
            for key in ("solved", "replayed", "dedup")
        }
        requests = sum(len(r["cells"]) for r in untraced)
        report["service"] = dict(
            served,
            replayed_or_dedup_share=(served["replayed"] + served["dedup"]) / requests,
        )
    counts_ok = True
    if args.trace:
        # A layer that never ran on this workload reports 0.
        layers = dict.fromkeys({**PER_LAYER, **LAYER_TABLE_ONLY}, 0.0)
        layers.update(median_layers(passes["traced"]))
        layers.update(passes["imports"])
        if args.workload == "service-mixed":
            layers["setup.server_ready_s"] = statistics.median(setup)
        traced_e2e = end_to_end(passes["traced"], setup, setup_rss)
        layers["trace.overhead_cells_per_s"] = (
            e2e["cells_per_s"] - traced_e2e["cells_per_s"]
        )
        first, second = (r["layers"] for r in passes["counts"])
        counts = {name: first.get(name, 0) for name in EXACT_COUNTS}
        repeats = {
            name: counts[name] == second.get(name, 0) for name in EXACT_COUNTS
        }
        counts_ok = all(repeats.values())
        # Counts and ratios come from the serial pass, where they are
        # deterministic; times from the workload's own executor.
        for name, unit in {**PER_LAYER, **LAYER_TABLE_ONLY}.items():
            if unit in ("count", "ratio", "bytes") and name in first:
                layers[name] = first[name]
        report["layers"] = layers
        report["exact_counts"] = counts
        report["counts_repeat"] = repeats
        report["traced_cells_per_s"] = traced_e2e["cells_per_s"]
        if "default" in passes:
            # The executor `repro eval` resolves by default (thread[2] on
            # 2 cores): what concurrency it gets, and its throughput.
            default = median_layers(passes["default"])
            for name in (
                "runtime.executor.queue_wait_s",
                "runtime.executor.cell_busy_s",
            ):
                layers[name] = default[name]
            layers["runtime.executor.default_cells_per_s"] = end_to_end(
                passes["default"], setup, setup_rss
            )["cells_per_s"]
    report["correct"] = failed == 0 and counts_ok
    report["environment"] = dict(
        environment(untraced), default_executor=default_executor
    )
    return report


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------


def render(report: dict) -> list[str]:
    e2e = report["end_to_end"]
    env = report["environment"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"size {report['size']}  passes {report['passes']}  "
        f"executor {env['executor']} (default {env['default_executor']})",
        f"environment: {env['cores']} cores, python {env['python']}, "
        f"git {env['git_sha'][:12]}, src {env['src_sha256']}",
        "",
        "end to end (untraced):",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<36} {e2e[name]:>14.4f} {unit}")
    lines.append(
        f"  {'failed_ratio':<36} {report['failed_ratio']:>14.4f} ratio"
        f"  ({report['failed']} of {report['attempted']} cells)"
    )
    lines.append(
        f"  pass_at_1 {e2e['pass_at_1']:.2f}% vs paper {PAPER_PASS_AT_1}%: "
        f"reproduction error {report['pass_at_1_error']:+.2f} points"
    )
    if "service" in report:
        service = report["service"]
        lines.append(
            f"  served: {service['solved']} solved, {service['replayed']} "
            f"replayed, {service['dedup']} deduped "
            f"({100 * service['replayed_or_dedup_share']:.1f}% replayed or deduped)"
        )
    if "layers" in report:
        layers = report["layers"]
        lines += ["", "per layer (traced):"]
        for name, unit in {**PER_LAYER, **LAYER_TABLE_ONLY}.items():
            lines.append(f"  {name:<36} {layers[name]:>14.4f} {unit}")
        lines.append(
            f"  tracing overhead: {report['end_to_end']['cells_per_s']:.2f} "
            f"cells/s untraced vs {report['traced_cells_per_s']:.2f} traced"
        )
        lines += ["", "exact counts (serial schedule, two traced passes):"]
        for name, value in report["exact_counts"].items():
            same = "repeats" if report["counts_repeat"][name] else "DIFFERS"
            lines.append(f"  {name:<36} {int(value):>14d} count  {same}")
    return lines


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {
            name: {
                "value": (
                    int(report["layers"][name])
                    if unit in ("count", "bytes")
                    else report["layers"][name]
                ),
                "unit": unit,
            }
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def append_history(report: dict) -> None:
    entry = dict(report, time=datetime.now(timezone.utc).isoformat(timespec="seconds"))
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Self-check.
# ----------------------------------------------------------------------


def self_check() -> int:
    """Tiny runs of every workload: names, units and the oracle."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            for corrupt in (False, True) if trace == 0 else (False,):
                argv = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny",
                ]
                if corrupt:
                    argv.append("--corrupt-reference")
                done = subprocess.run(
                    argv, cwd=ROOT, capture_output=True, text=True, timeout=170
                )
                label = f"{workload} trace={trace} corrupt={corrupt}"
                known = len(problems)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    problems.append(
                        f"{label}: exit {done.returncode}: {done.stderr[-500:]}"
                    )
                    continue
                result = json.loads(lines[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{label}: metrics {units} != {expected[trace]}")
                for name, unit in expected[trace].items():
                    if not any(
                        line.split()[:1] == [name] and line.rstrip().endswith(unit)
                        for line in lines
                    ):
                        problems.append(f"{label}: no table line for {name} [{unit}]")
                if corrupt and (result["failed"] < 1 or result["correct"]):
                    problems.append(f"{label}: corrupted reference row not counted")
                if not corrupt and (result["failed"] or not result["correct"]):
                    problems.append(f"{label}: failed {result['failed']}")
                status = "ok" if len(problems) == known else "FAIL"
                print(f"self-check {label}: {status}", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("self-check: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 0 if not problems else 1


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: 3 problems x 1 run, for the self-check (not recorded)",
    )
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Termination still runs the clean-up that stops every started process.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    try:
        report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in render(report):
        print(line)
    if args.size == "full":
        append_history(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
