"""Work that runs in a fresh process: imports, grid passes, service I/O.

``run.py`` never imports ``repro``; every measured pass runs here, in a
process started for it, so a cold pass starts as cold as a new ``repro
eval`` process does.  Usage (``run.py`` builds the arguments)::

    python3 perfbench/child.py probe
    python3 perfbench/child.py grid '<json spec>'
    python3 perfbench/child.py client '<json spec>'
    python3 perfbench/child.py serve '<json spec>' -- <repro serve args>

Each mode prints ``@ready`` once its imports are done and, except
``serve``, a final ``@result <json>`` line; ``grid`` prints one ``@pass
<json>`` line per pass before it.  The traced ``serve`` mode
writes its layer metrics to the file named in its spec when the server
drains.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SYSTEM = "mage"
SUITE = "verilogeval-v2"


def ready() -> None:
    print("@ready", flush=True)


def result(payload: dict) -> None:
    print("@result " + json.dumps(payload), flush=True)


def import_grid_path() -> None:
    """What ``repro eval`` imports before its first cell."""
    import repro.cli  # noqa: F401
    from repro.baselines.registry import SYSTEMS  # noqa: F401
    from repro.evalsets.suites import get_suite  # noqa: F401
    from repro.runtime import create_executor, evaluate_many  # noqa: F401


def start_tracing(enabled: bool):
    """The recorder of a traced process (None when untraced)."""
    if not enabled:
        return None
    sys.path.insert(0, HERE)
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    return recorder


def grid(spec: dict) -> None:
    """One or more grid passes through ``evaluate_many``."""
    import_grid_path()
    from repro.baselines.registry import SYSTEMS
    from repro.core.events import CellFinished
    from repro.evalsets.suites import get_suite
    from repro.runtime import (
        SerialExecutor,
        create_executor,
        evaluate_many,
        runtime_session,
    )
    from repro.runtime.cache import simulation_count
    from repro.runtime.config import default_jobs

    ready()
    recorder = start_tracing(spec["trace"])
    by_id = {problem.id: problem for problem in get_suite(SUITE)}
    problems = [by_id[pid] for pid in spec["problems"]]
    factory = SYSTEMS[SYSTEM].factory
    deadline = time.perf_counter() + spec["seconds"]
    for index in itertools.count():
        # The default `repro eval` executor, unless the pass exists to
        # take exact counts, which needs a deterministic schedule.
        if spec["serial"]:
            executor = SerialExecutor()
        else:
            executor = create_executor(jobs=default_jobs())
        if recorder is not None:
            recorder.watch_executor(executor)
            recorder.reset()
            recorder.enabled = True
        if spec["disk"]:
            # What a new `repro eval` process with REPRO_SIM_CACHE_DIR,
            # REPRO_SOLVE_CACHE=1 and REPRO_SOLVE_CACHE_DIR set builds:
            # fresh cache objects over the shared directories.
            session = runtime_session(
                executor=executor,
                cache=True,
                cache_dir=spec["sim_dir"],
                solve_cache=True,
                solve_cache_dir=spec["solve_dir"],
            )
        else:
            session = contextlib.nullcontext()  # fresh in-memory defaults
        cells = []

        def on_event(event, cells=cells) -> None:
            if isinstance(event, CellFinished):
                cells.append(
                    [
                        event.problem_id,
                        event.run_index,
                        event.passed,
                        event.score,
                        event.seconds,
                    ]
                )

        sims_before = simulation_count()
        started = time.perf_counter()
        try:
            with session:
                _, report = evaluate_many(
                    factory,
                    SUITE,
                    runs=spec["runs"],
                    seed0=spec["seed0"],
                    problems=problems,
                    executor=executor,
                    events=on_event,
                )
        finally:
            executor.shutdown()
        wall = time.perf_counter() - started
        record = {
            "wall_s": wall,
            "cells": cells,
            "executor": report.executor,
            "simulations": simulation_count() - sims_before,
        }
        if recorder is not None:
            recorder.enabled = False
            layers = recorder.layer_metrics()
            layers["runtime.cache.sim.executed"] = record["simulations"]
            record["layers"] = layers
            if spec.get("trace_out") and index == 0:
                recorder.write_chrome_trace(spec["trace_out"] + ".json")
        # One line per pass: the process holds one pass at a time, so its
        # memory does not grow with the number of passes a run fits.
        print("@pass " + json.dumps(record), flush=True)
        if not spec["repeat"] or time.perf_counter() >= deadline:
            break
    result({})


def client(spec: dict) -> None:
    """Closed-loop service client: one thread per connection."""
    from repro.service import MultiplexedClient, stop_server

    ready()
    recorder = start_tracing(spec["trace"])
    acks = {}
    if recorder is not None:
        acks = watch_acks()
        recorder.reset()
        recorder.enabled = True
    requests = list(enumerate(spec["requests"]))
    lock = threading.Lock()
    rows: list = []
    errors: list = []

    def drive(connection: MultiplexedClient) -> None:
        while True:
            with lock:
                if not requests or errors:
                    return
                index, (problem_id, seed) = requests.pop(0)
            submitted = time.perf_counter()
            try:
                outcome = connection.solve(SYSTEM, problem_id, seed=seed)
            except Exception as exc:  # noqa: BLE001 -- reported as a failure
                with lock:
                    errors.append(f"{problem_id}#{seed}: {exc}")
                return
            done = time.perf_counter()
            ack = acks.pop(threading.get_ident(), None) if acks else None
            with lock:
                rows.append(
                    [
                        index,
                        problem_id,
                        seed,
                        outcome.passed,
                        outcome.score,
                        done - submitted,
                        outcome.cached,
                        outcome.dedup,
                        None if ack is None else ack - submitted,
                    ]
                )

    connections = [
        MultiplexedClient(spec["address"]) for _ in range(spec["connections"])
    ]
    started = time.perf_counter()
    try:
        threads = [
            threading.Thread(target=drive, args=(connection,))
            for connection in connections
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        for connection in connections:
            connection.close()
        stop_server(spec["address"])
    payload = {"wall_s": wall, "rows": rows, "errors": errors}
    if recorder is not None:
        recorder.enabled = False
        payload["layers"] = recorder.layer_metrics()
    result(payload)


def watch_acks() -> dict:
    """Time each request's ``Ack`` through the client's frame functions.

    The sending thread stamps its connection and request id on
    ``write_frame``; the reader thread stamps the ``Ack`` arrival for
    that pair; the sending thread collects its own stamp by thread id.
    Connections are told apart by their socket's file descriptor.
    """
    import repro.service.client as client_module
    from repro.service.protocol import Ack, SolveRequest

    write_frame = client_module.write_frame
    read_frame = client_module.read_frame
    pending: dict = {}
    arrived: dict = {}

    def traced_write(stream, frame, *args, **kwargs):
        if isinstance(frame, SolveRequest):
            pending[(stream.fileno(), frame.id)] = threading.get_ident()
        return write_frame(stream, frame, *args, **kwargs)

    def traced_read(stream):
        fileno = stream.fileno()
        frame = read_frame(stream)
        if isinstance(frame, Ack):
            sender = pending.pop((fileno, frame.id), None)
            if sender is not None:
                arrived[sender] = time.perf_counter()
        return frame

    client_module.write_frame = traced_write
    client_module.read_frame = traced_read
    return arrived


def serve(spec: dict, argv: list[str]) -> None:
    """``repro serve`` with the layer wrappers installed."""
    recorder = start_tracing(True)
    import repro.cli

    recorder.enabled = True
    sims_before = _simulation_count()
    try:
        repro.cli.main(["serve", *argv])
    finally:
        recorder.enabled = False
        layers = recorder.layer_metrics()
        layers["runtime.cache.sim.executed"] = _simulation_count() - sims_before
        with open(spec["layers_out"], "w") as handle:
            json.dump(layers, handle)
        if spec.get("trace_out"):
            recorder.write_chrome_trace(spec["trace_out"] + ".json")


def _simulation_count() -> int:
    from repro.runtime.cache import simulation_count

    return simulation_count()


def probe() -> None:
    import_grid_path()
    ready()
    from repro.runtime import create_executor
    from repro.runtime.config import default_jobs

    executor = create_executor(jobs=default_jobs())
    print("@executor " + executor.describe(), flush=True)
    executor.shutdown()


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        probe()
    elif mode == "grid":
        grid(json.loads(argv[1]))
    elif mode == "client":
        client(json.loads(argv[1]))
    elif mode == "serve":
        serve(json.loads(argv[1]), argv[3:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
