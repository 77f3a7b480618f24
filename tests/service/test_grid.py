"""Sharded grids: ≥2 real server processes, bit-identical merge."""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.evalsets import get_problem
from repro.runtime import SerialExecutor, evaluate_many
from repro.service import (
    ErrorFrame,
    ServiceError,
    encode_frame,
    read_frame,
    solve_grid,
    stop_server,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
PROBLEMS = ["cb_mux2", "cb_kmap_mux", "fs_seq_det_110"]


def _spawn_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, line.removeprefix("listening on ")


@pytest.fixture(scope="module")
def two_servers():
    started = []
    try:
        for _ in range(2):
            started.append(_spawn_server())
        yield [address for _, address in started]
    finally:
        for proc, address in started:
            try:
                stop_server(address)
            except (OSError, ServiceError, ValueError):
                pass
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()


class TestShardedGrid:
    def test_two_process_grid_is_bit_identical_to_local_serial(
        self, two_servers
    ):
        """The acceptance contract: a grid sharded over two server
        *processes* merges to exactly the local --jobs 1 result."""
        problems = [get_problem(p) for p in PROBLEMS]
        sharded, report = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            shards=two_servers,
        )
        with SerialExecutor() as executor:
            local, _ = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=2,
                seed0=0,
                problems=problems,
                executor=executor,
            )
        assert sharded.system == local.system
        assert sharded.suite == local.suite
        assert sharded.outcomes == local.outcomes  # scores bit-identical
        # Both shards actually served cells (round-robin by grid index).
        assert len(report.shard_cells) == 2
        assert all(count > 0 for count in report.shard_cells.values())
        assert report.cells == len(problems) * 2

    def test_repeat_grid_is_cache_served_and_identical(self, two_servers):
        problems = [get_problem(p) for p in PROBLEMS]
        first, _ = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            shards=two_servers,
        )
        again, report = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            shards=two_servers,
        )
        assert again.outcomes == first.outcomes
        assert report.cached_cells == report.cells  # all warm

    def test_grid_streams_cell_events(self, two_servers):
        problems = [get_problem(p) for p in PROBLEMS[:2]]
        sink = ListSink()
        progress = []
        solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=0,
            problems=problems,
            shards=two_servers,
            events=sink,
            progress=progress.append,
        )
        cells = [e for e in sink.events if e.kind == "cell-finished"]
        assert {e.problem_id for e in cells} == {p.id for p in problems}
        assert sink.events[-1].kind == "batch-finished"
        # Progress lines arrive in suite order, one per problem.
        assert len(progress) == 2
        assert problems[0].id in progress[0]
        assert problems[1].id in progress[1]

    def test_single_shard_seed0_changes_results_key(self, two_servers):
        """seed0 is honoured on the wire: different base seed, different
        solve-cell identity (no false cache hits across seeds)."""
        problems = [get_problem(PROBLEMS[0])]
        _, first = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=40,
            problems=problems,
            shards=two_servers[:1],
        )
        _, second = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=41,
            problems=problems,
            shards=two_servers[:1],
        )
        assert first.cached_cells == 0
        assert second.cached_cells == 0

    def test_bad_shard_list_raises(self):
        with pytest.raises(ValueError):
            solve_grid("mage", "verilogeval-v2", shards=[])
        with pytest.raises(ValueError):
            solve_grid(
                "mage",
                "verilogeval-v2",
                shards=["not-an-address"],
                problems=[get_problem("cb_mux2")],
            )


class TestConnectionRefusal:
    def test_grid_aborts_with_the_servers_reason(self):
        """A server that refuses the connection itself (an id-0 error
        frame, then close) aborts the grid with its reason: the refusal
        is deterministic, so no retry, no dead shard, no migration."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def refuse_everything():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return  # listener closed: the test is over
                accepted.append(conn)
                with conn, conn.makefile("rb") as stream:
                    read_frame(stream)
                    conn.sendall(
                        encode_frame(
                            ErrorFrame(
                                id=0,
                                message="protocol version mismatch: "
                                "got 3, want 4",
                            )
                        )
                    )

        thread = threading.Thread(target=refuse_everything, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        try:
            with pytest.raises(ServiceError) as caught:
                solve_grid(
                    "mage",
                    "verilogeval-v2",
                    problems=[get_problem("cb_mux2")],
                    shards=[f"{host}:{port}"],
                )
        finally:
            listener.close()
            thread.join(timeout=10)
        assert "version mismatch" in str(caught.value)
        assert "dead" not in str(caught.value)
        assert len(accepted) == 1
