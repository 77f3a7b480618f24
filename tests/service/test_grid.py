"""Service grids: a real server process, bit-identical merge."""

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
    GridReport,
    ServiceError,
    encode_frame,
    parse_address,
    read_frame,
    solve_grid,
    stop_server,
)
from repro.service.client import ClientLink, _is_transient
from repro.service.protocol import ProtocolError

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
def server_address():
    proc, address = _spawn_server()
    try:
        yield address
    finally:
        try:
            stop_server(address)
        except (OSError, ServiceError, ValueError):
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


class TestServiceGrid:
    def test_server_process_grid_is_bit_identical_to_local_serial(
        self, server_address
    ):
        """The acceptance contract: a grid served by a ``repro serve``
        *process* merges to exactly the local --jobs 1 result."""
        problems = [get_problem(p) for p in PROBLEMS]
        served, report = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            address=server_address,
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
        assert served.system == local.system
        assert served.suite == local.suite
        assert served.outcomes == local.outcomes  # scores bit-identical
        assert report.address == server_address
        assert report.cells == len(problems) * 2

    def test_repeat_grid_is_cache_served_and_identical(self, server_address):
        problems = [get_problem(p) for p in PROBLEMS]
        first, _ = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            address=server_address,
        )
        again, report = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=2,
            seed0=0,
            problems=problems,
            address=server_address,
        )
        assert again.outcomes == first.outcomes
        assert report.cached_cells == report.cells  # all warm

    def test_grid_streams_cell_events(self, server_address):
        problems = [get_problem(p) for p in PROBLEMS[:2]]
        sink = ListSink()
        progress = []
        solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=0,
            problems=problems,
            address=server_address,
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

    @pytest.mark.parametrize("callback", ["progress", "events"])
    def test_a_raising_callback_is_raised_in_the_callers_thread(
        self, server_address, monkeypatch, callback
    ):
        """A callback that raises stops the grid: its own exception
        reaches the caller, no grid thread dies of it, and none
        outlives the call."""
        hooked = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: hooked.append(args.exc_type)
        )

        class CallbackFailed(Exception):
            pass

        def fail(_):
            raise CallbackFailed(callback)

        with pytest.raises(CallbackFailed):
            solve_grid(
                "mage",
                "verilogeval-v2",
                runs=1,
                problems=[get_problem(p) for p in PROBLEMS],
                address=server_address,
                **{callback: fail},
            )
        assert hooked == []
        assert _grid_threads() == []

    def test_seed0_changes_results_key(self, server_address):
        """seed0 is honoured on the wire: different base seed, different
        solve-cell identity (no false cache hits across seeds)."""
        problems = [get_problem(PROBLEMS[0])]
        _, first = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=40,
            problems=problems,
            address=server_address,
        )
        _, second = solve_grid(
            "mage",
            "verilogeval-v2",
            runs=1,
            seed0=41,
            problems=problems,
            address=server_address,
        )
        assert first.cached_cells == 0
        assert second.cached_cells == 0

    def test_bad_address_raises(self):
        with pytest.raises(ValueError, match="needs a service address"):
            solve_grid("mage", "verilogeval-v2", address="")
        with pytest.raises(ValueError, match="expected host:port"):
            solve_grid(
                "mage",
                "verilogeval-v2",
                address="not-an-address",
                problems=[get_problem("cb_mux2")],
            )


class TestAddress:
    """Address parsing and the grid report, without starting a server."""

    @pytest.mark.parametrize(
        "address, endpoint",
        [
            ("127.0.0.1:7341", ("127.0.0.1", 7341)),
            (" 127.0.0.1:7341 ", ("127.0.0.1", 7341)),
            (":7341", ("127.0.0.1", 7341)),
        ],
        ids=["plain", "padded", "default-host"],
    )
    def test_parse_address(self, address, endpoint):
        assert parse_address(address) == endpoint

    @pytest.mark.parametrize(
        "address, message",
        [
            ("127.0.0.1:1,127.0.0.1:2", "expected one host:port"),
            ("127.0.0.1:1,", "expected one host:port"),
            ("localhost", "expected host:port"),
            ("localhost:http", "bad service port"),
        ],
        ids=["comma-list", "trailing-comma", "no-port", "named-port"],
    )
    def test_parse_address_refuses_malformed_addresses(
        self, address, message
    ):
        with pytest.raises(ValueError, match=message):
            parse_address(address)

    def test_report_names_its_one_address(self):
        report = GridReport(address="127.0.0.1:1", cells=5, retried_cells=1)
        lines = report.render().splitlines()
        assert lines[0].split() == ["server", "127.0.0.1:1"]
        assert ["retried", "1"] in [line.split() for line in lines]


class TestRetryTriage:
    """Which cell failures earn the one retry on a fresh connection."""

    @pytest.mark.parametrize(
        "exc, transient",
        [
            (ConnectionRefusedError("refused"), True),
            (ProtocolError("frame too large"), True),
            (ServiceError("server closed the connection"), True),
            (ServiceError("connection severed mid-frame: eof"), True),
            (ServiceError("connection lost: reset"), True),
            (ServiceError("timed out after 5s waiting for x"), True),
            (ServiceError("busy: queue full"), True),
            (ServiceError("unknown system 'nope'"), False),
            (ServiceError("protocol version mismatch: got 3"), False),
        ],
        ids=[
            "os-error",
            "protocol-error",
            "server-closed",
            "severed",
            "lost",
            "timed-out",
            "busy",
            "unknown-system",
            "version-mismatch",
        ],
    )
    def test_is_transient(self, exc, transient):
        assert _is_transient(exc) is transient


def _holding_listener():
    """A loopback listener that accepts and keeps every connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    held = []

    def accept_all():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            held.append(conn)

    thread = threading.Thread(target=accept_all, daemon=True)
    thread.start()
    return listener, thread, held


class TestClientLink:
    def test_a_stale_generation_leaves_the_fresh_connection_alone(self):
        """A caller that saw an old connection die must not tear down the
        replacement another caller already dialled."""
        listener, thread, held = _holding_listener()
        host, port = listener.getsockname()[:2]
        link = ClientLink(f"{host}:{port}", timeout=5.0)
        try:
            first, generation = link.get()
            assert link.get() == (first, generation)  # shared, not redialled
            link.invalidate(generation)
            assert first.closed
            second, fresh = link.get()
            assert second is not first and fresh == generation + 1
            link.invalidate(generation)  # a late caller, old generation
            assert not second.closed
            assert link.get() == (second, fresh)
        finally:
            link.close()
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            thread.join(timeout=10)
            for conn in held:
                conn.close()
        assert not thread.is_alive()


def _closed_address():
    """A loopback address nothing listens on (connections are refused)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


def _grid_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-grid-")
    ]


class TestUnreachableServer:
    def test_closed_port_fails_the_grid_after_one_retry(self, monkeypatch):
        """A refused connection is transient, so the cell is retried once
        on a fresh connection; the second refusal fails the grid with a
        ServiceError naming the address."""
        dialed = []
        connect = socket.create_connection

        def counting_connect(endpoint, *args, **kwargs):
            dialed.append(endpoint)
            return connect(endpoint, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        address = _closed_address()
        with pytest.raises(ServiceError) as caught:
            solve_grid(
                "mage",
                "verilogeval-v2",
                address=address,
                problems=[get_problem("cb_mux2")],
            )
        assert address in str(caught.value)
        assert "refused" in str(caught.value).lower()
        assert dialed == [parse_address(address)] * 2
        assert _grid_threads() == []


class TestConnectionRefusal:
    def test_grid_aborts_with_the_servers_reason(self):
        """A server that refuses the connection itself (an id-0 error
        frame, then close) aborts the grid with its reason: the refusal
        is deterministic, so no retry."""
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
                    address=f"{host}:{port}",
                )
        finally:
            # close() alone leaves accept() blocked; shutdown() wakes it.
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert "version mismatch" in str(caught.value)
        assert "dead" not in str(caught.value)
        assert len(accepted) == 1
