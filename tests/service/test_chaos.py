"""Chaos harness for service grids: a scriptable TCP fault injector
plus the failure drills the solve service must survive.

:class:`ChaosProxy` is a localhost forwarder that sits between a
client and a live server and misbehaves on command -- added latency,
or a one-shot mid-frame truncation of the reply stream.  The drills
pin the recovery contracts down:

- a server SIGKILLed mid-grid fails ``solve_grid`` and ``repro eval
  --service`` with a typed error naming it, and leaves no thread behind;
- a reply stream severed halfway through a frame is retried on a
  fresh connection and converges on the same outcome.

Everything here spawns real sockets (and, for the kill drill, real
server processes), so the module is ``slow``-marked and excluded from
the default tier-1 run; CI exercises it in a dedicated step.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.events import CellFinished
from repro.evalsets import get_problem
from repro.service import (
    MultiplexedClient,
    ServiceError,
    SolveServer,
    parse_address,
    solve_grid,
)

pytestmark = pytest.mark.slow

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class ChaosProxy:
    """A localhost TCP forwarder with scriptable faults.

    Each accepted client connection gets its own upstream socket and a
    pump thread per direction.  Faults are applied at the byte level,
    below the framing, exactly where real networks fail:

    - ``delay`` -- seconds to sleep before forwarding each chunk;
    - ``truncate_downstream(n)`` -- one-shot: after ``n`` more bytes
      of server->client traffic, sever the connection mid-stream;
    - ``sever()`` -- drop every live connection once.
    """

    def __init__(self, target: str):
        self._target = parse_address(target)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.delay = 0.0
        self._truncate_left: int | None = None
        self._closed = False
        self._lock = threading.Lock()
        self._pairs: list[tuple[socket.socket, socket.socket]] = []
        threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        ).start()

    # -- fault controls -------------------------------------------------

    def truncate_downstream(self, budget: int) -> None:
        with self._lock:
            self._truncate_left = budget

    def sever(self) -> None:
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for pair in pairs:
            self._drop(pair)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        self.sever()

    # -- plumbing -------------------------------------------------------

    @staticmethod
    def _drop(pair) -> None:
        for sock in pair:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                refused = self._closed
            if refused:
                self._drop((downstream,))
                continue
            try:
                upstream = socket.create_connection(self._target, timeout=5.0)
            except OSError:
                self._drop((downstream,))
                continue
            pair = (downstream, upstream)
            with self._lock:
                self._pairs.append(pair)
            for src, dst, toward_client in (
                (downstream, upstream, False),
                (upstream, downstream, True),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(pair, src, dst, toward_client),
                    name="chaos-pump",
                    daemon=True,
                ).start()

    def _pump(self, pair, src, dst, toward_client: bool) -> None:
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                if self.delay:
                    time.sleep(self.delay)
                if toward_client:
                    with self._lock:
                        left = self._truncate_left
                        if left is not None:
                            if len(chunk) >= left:
                                chunk = chunk[:left]
                                self._truncate_left = None  # one-shot
                                if chunk:
                                    dst.sendall(chunk)
                                break  # sever both ways mid-frame
                            self._truncate_left = left - len(chunk)
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            with self._lock:
                if pair in self._pairs:
                    self._pairs.remove(pair)
            self._drop(pair)


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn_server():
    """A real ``repro serve`` process (the kill drill needs SIGKILL)."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--workers", "1",
    ]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    address = None
    for _ in range(20):
        line = proc.stdout.readline().strip()
        if line.startswith("listening on "):
            address = line.removeprefix("listening on ")
            break
    if address is None:
        proc.kill()
        raise RuntimeError("server process never reported its address")
    return proc, address


class TestServerKillMidGrid:
    PROBLEM_IDS = ["cb_mux2", "cb_kmap_mux", "fs_vending", "ar_addsub8"]
    RUNS = 3
    SEED0 = 5

    def test_sigkilled_server_fails_the_grid_by_name(self):
        """SIGKILL the one ``repro serve`` on the first finished cell:
        the grid fails within 30 s with a ServiceError naming the
        server, and every grid thread exits."""
        problems = [get_problem(p) for p in self.PROBLEM_IDS]
        proc, address = _spawn_server()
        killed = threading.Event()

        def chaos(event):
            if isinstance(event, CellFinished) and not killed.is_set():
                killed.set()
                proc.send_signal(signal.SIGKILL)

        started = time.monotonic()
        try:
            with pytest.raises(ServiceError) as caught:
                solve_grid(
                    "mage",
                    "verilogeval-v2",
                    runs=self.RUNS,
                    seed0=self.SEED0,
                    problems=problems,
                    address=address,
                    events=chaos,
                )
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert time.monotonic() - started < 30
        assert killed.is_set()
        assert str(caught.value).startswith(address + ": ")
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-grid-")
        ]

    def test_eval_service_reports_a_killed_server_and_exits_2(self):
        """The same kill through ``repro eval --service``: one
        ``error:`` line naming the server, exit code 2, no traceback."""
        proc, address = _spawn_server()
        command = [
            sys.executable, "-m", "repro", "eval", "mage",
            "--runs", str(self.RUNS), "--limit", "4",
            "--seed0", str(self.SEED0), "--service", address, "--progress",
        ]
        evaluation = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(PYTHONUNBUFFERED="1"),
        )
        try:
            lines = []
            for line in evaluation.stdout:
                lines.append(line.rstrip("\n"))
                if " score " in line and proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)  # first finished cell
            code = evaluation.wait(timeout=30)
        finally:
            evaluation.kill()
            proc.kill()
            proc.wait(timeout=10)
        assert code == 2
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {address}: ")
        assert not any("Traceback" in line for line in lines)


class TestHalfWrittenFrame:
    def test_mux_client_sees_a_typed_severing(self):
        """A reply cut mid-frame surfaces as a ServiceError naming the
        severed transport -- never a hang or a partial frame."""
        with SolveServer(workers=1) as server:
            proxy = ChaosProxy(server.address)
            try:
                proxy.truncate_downstream(2)  # mid-header of reply one
                client = MultiplexedClient(proxy.address, timeout=30.0)
                with pytest.raises(ServiceError) as caught:
                    client.solve("mage", "cb_mux2", seed=0)
                assert "severed" in str(caught.value) or "closed" in str(
                    caught.value
                )
                client.close()
            finally:
                proxy.close()

    def test_grid_retries_on_a_fresh_connection(self):
        """solve_grid absorbs a one-shot mid-frame truncation: the cell
        retries on a new connection and the row matches an unproxied
        solve exactly."""
        with SolveServer(workers=1) as server:
            with MultiplexedClient(server.address) as direct:
                expected = direct.solve("mage", "cb_kmap_mux", seed=1)
            proxy = ChaosProxy(server.address)
            try:
                proxy.truncate_downstream(2)
                result, report = solve_grid(
                    "mage",
                    "verilogeval-v2",
                    runs=1,
                    seed0=1,
                    problems=[get_problem("cb_kmap_mux")],
                    address=proxy.address,
                )
            finally:
                proxy.close()
        assert report.retried_cells == 1
        (outcome,) = result.outcomes
        assert outcome.passes == int(expected.passed)
        assert outcome.scores == [expected.score]

    def test_latency_is_survivable(self):
        """Added per-chunk latency slows the grid but changes nothing."""
        with SolveServer(workers=1) as server:
            proxy = ChaosProxy(server.address)
            try:
                proxy.delay = 0.02
                result, report = solve_grid(
                    "mage",
                    "verilogeval-v2",
                    runs=1,
                    seed0=0,
                    problems=[get_problem("cb_mux2")],
                    address=proxy.address,
                )
            finally:
                proxy.close()
        assert report.cells == 1
        assert report.retried_cells == 0
        (outcome,) = result.outcomes
        assert outcome.runs == 1
