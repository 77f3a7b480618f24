"""Process-backed service workers: the wire stall, child lifecycle,
truthful stats, and server caches that still fill when the pipelines
run in child processes."""

import multiprocessing
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.pipeline import STAGE_CLOCK
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.runtime.cache import SolveCellCache, simulation_count
from repro.service import MultiplexedClient, ServiceError, SolveServer
from repro.service.worker import service_cell_key

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
# The slowest mage solve in the suite: a kill on its first event lands
# long before the child could finish it.
SLOW_PROBLEM = "me_fifo4"


def canonical(events):
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0
        payloads.append(payload)
    return payloads


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _spawn_serve(**popen):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        **popen,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("listening on "):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, line.removeprefix("listening on ")


class TestNoNagleStall:
    def test_accepted_sockets_disable_nagle(self):
        with SolveServer(workers=1) as server:
            with MultiplexedClient(server.address) as client:
                client.ping()
                (conn,) = server._connections
                assert conn.sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )

    def test_back_to_back_cached_solves_are_fast(self):
        """With Nagle on, every Done written after its Ack waited for
        the client's 40 ms delayed ACK."""
        with SolveServer(workers=1) as server:
            with MultiplexedClient(server.address) as client:
                client.solve("mage", "cb_kmap_mux", seed=0)
                latencies = []
                for _ in range(10):
                    started = time.perf_counter()
                    outcome = client.solve("mage", "cb_kmap_mux", seed=0)
                    latencies.append(time.perf_counter() - started)
                    assert outcome.cached
        assert statistics.median(latencies) < 0.020, latencies


class TestChildLifecycle:
    def test_killed_child_fails_its_job_and_is_respawned(self):
        with SolveServer(workers=1) as server:
            worker = server._workers[0]
            victim = worker.process.pid
            killed = threading.Event()

            def kill_on_first_event(event):
                if not killed.is_set():
                    killed.set()
                    os.kill(victim, signal.SIGKILL)

            with MultiplexedClient(server.address) as client:
                with pytest.raises(ServiceError, match=r"exit code -9"):
                    client.solve(
                        "mage",
                        SLOW_PROBLEM,
                        seed=0,
                        events=kill_on_first_event,
                    )
                assert killed.is_set()
                assert server.stats.snapshot()["errors"] == 1
                outcome = client.solve("mage", "cb_mux2", seed=0)
            assert not outcome.cached
            assert worker.process.pid != victim
            assert server.stats.snapshot()["executed"] == 1

    @pytest.mark.parametrize("stop", ["shutdown", "kill"])
    def test_stopping_the_server_leaves_no_child(self, stop):
        server = SolveServer(workers=2).start()
        with MultiplexedClient(server.address) as client:
            client.solve("mage", "cb_mux2", seed=0)
        processes = [worker.process for worker in server._workers]
        getattr(server, stop)()
        for process in processes:
            process.join(timeout=10.0)
            assert process.exitcode is not None
        pids = {process.pid for process in processes}
        assert not pids & {p.pid for p in multiprocessing.active_children()}

    def test_sigkilled_server_leaves_no_orphans(self):
        proc, _ = _spawn_serve()
        try:
            assert _wait_until(lambda: len(_children(proc.pid)) >= 2)
            children = _children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert _wait_until(lambda: not any(map(_alive, children))), children

    def test_ctrl_c_drains_the_job_in_flight(self):
        """SIGINT reaches the whole process group; the children ignore
        it, so the server's drain still finishes the running job."""
        proc, address = _spawn_serve(start_new_session=True)
        try:
            children = _children(proc.pid)
            interrupted = threading.Event()

            def interrupt_on_first_event(event):
                if not interrupted.is_set():
                    interrupted.set()
                    os.killpg(proc.pid, signal.SIGINT)

            with MultiplexedClient(address) as client:
                outcome = client.solve(
                    "mage", SLOW_PROBLEM, seed=0,
                    events=interrupt_on_first_event,
                )
            assert interrupted.is_set()
            assert outcome.source
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 0, output
        assert "draining..." in output
        assert "Traceback" not in output
        assert _wait_until(lambda: not any(map(_alive, children))), children


class TestTruthfulStats:
    CELLS = [("mage", "cb_mux2", 0), ("mage", "fs_vending", 1),
             ("vanilla-claude", "cb_kmap_mux", 0)]

    def test_stage_runs_match_an_in_process_serial_solve(self):
        STAGE_CLOCK.reset()
        with SolveServer(workers=2, solve_cache=False) as server:
            with MultiplexedClient(server.address) as client:
                for system, problem, seed in self.CELLS:
                    client.solve(system, problem, seed=seed)
                served = client.stats()["stages"]
        STAGE_CLOCK.reset()
        for system, problem, seed in self.CELLS:
            SYSTEMS[system].factory().solve(
                DesignTask.from_problem(get_problem(problem)), seed=seed
            )
        local = STAGE_CLOCK.snapshot()
        assert local
        assert {name: entry["runs"] for name, entry in served.items()} == {
            name: entry["runs"] for name, entry in local.items()
        }


class TestServerCachesStayComplete:
    def test_cold_solve_in_a_child_fills_the_server_caches(self, tmp_path):
        directory = str(tmp_path / "solve")
        with SolveServer(
            workers=1, solve_cache=SolveCellCache(directory)
        ) as server:
            with MultiplexedClient(server.address) as client:
                sink = ListSink()
                cold = client.solve("mage", "cb_kmap_mux", seed=0, events=sink)
                assert not cold.cached
                key = service_cell_key("mage", "cb_kmap_mux", 0)
                record = server.solve_cache.peek(key)
                assert record is not None
                assert record.source == cold.source
                assert canonical(record.events) == canonical(sink.events)

                sims_before = simulation_count()
                warm = client.solve("mage", "cb_kmap_mux", seed=0)
                assert warm.cached
                assert simulation_count() == sims_before
                assert (warm.passed, warm.score) == (cold.passed, cold.score)

        # The parent stored the record on disk, where any other process
        # reading the directory finds it.
        assert SolveCellCache(directory).get(key).source == cold.source
