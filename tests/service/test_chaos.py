"""Chaos harness for the elastic ring: a scriptable TCP fault
injector plus the failure drills the async control plane must survive.

:class:`ChaosProxy` is a localhost forwarder that sits between a
client and a live server and misbehaves on command -- added latency,
a one-shot mid-frame truncation of the reply stream, a partition that
refuses and severs connections until healed.  The drills pin the
recovery contracts down:

- a ring member SIGKILLed mid-grid re-shards its orphaned cells onto
  the survivors with bit-identical result rows;
- a write-behind gossip backlog accumulated against a partitioned
  peer drains completely once the partition heals;
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
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.baselines.registry import SYSTEMS
from repro.core.events import CellFinished
from repro.evalsets import get_problem
from repro.runtime import SerialExecutor, evaluate_many
from repro.runtime.cache import SimulationCache, SolveCellCache, SolveCellRecord
from repro.service import (
    HashRing,
    MultiplexedClient,
    ServiceError,
    SolveServer,
    fetch_peers,
    parse_address,
    ring_key,
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
    - ``partition()`` / ``heal()`` -- refuse new connections and sever
      live ones until healed;
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
        self._partitioned = False
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

    def partition(self) -> None:
        with self._lock:
            self._partitioned = True
        self.sever()

    def heal(self) -> None:
        with self._lock:
            self._partitioned = False

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
                refused = self._partitioned or self._closed
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


def _spawn_ring_server(join=None):
    """A real ``repro serve`` process (the kill drill needs SIGKILL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--workers", "2",
    ]
    if join:
        command += ["--join", join]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
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


class TestRingKillMidGrid:
    PROBLEM_IDS = ["cb_mux2", "cb_kmap_mux", "fs_vending", "ar_addsub8"]
    RUNS = 3
    SEED0 = 5

    def test_sigkilled_peer_resards_bit_identically(self):
        """SIGKILL the busiest ring member mid-grid: its orphaned cells
        migrate to the survivors and every result row still matches a
        local ``--jobs 1`` run bit-for-bit."""
        problems = [get_problem(p) for p in self.PROBLEM_IDS]
        with SerialExecutor() as executor:
            local, _ = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=self.RUNS,
                seed0=self.SEED0,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
            )

        servers = []
        try:
            seed_proc, seed_address = _spawn_ring_server()
            servers.append((seed_proc, seed_address))
            for _ in range(2):
                servers.append(_spawn_ring_server(join=seed_address))
            members = {address for _, address in servers}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    views = [
                        set(fetch_peers(address, timeout=5.0))
                        for _, address in servers
                    ]
                except (ServiceError, OSError):
                    views = []
                if views and all(view >= members for view in views):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("ring never converged to full membership")

            # The victim is whoever owns the most cells, so the kill
            # provably orphans work.  Placement hashes the registered
            # system name, not the CLI alias.
            from repro.service.worker import registered_system_name

            ring = HashRing(sorted(members))
            resolved = registered_system_name("mage")
            owners = Counter(
                ring.node_for(
                    ring_key(resolved, problem.id, self.SEED0 + run)
                )
                for problem in problems
                for run in range(self.RUNS)
            )
            victim_address = owners.most_common(1)[0][0]
            victim_proc = next(
                proc for proc, address in servers
                if address == victim_address
            )
            survivor = next(
                address for _, address in servers
                if address != victim_address
            )

            killed = threading.Event()

            def chaos(event):
                if isinstance(event, CellFinished) and not killed.is_set():
                    killed.set()
                    victim_proc.send_signal(signal.SIGKILL)

            result, report = solve_grid(
                "mage",
                "verilogeval-v2",
                runs=self.RUNS,
                seed0=self.SEED0,
                problems=problems,
                shards=[survivor],
                ring=True,
                events=chaos,
            )
        finally:
            for proc, _ in servers:
                proc.kill()
                proc.wait(timeout=10)

        assert killed.is_set()
        assert result.outcomes == local.outcomes
        assert report.dead_shards == [victim_address]
        assert report.migrated_cells >= 1
        assert report.cells == len(problems) * self.RUNS


class TestGossipPartition:
    def test_backlog_drains_after_partition_heals(self):
        """Puts issued during a partition queue in the write-behind
        backlog (the solve path never blocks on them) and every one of
        them reaches the peer once the partition heals."""
        records = {
            f"cell-{index}": SolveCellRecord(
                source=f"module m{index}; endmodule", system="s"
            )
            for index in range(8)
        }
        with SolveServer(workers=1) as server:
            proxy = ChaosProxy(server.address)
            cache = SolveCellCache(
                peers=(proxy.address,), write_behind=True
            )
            try:
                # Tighten the recovery knobs so the drill stays quick.
                tier = next(
                    t for t in cache.tiers if t.kind == "remote"
                )
                tier._link.connect_timeout = 0.5
                tier.down_cooldown = 0.5
                cache._gossip.retry_interval = 0.1

                proxy.partition()
                started = time.monotonic()
                for key, record in records.items():
                    cache.put(key, record)
                # Write-behind contract: enqueueing eight puts against
                # a dead peer costs microseconds, not connect timeouts.
                assert time.monotonic() - started < 1.0
                assert not cache.flush_gossip(timeout=1.5)
                report = cache.gossip_report()
                assert report["enqueued"] == len(records)
                assert report["delivered"] < len(records)

                proxy.heal()
                assert cache.flush_gossip(timeout=30.0)
                report = cache.gossip_report()
                assert report["delivered"] == len(records)
                assert report["backlog"] == 0
                assert report["retried"] >= 1  # the partition was real
                for key, record in records.items():
                    assert server.solve_cache.peek_local(key) == record
            finally:
                cache.close()
                proxy.close()


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
                    shards=[proxy.address],
                )
            finally:
                proxy.close()
        assert report.retried_cells == 1
        assert report.dead_shards == []
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
                    shards=[proxy.address],
                )
            finally:
                proxy.close()
        assert report.cells == 1
        assert report.retried_cells == 0
        (outcome,) = result.outcomes
        assert outcome.runs == 1
