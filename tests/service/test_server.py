"""End-to-end server tests: streaming, caching, dedup, drain."""

import json
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem, golden_testbench
from repro.service import (
    PROTOCOL_VERSION,
    Ack,
    ControlRequest,
    MultiplexedClient,
    ServiceError,
    SolveServer,
)
from repro.service import protocol
from repro.service.worker import service_cell_key
from repro.tb.runner import run_testbench


@pytest.fixture()
def server():
    with SolveServer(workers=2) as live:
        yield live


class TestSolveStream:
    def test_events_match_a_local_solve(self, server):
        local_sink = ListSink()
        system = SYSTEMS["mage"].factory()
        task = DesignTask.from_problem(get_problem("cb_kmap_mux"))
        local_source = system.solve(task, seed=0, sink=local_sink)

        remote_sink = ListSink()
        with MultiplexedClient(server.address) as client:
            outcome = client.solve(
                "mage", "cb_kmap_mux", seed=0, events=remote_sink
            )
        # The wire stream is the local event stream, minus nothing: the
        # deterministic fields agree event-by-event (wall-clock fields
        # differ between independent runs, so compare kinds + renders of
        # the timing-free events).
        assert [e.kind for e in remote_sink.events] == [
            e.kind for e in local_sink.events
        ]
        assert outcome.source == local_source
        golden = run_testbench(
            local_source,
            golden_testbench(get_problem("cb_kmap_mux")),
            get_problem("cb_kmap_mux").top,
        )
        assert outcome.passed == golden.passed
        assert outcome.score == golden.score

    def test_unknown_system_is_an_error_frame(self, server):
        with MultiplexedClient(server.address) as client:
            with pytest.raises(ServiceError, match="unknown system"):
                client.solve("martian", "cb_mux2")

    def test_unknown_problem_is_an_error_frame(self, server):
        with MultiplexedClient(server.address) as client:
            with pytest.raises(ServiceError):
                client.solve("mage", "no_such_problem")
        # The connection survives an error and serves the next request.
        with MultiplexedClient(server.address) as client:
            assert client.solve("mage", "cb_mux2").source


class TestWarmServing:
    def test_repeat_submit_is_served_from_cache(self, server):
        first_sink, second_sink = ListSink(), ListSink()
        with MultiplexedClient(server.address) as client:
            first = client.solve("mage", "cb_kmap_mux", events=first_sink)
            second = client.solve("mage", "cb_kmap_mux", events=second_sink)
        assert not first.cached and second.cached
        # Replay is bit-identical: the cached record stores the live
        # stream, wall-clock fields included.
        assert second_sink.events == first_sink.events
        assert second.source == first.source
        assert (second.passed, second.score) == (first.passed, first.score)

    def test_warm_serving_never_touches_a_worker(self, server):
        with MultiplexedClient(server.address) as client:
            client.solve("mage", "cb_mux2")
            before = client.stats()
            client.solve("mage", "cb_mux2")
            after = client.stats()
        assert after["service"]["executed"] == before["service"]["executed"]
        assert (
            after["service"]["cache_served"]
            == before["service"]["cache_served"] + 1
        )
        # The warm path bypasses the broker queue entirely.
        assert after["broker"]["submitted"] == before["broker"]["submitted"]

    def test_stats_snapshot_reports_both_cache_layers(self, server):
        """A cold solve's simulation lookups happen in a worker child and
        reach the server's simulation row; its replay serves the stored
        verdict without one; a record without a verdict is scored
        through the server's own layer."""
        with MultiplexedClient(server.address) as client:
            cold = client.solve("mage", "cb_mux2")
            after_cold = client.stats()["caches"]["simulation"]
            client.solve("mage", "cb_mux2")
            stats = client.stats()
            assert after_cold["lookups"] > 0
            assert after_cold["stores"] > 0
            assert stats["caches"]["simulation"] == after_cold
            assert stats["caches"]["solve_cell"]["stores"] == 1
            assert stats["workers"] == 2

            key = service_cell_key("mage", "cb_mux2", 0)
            record = server.solve_cache.peek(key)
            server.solve_cache.put(
                key, replace(record, passed=None, score=None)
            )
            rescored = client.solve("mage", "cb_mux2")
            stats = client.stats()
        assert rescored.cached
        assert (rescored.passed, rescored.score) == (cold.passed, cold.score)
        assert stats["caches"]["simulation"]["lookups"] > after_cold["lookups"]


class TestInFlightDedup:
    def test_concurrent_duplicates_execute_once(self, server):
        """The acceptance contract: N clients racing on one cold cell
        cost exactly one pipeline execution (worker counters prove it),
        and every client receives the full result."""
        clients = 4
        outcomes = [None] * clients
        streams = [ListSink() for _ in range(clients)]
        barrier = threading.Barrier(clients)

        def submit(index):
            with MultiplexedClient(server.address) as client:
                barrier.wait()
                outcomes[index] = client.solve(
                    "mage", "fs_vending", seed=7, events=streams[index]
                )

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(o is not None for o in outcomes)
        assert server.executed_count() == 1
        assert len({o.source for o in outcomes}) == 1
        assert len({(o.passed, o.score) for o in outcomes}) == 1
        # Every subscriber saw the same stream (replay + live are the
        # same events, whichever mix each subscriber got).
        reference = streams[0].events
        assert reference
        for stream in streams[1:]:
            assert stream.events == reference


class TestConcurrentDistinctCells:
    def test_distinct_cells_each_execute_once(self, server):
        """Concurrent dedup-distinct cells on the plain worker pool: one
        pipeline execution each, outcomes equal to a local solve."""
        ids = ["cb_mux2", "cb_kmap_mux", "fs_vending"]
        outcomes = {}
        barrier = threading.Barrier(len(ids))

        def submit(problem_id):
            with MultiplexedClient(server.address) as client:
                barrier.wait()
                outcomes[problem_id] = client.solve("mage", problem_id, seed=3)

        threads = [threading.Thread(target=submit, args=(pid,)) for pid in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert set(outcomes) == set(ids)
        assert server.executed_count() == len(ids)
        for problem_id in ids:
            system = SYSTEMS["mage"].factory()
            task = DesignTask.from_problem(get_problem(problem_id))
            assert outcomes[problem_id].source == system.solve(task, seed=3)

    def test_replies_interleave_whole_frames_under_contention(self, server):
        """Handler threads and the reader share one socket: with more
        threads than cores and a tiny switch interval, every streamed
        replay and ping on one connection still arrives whole."""
        with MultiplexedClient(server.address) as client:
            reference = ListSink()
            client.solve("mage", "cb_kmap_mux", events=reference)
            failures = []

            def hammer():
                try:
                    for _ in range(5):
                        sink = ListSink()
                        client.solve("mage", "cb_kmap_mux", events=sink)
                        assert sink.events == reference.events
                        assert client.ping()
                except Exception as exc:  # noqa: BLE001 -- reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert not client.closed
        assert server.executed_count() == 1

    def test_unknown_system_fails_only_its_job(self, server):
        with MultiplexedClient(server.address) as client:
            with pytest.raises(ServiceError, match="unknown system"):
                client.solve("martian", "cb_mux2")
            # Same connection, next job: unaffected by the failure.
            assert client.solve("mage", "cb_mux2", seed=1).source
        assert server.executed_count() == 1

    def test_stats_carry_no_scheduler_sections(self, server):
        with MultiplexedClient(server.address) as client:
            stats = client.stats()
        assert stats["workers"] == 2
        assert not {"rollout_batch", "scheduler", "steal"} & set(stats)

    def test_stats_carry_no_ring_or_peer_sections(self, server):
        with MultiplexedClient(server.address) as client:
            stats = client.stats()
        assert "ring" not in stats
        assert not {"peer_gets", "peer_hits", "peer_puts"} & set(
            stats["service"]
        )
        for layer in ("simulation", "solve_cell"):
            cache = stats["caches"][layer]
            assert not {"peers", "gossip", "remote_hits"} & set(cache)
            assert "tiers" not in cache
            assert cache["directory"] is None

    def test_cache_rows_carry_one_flat_counter_set(self, server):
        with MultiplexedClient(server.address) as client:
            caches = client.stats()["caches"]
        assert caches["cassette"] is None  # no gateway cassette
        for layer in ("simulation", "solve_cell"):
            assert set(caches[layer]) == {
                "entries", "lookups", "hits", "misses", "stores",
                "disk_hits", "corrupt", "errors", "evictions", "directory",
            }


class TestLifecycle:
    def test_ping(self, server):
        with MultiplexedClient(server.address) as client:
            assert client.ping()

    def test_peers_control_op_is_unknown(self, server):
        with MultiplexedClient(server.address) as client:
            with pytest.raises(ServiceError, match="unknown control op 'peers'"):
                client._request(ControlRequest, Ack, op="peers")
            assert client.ping()  # the connection stays usable

    def test_client_initiated_graceful_shutdown(self):
        server = SolveServer(workers=1).start()
        with MultiplexedClient(server.address) as client:
            client.shutdown_server()
        assert server.wait(timeout=30)
        with pytest.raises(OSError):
            MultiplexedClient(server.address, timeout=2)

    def test_shutdown_is_idempotent(self):
        server = SolveServer(workers=1).start()
        server.shutdown()
        server.shutdown()
        assert server.wait(timeout=1)

    def test_submits_after_drain_are_refused(self):
        server = SolveServer(workers=1).start()
        server.shutdown()
        with pytest.raises(OSError):
            MultiplexedClient(server.address, timeout=2)


def _new_service_threads(before):
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-service-") and thread not in before
    ]


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestStopWithAnIdleClient:
    @pytest.mark.parametrize("stop", ["shutdown", "kill"])
    def test_stop_closes_the_connection_and_ends_every_thread(self, stop):
        """The accept thread, the connection's reader and the handler
        pool all end, and the idle client sees its connection close."""
        before = set(threading.enumerate())
        server = SolveServer(workers=1).start()
        client = MultiplexedClient(server.address)
        try:
            assert client.ping()
            started = time.monotonic()
            getattr(server, stop)()
            assert time.monotonic() - started < 2.0
            assert _wait_until(lambda: client.closed)
            assert _wait_until(lambda: not _new_service_threads(before)), (
                _new_service_threads(before)
            )
        finally:
            client.close()
            server.kill()


class TestUnsendableReply:
    def test_an_oversized_reply_is_a_typed_error(self, server, monkeypatch):
        """A reply past the frame ceiling becomes an error frame for its
        request, and the connection keeps serving."""
        ceiling = protocol.MAX_FRAME_BYTES
        with MultiplexedClient(server.address) as client:
            client.solve("mage", "cb_kmap_mux")
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 300)
            with pytest.raises(
                ServiceError,
                match=r"^unsendable reply: frame too large \(\d+ bytes\)$",
            ):
                client.solve("mage", "cb_kmap_mux")
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", ceiling)
            assert client.ping()
            assert client.solve("mage", "cb_kmap_mux").cached


class TestConnectionErrors:
    def test_stale_dialect_error_reaches_the_client(self, server):
        """A frame in a retired dialect (v2) is refused by the server
        with an id-0 error frame; the client must surface the server's
        reason, not a bare "server closed the connection"."""
        client = MultiplexedClient(server.address)
        payload = json.dumps(
            {"v": 2, "type": "control", "id": 1, "op": "ping"}
        ).encode()
        with client._write_lock:
            client._wfile.write(struct.pack(">I", len(payload)) + payload)
            client._wfile.flush()
        deadline = time.monotonic() + 10
        while not client.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceError, match="version mismatch"):
            client.ping()
        # The server survives a bad client and keeps serving others.
        with MultiplexedClient(server.address) as fresh:
            assert fresh.ping()

    def test_removed_cache_frame_is_refused_with_its_type(self, server):
        """A peer-cache frame is an unknown type: the server refuses the
        connection with an id-0 error naming it, and nothing is read
        from or written to its caches."""
        client = MultiplexedClient(server.address)
        payload = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "type": "cache_get",
                "id": 1,
                "layer": "solve",
                "key": "k",
            }
        ).encode()
        with client._write_lock:
            client._wfile.write(struct.pack(">I", len(payload)) + payload)
            client._wfile.flush()
        deadline = time.monotonic() + 10
        while not client.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServiceError, match="unknown frame type 'cache_get'"):
            client.ping()
        assert server.solve_cache.stats.lookups == 0
