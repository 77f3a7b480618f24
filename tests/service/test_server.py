"""End-to-end server tests: streaming, caching, dedup, drain."""

import json
import struct
import threading
import time

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem, golden_testbench
from repro.service import (
    MultiplexedClient,
    ServiceError,
    SolveServer,
    hello_peer,
)
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
        with MultiplexedClient(server.address) as client:
            client.solve("mage", "cb_mux2")
            stats = client.stats()
        assert stats["caches"]["simulation"]["stores"] > 0
        assert stats["caches"]["solve_cell"]["stores"] == 1
        assert stats["workers"] == 2


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


class TestLifecycle:
    def test_ping(self, server):
        with MultiplexedClient(server.address) as client:
            assert client.ping()

    def test_hello_peer_merges_membership(self, server):
        """The one-shot gossip helper: the server merges the sender and
        answers with its full view."""
        newcomer = "127.0.0.1:1"
        merged = hello_peer(server.address, newcomer, ("127.0.0.1:2",))
        assert set(merged) == {server.advertised, newcomer, "127.0.0.1:2"}
        assert newcomer in server.directory

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
