"""Peer sharing over the service protocol: cache frames, RemoteTier,
the peer-replay serving rung, remote-tier parity across processes, and
cross-grid simulation dedup through a shared peer."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.evalsets import get_problem
from repro.runtime import SerialExecutor, evaluate_many
from repro.runtime.cache import (
    RemoteTier,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    decode_value,
    encode_value,
    simulation_count,
)
from repro.service import (
    CacheGet,
    CachePut,
    CacheReply,
    ServiceClient,
    ServiceError,
    SolveServer,
    encode_frame,
    read_frame,
    solve_grid,
    stop_server,
)
from repro.tb.runner import TestReport

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def canonical(events):
    """Event stream as JSON payloads with wall-clock fields zeroed."""
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0
        payloads.append(payload)
    return payloads


@pytest.fixture()
def server():
    with SolveServer(workers=1) as live:
        yield live


class TestCacheFrames:
    def test_cache_get_round_trips(self):
        frame = CacheGet(id=3, layer="sim", key="abc123")
        assert read_frame(io.BytesIO(encode_frame(frame))) == frame

    def test_cache_put_round_trips(self):
        frame = CachePut(id=4, layer="solve", key="k", blob=encode_value(42))
        assert read_frame(io.BytesIO(encode_frame(frame))) == frame

    def test_cache_reply_round_trips(self):
        for reply in (
            CacheReply(id=5),
            CacheReply(id=6, found=True, blob="eJw="),
            CacheReply(id=7, stored=True),
        ):
            assert read_frame(io.BytesIO(encode_frame(reply))) == reply


class TestServerCacheFrames:
    def test_put_then_get_round_trips_a_record(self, server):
        record = SolveCellRecord(source="module m; endmodule", system="s")
        with ServiceClient(server.address) as client:
            assert client.cache_put("solve", "k1", encode_value(record))
            blob = client.cache_get("solve", "k1")
        assert blob is not None
        assert decode_value(blob, SolveCellRecord) == record
        assert server.stats.snapshot()["peer_puts"] == 1
        assert server.stats.snapshot()["peer_hits"] == 1

    def test_missing_key_is_not_found(self, server):
        with ServiceClient(server.address) as client:
            assert client.cache_get("solve", "absent") is None
        snapshot = server.stats.snapshot()
        assert snapshot["peer_gets"] == 1
        assert snapshot["peer_hits"] == 0

    def test_wrong_typed_blob_is_refused(self, server):
        """A solve-cell record cannot be pushed into the sim layer: the
        receiver type-guards like a disk-tier read."""
        record = SolveCellRecord(source="x", system="s")
        with ServiceClient(server.address) as client:
            assert not client.cache_put("sim", "k", encode_value(record))
            assert client.cache_get("sim", "k") is None

    def test_garbage_blob_is_refused(self, server):
        with ServiceClient(server.address) as client:
            assert not client.cache_put("solve", "k", "!!not-base64!!")

    def test_unknown_layer_is_a_miss(self, server):
        with ServiceClient(server.address) as client:
            assert client.cache_get("martian", "k") is None
            assert not client.cache_put("martian", "k", encode_value(1))


class TestRemoteTier:
    def test_round_trip_through_a_live_server(self, server):
        record = SolveCellRecord(source="module m; endmodule", system="s")
        writer = RemoteTier(
            server.address, layer="solve", value_type=SolveCellRecord
        )
        writer.put("k", record)
        reader = RemoteTier(
            server.address, layer="solve", value_type=SolveCellRecord
        )
        assert reader.get("k") == record
        assert reader.stats.hits == 1
        writer.close()
        reader.close()

    def test_dead_peer_is_a_fast_miss_then_marked_down(self):
        tier = RemoteTier(
            "127.0.0.1:1", layer="sim", value_type=TestReport,
            connect_timeout=0.5, max_failures=2,
        )
        for _ in range(3):
            assert tier.get("k") is None  # never raises
        assert tier.stats.errors == 2  # further calls skip the socket
        assert "[down]" in tier.describe()

    def test_peered_cache_get_reads_through_and_promotes(self, server):
        record = SolveCellRecord(source="module m; endmodule", system="s")
        server.solve_cache.put("k", record)
        local = SolveCellCache(peers=(server.address,))
        assert local.get("k") == record
        assert local.stats.remote_hits == 1
        # Promoted: the second lookup is local.
        assert local.get("k") == record
        assert local.stats.remote_hits == 1
        local.close()

    def test_peered_cache_put_gossips_to_the_server(self, server):
        local = SolveCellCache(peers=(server.address,))
        record = SolveCellRecord(source="module g; endmodule", system="s")
        local.put("k2", record)
        assert server.solve_cache.peek_local("k2") == record
        local.close()


class TestPeerReplayServing:
    def test_cold_server_serves_peer_warm_cell_without_executing(self):
        """The serving ladder's peer-replay rung: a cell warm on A is
        served by a cold B straight through B's remote tier -- same
        source, same typed event stream, zero pipeline executions."""
        with SolveServer(workers=1) as warm:
            sink_a = ListSink()
            with ServiceClient(warm.address) as client:
                outcome_a = client.solve(
                    "mage", "cb_kmap_mux", seed=0, events=sink_a
                )
            assert warm.executed_count() == 1
            with SolveServer(
                workers=1, cache_peers=(warm.address,)
            ) as cold:
                sink_b = ListSink()
                with ServiceClient(cold.address) as client:
                    outcome_b = client.solve(
                        "mage", "cb_kmap_mux", seed=0, events=sink_b
                    )
                assert cold.executed_count() == 0  # replayed, not re-run
                assert outcome_b.cached
        assert outcome_b.source == outcome_a.source
        assert outcome_b.passed == outcome_a.passed
        assert outcome_b.score == outcome_a.score
        assert canonical(sink_b.events) == canonical(sink_a.events)


def _spawn_server(extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", *extra_args],
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


class TestRemoteTierParity:
    """The acceptance contract: a 2-process grid where machine B runs
    cold but is served via machine A's RemoteTier must produce
    bit-identical rows and event streams to a fully local --jobs 1
    run."""

    PROBLEMS = ["cb_mux2", "cb_kmap_mux"]

    def test_cold_process_served_via_peer_matches_local(self):
        problems = [get_problem(p) for p in self.PROBLEMS]
        started = []
        try:
            proc_a, addr_a = _spawn_server()
            started.append((proc_a, addr_a))
            proc_b, addr_b = _spawn_server(("--cache-peer", addr_a))
            started.append((proc_b, addr_b))

            # Warm machine A only.
            warm, _ = solve_grid(
                "mage", "verilogeval-v2", runs=1, seed0=0,
                problems=problems, shards=[addr_a],
            )
            # Machine B is cold; every cell must replay through A.
            via_peer, report = solve_grid(
                "mage", "verilogeval-v2", runs=1, seed0=0,
                problems=problems, shards=[addr_b],
            )
            assert report.cached_cells == report.cells
            with SerialExecutor() as executor:
                local, _ = evaluate_many(
                    SYSTEMS["mage"].factory, "verilogeval-v2", runs=1,
                    seed0=0, problems=problems, executor=executor,
                )
            assert via_peer.outcomes == local.outcomes  # bit-identical rows
            assert warm.outcomes == local.outcomes

            # Sharded peers: the same grid split across both processes
            # merges to the same rows again.
            sharded, _ = solve_grid(
                "mage", "verilogeval-v2", runs=1, seed0=0,
                problems=problems, shards=[addr_a, addr_b],
            )
            assert sharded.outcomes == local.outcomes

            # Event-stream parity: B's replayed stream == a local solve.
            local_sink = ListSink()
            system = SYSTEMS["mage"].factory()
            from repro.core.task import DesignTask

            system.solve(
                DesignTask.from_problem(problems[0]), seed=0, sink=local_sink
            )
            remote_sink = ListSink()
            with ServiceClient(addr_b) as client:
                client.solve(
                    "mage", problems[0].id, seed=0, events=remote_sink
                )
            assert canonical(remote_sink.events) == canonical(
                local_sink.events
            )
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


class TestCrossGridDedup:
    def test_second_grid_simulates_nothing_through_a_peer(self, server):
        """Two grids sharing no memory dedup through the peer: B's
        candidate and golden simulations are all served by what A
        gossiped to the server."""
        problems = [get_problem("fs_vending")]

        def grid(cache):
            with SerialExecutor() as executor:
                result, _ = evaluate_many(
                    SYSTEMS["mage"].factory,
                    "verilogeval-v2",
                    runs=1,
                    seed0=1,
                    problems=problems,
                    executor=executor,
                    cache=cache,
                )
            return result

        cache_a = SimulationCache(peers=(server.address,))
        result_a = grid(cache_a)
        assert cache_a.flush_gossip(timeout=30.0)  # every put reached the peer
        cache_a.close()
        assert cache_a.stats.misses > 0

        cache_b = SimulationCache(peers=(server.address,))
        sims_before = simulation_count()
        result_b = grid(cache_b)
        cache_b.close()
        assert result_b.outcomes == result_a.outcomes
        assert simulation_count() == sims_before
        assert cache_b.stats.remote_hits > 0
