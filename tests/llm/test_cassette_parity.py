"""Cassette determinism matrix: record once with the simllm-backed
gateway, then replay -- with the network path stubbed to a backend that
always raises -- across {serial, process pool, service} execution.
Every replay stream must be bit-identical to the recording run's
(wall-clock ``seconds`` zeroed, per the parity convention)."""

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.llm.gateway import GATEWAY_STATS, GatewaySettings
from repro.service import MultiplexedClient, SolveServer

SYSTEM_KEYS = ["mage", "vanilla-claude"]
PROBLEM_IDS = ["cb_kmap_mux", "fs_vending"]
SEED = 2


def canonical(events):
    """Event stream as JSON payloads with wall-clock fields zeroed."""
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0
        payloads.append(payload)
    return payloads


def serial_solve(key, problem_id):
    sink = ListSink()
    system = SYSTEMS[key].factory()
    source = system.solve(
        DesignTask.from_problem(get_problem(problem_id)),
        seed=SEED,
        sink=sink,
    )
    return source, canonical(sink.events)


@pytest.fixture(scope="module")
def cassette(tmp_path_factory):
    """Record the whole matrix once; yield (dir, reference streams)."""
    directory = str(tmp_path_factory.mktemp("cassettes"))
    import os

    saved = {
        name: os.environ.get(name)
        for name in (
            "REPRO_GATEWAY",
            "REPRO_GATEWAY_MODE",
            "REPRO_CASSETTE_DIR",
            "REPRO_GATEWAY_BACKENDS",
        )
    }
    os.environ["REPRO_GATEWAY"] = "1"
    os.environ["REPRO_GATEWAY_MODE"] = "record"
    os.environ["REPRO_CASSETTE_DIR"] = directory
    os.environ.pop("REPRO_GATEWAY_BACKENDS", None)
    try:
        reference = {
            (key, problem_id): serial_solve(key, problem_id)
            for key in SYSTEM_KEYS
            for problem_id in PROBLEM_IDS
        }
        # Flip the environment to replay-with-network-down for the
        # actual tests: any call leaving the cassette store would land
        # on the down backend and error loudly.
        os.environ["REPRO_GATEWAY_MODE"] = "replay"
        os.environ["REPRO_GATEWAY_BACKENDS"] = "down"
        yield directory, reference
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class TestSerialReplay:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_replay_streams_are_bit_identical(self, key, cassette):
        _, reference = cassette
        for problem_id in PROBLEM_IDS:
            source, events = serial_solve(key, problem_id)
            ref_source, ref_events = reference[(key, problem_id)]
            assert source == ref_source
            assert events == ref_events

    def test_replay_is_zero_network(self, cassette):
        GATEWAY_STATS.reset()
        serial_solve("mage", PROBLEM_IDS[0])
        stats = GATEWAY_STATS.snapshot()
        assert stats["replayed"] == stats["calls"] > 0
        assert stats["failures"] == 0
        # Replay serves from the store; no live spend is counted.
        assert stats["cost"] == 0.0


class TestProcessPoolReplay:
    def test_pool_replay_matches_the_recording(
        self, cassette, process_pool_grid
    ):
        """Worker processes inherit the replay-with-network-down gateway
        the grid pins on every cell, and replay the recording exactly."""
        _, reference = cassette
        assert GatewaySettings.from_env().mode == "replay"
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        _, streams = process_pool_grid(
            SYSTEMS["mage"].factory, problems, seed0=SEED
        )
        for problem_id in PROBLEM_IDS:
            source, events = streams[(problem_id, SEED)]
            ref_source, ref_events = reference[("mage", problem_id)]
            assert source == ref_source
            assert canonical(events) == ref_events


class TestServiceReplay:
    def test_service_replay_matches_and_reports_stats(self, cassette):
        _, reference = cassette
        GATEWAY_STATS.reset()
        with SolveServer(workers=1, solve_cache=False) as server:
            assert server.gateway is not None
            assert server.gateway.mode == "replay"
            with MultiplexedClient(server.address) as client:
                for key in SYSTEM_KEYS:
                    for problem_id in PROBLEM_IDS:
                        sink = ListSink()
                        outcome = client.solve(
                            key, problem_id, seed=SEED, events=sink
                        )
                        ref_source, ref_events = reference[(key, problem_id)]
                        assert outcome.source == ref_source
                        assert canonical(sink.events) == ref_events
                stats = client.stats()
        # The StatsReply is a real metrics report now: gateway
        # counters, per-stage wall-clock, and the cassette layer.
        gateway = stats["gateway"]
        assert gateway["replayed"] == gateway["calls"] > 0
        assert stats["gateway_mode"] == "replay"
        assert any(name.startswith("mage/") for name in stats["stages"])
        cassette_stats = stats["caches"]["cassette"]
        assert cassette_stats is not None
        assert cassette_stats["entries"] > 0

    def test_cassette_is_a_peer_shareable_layer(self, cassette):
        """The ``llm`` wire layer serves cassette entries like any
        other tier: peers can read recorded completions over
        ``CacheGet`` frames."""
        from repro.llm.gateway.cassette import CassetteRecord
        from repro.runtime.cache import decode_value

        with SolveServer(workers=1, solve_cache=False) as server:
            record = CassetteRecord(completions=("x",), backend="sim")
            server.cassette().put_local("gateway-peer-test", record)
            with MultiplexedClient(server.address) as client:
                # An unknown key is a typed miss, not an error.
                assert client.cache_get("llm", "no-such-key") is None
                blob = client.cache_get("llm", "gateway-peer-test")
                assert blob is not None
                assert decode_value(blob, CassetteRecord) == record
