"""Cross-path determinism matrix: {mage, vanilla-claude, single-agent,
aivril} x {serial, process pool, service, multiplexed service, two
static shards, two static shards with one killed mid-grid}.

Every grid path must be *bit-identical* to a ``--jobs 1`` serial run:
same final sources, same result rows, and the same typed event stream
event-by-event.  The only fields allowed to differ are wall-clock
measurements (``seconds``), which are zeroed by :func:`canonical`
before comparison; every other field -- scores, pool shapes, LLM-call
counts, stage order -- must match exactly.
"""

import threading

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import CellFinished, ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.runtime.batch import evaluate_many
from repro.runtime.cache import SimulationCache
from repro.runtime.executor import SerialExecutor
from repro.service import MultiplexedClient, SolveServer, solve_grid

# One representative per row of the matrix: the full engine, the
# single-stage baseline, the Table III single-agent ablation, and the
# AIVRIL-style coder+reviewer pair.  ``ar_addsub8`` reaches Step-5
# debug rounds on every seed, so every matrix row covers the debug loop.
SYSTEM_KEYS = ["mage", "vanilla-claude", "single-agent", "aivril"]
PROBLEM_IDS = ["cb_kmap_mux", "fs_vending", "ar_addsub8"]
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


@pytest.fixture(scope="module")
def serial_reference():
    """(system, problem) -> (source, canonical events) from plain solves."""
    reference = {}
    for key in SYSTEM_KEYS:
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            system = SYSTEMS[key].factory()
            source = system.solve(
                DesignTask.from_problem(get_problem(problem_id)),
                seed=SEED,
                sink=sink,
            )
            reference[(key, problem_id)] = (source, canonical(sink.events))
    return reference


class TestProcessPoolParity:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_pool_rows_and_streams_match_serial(
        self, key, serial_reference, process_pool_grid
    ):
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        with SerialExecutor() as executor:
            serial_result, _ = evaluate_many(
                SYSTEMS[key].factory,
                "verilogeval-v2",
                runs=2,
                seed0=SEED,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
            )
        pool_result, streams = process_pool_grid(
            SYSTEMS[key].factory, problems, runs=2, seed0=SEED
        )
        assert pool_result.outcomes == serial_result.outcomes
        for problem_id in PROBLEM_IDS:
            source, events = serial_reference[(key, problem_id)]
            pool_source, pool_events = streams[(problem_id, SEED)]
            assert pool_source == source
            assert canonical(pool_events) == events


class TestServicePathParity:
    @pytest.fixture(scope="class")
    def server(self):
        with SolveServer(workers=1) as server:
            yield server

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_service_streams_are_bit_identical(
        self, key, serial_reference, server
    ):
        for problem_id in PROBLEM_IDS:
            sink = ListSink()
            with MultiplexedClient(server.address) as client:
                outcome = client.solve(
                    key, problem_id, seed=SEED, events=sink
                )
            source, events = serial_reference[(key, problem_id)]
            assert outcome.source == source
            # Frames crossed the wire via Event.to_json/from_json; the
            # canonical streams must still agree field-by-field.
            assert canonical(sink.events) == events

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_multiplexed_streams_are_bit_identical(
        self, key, serial_reference, server
    ):
        """The benchmark's client: one socket, interleaved requests."""
        with MultiplexedClient(server.address) as client:
            for problem_id in PROBLEM_IDS:
                sink = ListSink()
                outcome = client.solve(
                    key, problem_id, seed=SEED, events=sink
                )
                source, events = serial_reference[(key, problem_id)]
                assert outcome.source == source
                assert canonical(sink.events) == events

    def test_warm_service_replay_is_the_same_stream(
        self, serial_reference, server
    ):
        sink = ListSink()
        with MultiplexedClient(server.address) as client:
            outcome = client.solve(
                "mage", PROBLEM_IDS[0], seed=SEED, events=sink
            )
        assert outcome.cached  # second submit of the matrix cell
        _, events = serial_reference[("mage", PROBLEM_IDS[0])]
        assert canonical(sink.events) == events


class TestStaticShardParity:
    """The static-shard matrix rows: cells placed round-robin over two
    servers -- with and without one of them killed mid-grid -- must
    produce the exact rows a serial local run does, for every system in
    the matrix.

    Four runs per problem give each shard six cells, so a kill on the
    first finished cell always lands while the victim still has queued
    work: the migration path is exercised on every parametrization."""

    RUNS = 4

    @pytest.fixture(scope="class")
    def serial_grids(self):
        """key -> serial-reference EvalResult for the 3-problem grid."""
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        reference = {}
        for key in SYSTEM_KEYS:
            with SerialExecutor() as executor:
                result, _ = evaluate_many(
                    SYSTEMS[key].factory,
                    "verilogeval-v2",
                    runs=self.RUNS,
                    seed0=SEED,
                    problems=problems,
                    executor=executor,
                    cache=SimulationCache(),
                )
            reference[key] = result
        return reference

    @pytest.fixture(scope="class")
    def shard_servers(self):
        servers = [SolveServer(workers=1).start() for _ in range(2)]
        yield servers
        for server in servers:
            server.kill()

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_two_shard_grid_rows_match_serial(
        self, key, serial_grids, shard_servers
    ):
        result, report = solve_grid(
            key,
            "verilogeval-v2",
            runs=self.RUNS,
            seed0=SEED,
            problems=[get_problem(problem_id) for problem_id in PROBLEM_IDS],
            shards=[server.address for server in shard_servers],
        )
        assert result.outcomes == serial_grids[key].outcomes
        assert report.shard_cells == {
            server.address: len(PROBLEM_IDS) * self.RUNS // 2
            for server in shard_servers
        }
        assert report.dead_shards == []

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_shard_kill_grid_rows_match_serial(self, key, serial_grids):
        """Killing one shard on the first finished cell still yields
        bit-identical rows: its orphans migrate to the survivor."""
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        servers = [SolveServer(workers=1).start() for _ in range(2)]
        victim = servers[0]
        try:
            killed = threading.Event()

            def chaos(event):
                if isinstance(event, CellFinished) and not killed.is_set():
                    killed.set()
                    victim.kill()

            result, report = solve_grid(
                key,
                "verilogeval-v2",
                runs=self.RUNS,
                seed0=SEED,
                problems=problems,
                shards=[server.address for server in servers],
                events=chaos,
            )
        finally:
            for server in servers:
                server.kill()
        assert killed.is_set()
        assert result.outcomes == serial_grids[key].outcomes
        assert report.dead_shards == [victim.address]
        assert report.migrated_cells >= 1
        assert report.cells == len(problems) * self.RUNS
