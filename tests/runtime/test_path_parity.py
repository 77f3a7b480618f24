"""Cross-path determinism matrix: {mage, vanilla-claude, single-agent,
aivril} x {serial, thread pool, process pool, service, multiplexed
service, ring, ring+kill}.

Every grid path must be *bit-identical* to a ``--jobs 1`` serial run:
same final sources, same result rows, and the same typed event stream
event-by-event.  The only fields allowed to differ are wall-clock
measurements (``seconds``), which are zeroed by :func:`canonical`
before comparison; every other field -- scores, pool shapes, LLM-call
counts, stage order -- must match exactly.
"""

import threading
import time
from collections import Counter

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import CellFinished, ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.runtime.batch import evaluate_many
from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.executor import SerialExecutor, ThreadExecutor
from repro.service import (
    HashRing,
    MultiplexedClient,
    ServiceError,
    SolveServer,
    fetch_peers,
    ring_key,
    solve_grid,
)

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


class TestThreadPoolParity:
    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_thread_rows_and_streams_match_serial(self, key, serial_reference):
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        grids = {}
        for name, executor in (
            ("serial", SerialExecutor()),
            ("thread", ThreadExecutor(2)),
        ):
            solve_cache = SolveCellCache()
            with executor:
                result, _ = evaluate_many(
                    SYSTEMS[key].factory,
                    "verilogeval-v2",
                    runs=2,
                    seed0=SEED,
                    problems=problems,
                    executor=executor,
                    cache=SimulationCache(),
                    solve_cache=solve_cache,
                )
            grids[name] = (result, solve_cache)
        assert grids["thread"][0].outcomes == grids["serial"][0].outcomes
        fingerprint = system_fingerprint(SYSTEMS[key].factory)
        recorded = grids["thread"][1]
        for problem in problems:
            record = recorded.get(solve_cell_key(fingerprint, problem, SEED))
            source, events = serial_reference[(key, problem.id)]
            assert record.source == source
            assert canonical(record.events) == events


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


def _converged_ring(size=3, workers=2):
    """``size`` in-process servers joined into one converged ring."""
    seed = SolveServer(workers=workers, peer_interval=0.1).start()
    servers = [seed]
    try:
        for _ in range(size - 1):
            servers.append(
                SolveServer(
                    workers=workers,
                    join=(seed.address,),
                    peer_interval=0.1,
                ).start()
            )
        members = {server.advertised for server in servers}
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            try:
                views = [
                    set(fetch_peers(server.address, timeout=5.0))
                    for server in servers
                ]
            except (ServiceError, OSError):
                views = []
            if views and all(view >= members for view in views):
                return servers
            time.sleep(0.05)
        raise AssertionError("ring never converged to full membership")
    except BaseException:
        for server in servers:
            server.kill()
        raise


def _ring_victim(servers, key, problems, runs, seed0):
    """The member owning the most cells of this grid (and a survivor)."""
    from repro.service.worker import registered_system_name

    ring = HashRing(sorted(server.advertised for server in servers))
    resolved = registered_system_name(key)  # placement uses this name
    owners = Counter(
        ring.node_for(ring_key(resolved, problem.id, seed0 + run))
        for problem in problems
        for run in range(runs)
    )
    victim_address = owners.most_common(1)[0][0]
    victim = next(
        server for server in servers
        if server.advertised == victim_address
    )
    survivor = next(
        server for server in servers
        if server.advertised != victim_address
    )
    return victim, survivor


class TestElasticRingParity:
    """The ring and ring+kill matrix rows: cells placed by consistent
    hash over a 3-member elastic ring -- with and without a member
    dying mid-grid -- must produce the exact rows a serial local run
    does, for every system in the matrix.

    Four runs per problem give the busiest member at least four cells,
    so the mid-grid kill always lands while it still has queued work
    -- the re-shard path is exercised on every parametrization, not
    just when the scheduler happens to race a certain way."""

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
    def ring_servers(self):
        servers = _converged_ring()
        yield servers
        for server in servers:
            server.kill()

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_grid_rows_match_serial(
        self, key, serial_grids, ring_servers
    ):
        """One seed address suffices: membership is discovered, cells
        are hash-placed, and the merged rows match serial exactly."""
        result, report = solve_grid(
            key,
            "verilogeval-v2",
            runs=self.RUNS,
            seed0=SEED,
            problems=[get_problem(problem_id) for problem_id in PROBLEM_IDS],
            shards=[ring_servers[0].address],
            ring=True,
        )
        assert result.outcomes == serial_grids[key].outcomes
        assert set(report.shards) == {
            server.advertised for server in ring_servers
        }
        assert sum(report.shard_cells.values()) == len(PROBLEM_IDS) * self.RUNS
        assert report.dead_shards == []

    @pytest.mark.parametrize("key", SYSTEM_KEYS)
    def test_ring_kill_grid_rows_match_serial(self, key, serial_grids):
        """Killing the busiest member on the first finished cell still
        yields bit-identical rows: orphans migrate to the survivors."""
        problems = [get_problem(problem_id) for problem_id in PROBLEM_IDS]
        servers = _converged_ring()
        try:
            victim, survivor = _ring_victim(
                servers, key, problems, self.RUNS, SEED
            )
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
                shards=[survivor.address],
                ring=True,
                events=chaos,
            )
        finally:
            for server in servers:
                server.kill()
        assert killed.is_set()
        assert result.outcomes == serial_grids[key].outcomes
        assert report.dead_shards == [victim.advertised]
        assert report.cells == len(problems) * self.RUNS
