"""Sharing warm cells across processes through one cache directory.

Servers and local evaluations pointed at the same solve-cell and
simulation directories replay each other's cells: the disk tier writes
every entry atomically, so sharing needs no wire protocol of its own.
"""

import os
import subprocess
import sys

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.evalsets import get_problem
from repro.runtime import SerialExecutor, evaluate_many
from repro.runtime.cache import SimulationCache, SolveCellCache, simulation_count
from repro.service import MultiplexedClient, SolveServer, solve_grid


def canonical(events):
    """Event stream as JSON payloads with wall-clock fields zeroed."""
    payloads = []
    for event in events:
        payload = event.to_json()
        if "seconds" in payload:
            payload["seconds"] = 0.0
        payloads.append(payload)
    return payloads


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# One mage x cb_mux2 cell over explicit disk caches; prints how many
# simulations the whole ``evaluate_many`` call executed, including the
# golden-testbench probes it derives before dispatching cells.
_GRID_SCRIPT = """
import sys
from repro.baselines.registry import SYSTEMS
from repro.evalsets import get_problem
from repro.runtime import SerialExecutor, evaluate_many
from repro.runtime.cache import SimulationCache, SolveCellCache, simulation_count

sim_dir, solve_dir = sys.argv[1:3]
before = simulation_count()
with SerialExecutor() as executor:
    evaluate_many(
        SYSTEMS["mage"].factory,
        "verilogeval-v2",
        problems=[get_problem("cb_mux2")],
        executor=executor,
        cache=SimulationCache(sim_dir),
        solve_cache=SolveCellCache(solve_dir),
    )
print(simulation_count() - before)
"""


def _grid_process_simulations(sim_dir: str, solve_dir: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GRID_SCRIPT, sim_dir, solve_dir],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return int(proc.stdout.split()[-1])


def _server(tmp_path, workers=1):
    return SolveServer(
        workers=workers,
        sim_cache=SimulationCache(str(tmp_path / "sim")),
        solve_cache=SolveCellCache(str(tmp_path / "solve")),
    )


class TestSharedDirectory:
    def test_second_server_replays_the_first_servers_cell(self, tmp_path):
        """A cell warmed on server A is answered ``cached`` by server B
        on the same directories: same source, event stream and verdict,
        no pipeline execution and not even a simulation lookup (the
        record carries the verdict)."""
        sim_dir, solve_dir = str(tmp_path / "sim"), str(tmp_path / "solve")

        def server():
            return SolveServer(
                workers=1,
                sim_cache=SimulationCache(sim_dir),
                solve_cache=SolveCellCache(solve_dir),
            )

        with server() as first, server() as second:
            sink_a = ListSink()
            with MultiplexedClient(first.address) as client:
                outcome_a = client.solve(
                    "mage", "cb_kmap_mux", seed=0, events=sink_a
                )
            assert not outcome_a.cached
            sims_before = simulation_count()
            sink_b = ListSink()
            with MultiplexedClient(second.address) as client:
                outcome_b = client.solve(
                    "mage", "cb_kmap_mux", seed=0, events=sink_b
                )
            assert simulation_count() == sims_before
            assert second.executed_count() == 0
            assert second.solve_cache.stats.disk_hits == 1
            assert second.sim_cache.stats.lookups == 0
        assert outcome_b.cached
        assert outcome_b.source == outcome_a.source
        assert (outcome_b.passed, outcome_b.score) == (
            outcome_a.passed,
            outcome_a.score,
        )
        assert canonical(sink_b.events) == canonical(sink_a.events)

    def test_second_grid_simulates_nothing_through_the_directory(
        self, tmp_path
    ):
        """Two grids sharing no memory dedup through the directory: B's
        candidate and golden simulations are all served by what A
        wrote."""
        directory = str(tmp_path / "sim")
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

        cache_a = SimulationCache(directory)
        result_a = grid(cache_a)
        assert cache_a.stats.misses > 0
        cache_b = SimulationCache(directory)
        sims_before = simulation_count()
        result_b = grid(cache_b)
        assert result_b.outcomes == result_a.outcomes
        assert simulation_count() == sims_before
        assert cache_b.stats.disk_hits > 0
        assert cache_b.stats.misses == 0

    def test_server_replays_a_locally_warmed_cell(self, tmp_path):
        """The other direction: a local ``--solve-cache`` run stores the
        cell with its verdict, and a server started on its directories
        answers it ``cached`` without executing, simulating or looking
        a simulation up."""
        problem = get_problem("cb_kmap_mux")
        with SerialExecutor() as executor:
            local, _ = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                seed0=0,
                problems=[problem],
                executor=executor,
                cache=SimulationCache(str(tmp_path / "sim")),
                solve_cache=SolveCellCache(str(tmp_path / "solve")),
            )
        with _server(tmp_path) as server:
            sims_before = simulation_count()
            with MultiplexedClient(server.address) as client:
                outcome = client.solve("mage", problem.id, seed=0)
            assert server.executed_count() == 0
            assert server.sim_cache.stats.lookups == 0
        assert simulation_count() == sims_before
        assert outcome.cached
        [row] = local.outcomes
        assert (int(outcome.passed), [outcome.score]) == (
            row.passes,
            row.scores,
        )

    def test_two_servers_replay_each_others_cells(self, tmp_path):
        """Each server warms a different cell; each then answers the
        other's from the directory, so no cell runs twice."""
        with _server(tmp_path) as first, _server(tmp_path) as second:
            with MultiplexedClient(first.address) as client:
                warm_a = client.solve("mage", "cb_mux2", seed=0)
            with MultiplexedClient(second.address) as client:
                warm_b = client.solve("mage", "cb_mux2", seed=1)
            with MultiplexedClient(first.address) as client:
                replay_b = client.solve("mage", "cb_mux2", seed=1)
            with MultiplexedClient(second.address) as client:
                replay_a = client.solve("mage", "cb_mux2", seed=0)
            assert (first.executed_count(), second.executed_count()) == (1, 1)
        assert not warm_a.cached and not warm_b.cached
        assert replay_a.cached and replay_b.cached
        assert (replay_a.source, replay_b.source) == (
            warm_a.source,
            warm_b.source,
        )

    def test_a_fresh_server_on_one_directory_serves_a_warm_grid(
        self, tmp_path
    ):
        """A grid warmed through one server is wholly cache-served by a
        fresh server on the same directories."""
        problems = [get_problem(pid) for pid in ("cb_mux2", "cb_kmap_mux")]

        def grid(address):
            return solve_grid(
                "mage",
                "verilogeval-v2",
                runs=2,
                seed0=5,
                problems=problems,
                address=address,
            )

        with _server(tmp_path) as warm:
            cold, cold_report = grid(warm.address)
        assert cold_report.cached_cells == 0
        with _server(tmp_path) as fresh:
            result, report = grid(fresh.address)
            executed = fresh.executed_count()
        assert result.outcomes == cold.outcomes
        assert report.cached_cells == report.cells == 4
        assert executed == 0

    def test_stats_name_the_shared_directories(self, tmp_path):
        """``stats``/``cache --service`` show which directories a server
        reads, so a local run can be pointed at the same ones."""
        with _server(tmp_path) as server:
            with MultiplexedClient(server.address) as client:
                caches = client.stats()["caches"]
        for layer, name in (("simulation", "sim"), ("solve_cell", "solve")):
            assert caches[layer]["directory"] == str(tmp_path / name)

    def test_local_grid_reuses_a_servers_simulations(self, tmp_path):
        """With solve-cell caching off, a local grid still re-runs the
        pipeline, but every simulation it looks up was stored by the
        server that solved the same cells."""
        problems = [get_problem("cb_kmap_mux")]
        with _server(tmp_path) as server:
            served, _ = solve_grid(
                "mage",
                "verilogeval-v2",
                runs=1,
                seed0=2,
                problems=problems,
                address=server.address,
            )
        cache = SimulationCache(str(tmp_path / "sim"))
        with SerialExecutor() as executor:
            local, _ = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                seed0=2,
                problems=problems,
                executor=executor,
                cache=cache,
                solve_cache=False,
            )
        assert local.outcomes == served.outcomes
        assert cache.stats.misses == 0
        assert cache.stats.disk_hits > 0

    def test_warm_second_process_simulates_nothing(self, tmp_path):
        """A second process over a warm solve directory replays the cell
        with its stored verdict: it derives no golden testbench and
        simulates nothing, even over an empty simulation directory."""
        sim_dir, solve_dir = str(tmp_path / "sim"), str(tmp_path / "solve")
        assert _grid_process_simulations(sim_dir, solve_dir) > 0
        assert _grid_process_simulations(sim_dir, solve_dir) == 0
        empty = str(tmp_path / "empty-sim")
        assert _grid_process_simulations(empty, solve_dir) == 0
        assert not os.listdir(empty)
