"""Ablation arms and figure collectors under pooled/cached execution.

The Table III arms and the Fig. 3/4 config switches were only ever
exercised through the serial path; these tests drive them through
``evaluate_many`` on a process pool and with the solve-cell cache, and
check the figure collectors fold identical series out of live,
process-pool, and cache-replayed event streams.
"""

from functools import partial

import pytest

from repro.baselines.registry import MAGESystem
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem
from repro.evaluation.ablation import (
    TABLE3_ARMS,
    checkpoint_ablation_configs,
    sampling_ablation_configs,
)
from repro.evaluation.figures import ScoreSeries
from repro.runtime.batch import evaluate_many
from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    system_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.workers import solve_streaming

PROBLEMS = [get_problem("cb_kmap_mux"), get_problem("fs_vending")]


class TestAblationArmsPooled:
    @pytest.mark.parametrize("arm", TABLE3_ARMS, ids=lambda a: a.key)
    def test_arm_rows_identical_serial_vs_process_pool(
        self, arm, process_pool_grid
    ):
        with SerialExecutor() as executor:
            serial, _ = evaluate_many(
                arm.factory,
                "verilogeval-v2",
                runs=2,
                problems=PROBLEMS,
                executor=executor,
                cache=SimulationCache(),
            )
        pooled, _ = process_pool_grid(arm.factory, PROBLEMS, runs=2)
        assert pooled.outcomes == serial.outcomes

    @pytest.mark.parametrize("arm", TABLE3_ARMS, ids=lambda a: a.key)
    def test_arm_is_solve_cacheable(self, arm):
        """Every Table III arm has a stable fingerprint, and a repeated
        sweep re-serves all its cells from the solve cache."""
        assert system_fingerprint(arm.factory) is not None
        solve_cache = SolveCellCache()
        passes = []
        for _ in range(2):
            with SerialExecutor() as executor:
                result, report = evaluate_many(
                    arm.factory,
                    "verilogeval-v2",
                    runs=1,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                    solve_cache=solve_cache,
                )
            passes.append((result, report))
        (cold, cold_report), (warm, warm_report) = passes
        assert warm.outcomes == cold.outcomes
        assert cold_report.solve_cache.misses == len(PROBLEMS)
        assert warm_report.solve_cache.hits == len(PROBLEMS)

    @pytest.mark.parametrize(
        "configs",
        [checkpoint_ablation_configs, sampling_ablation_configs],
        ids=["checkpoints", "sampling"],
    )
    def test_config_switch_grids_identical_on_process_pool(
        self, configs, process_pool_grid
    ):
        for label, config in configs().items():
            factory = partial(MAGESystem, config)
            with SerialExecutor() as executor:
                serial, _ = evaluate_many(
                    factory,
                    "verilogeval-v2",
                    runs=1,
                    seed0=2,
                    problems=PROBLEMS,
                    executor=executor,
                    cache=SimulationCache(),
                    name=label,
                )
            pooled, _ = process_pool_grid(factory, PROBLEMS, seed0=2)
            assert pooled.outcomes == serial.outcomes, label


class TestFiguresFromPooledStreams:
    def _series(self, events_per_run):
        series = ScoreSeries()
        for events in events_per_run:
            series.fold_events(events)
        return series

    def _snapshot(self, series):
        return (
            series.initial_scores,
            series.sampled_best_scores,
            series.rounds,
        )

    def test_series_from_process_pool_equals_serial(self, process_pool_grid):
        """Fig. 4 collectors read identical series out of a stream
        recorded in a pool process and a serial run's."""
        problem = get_problem("fs_vending")
        serial_sink = ListSink()
        MAGESystem().solve(
            DesignTask.from_problem(problem), seed=2, sink=serial_sink
        )
        _, streams = process_pool_grid(MAGESystem, [problem], seed0=2)
        _, pooled_events = streams[(problem.id, 2)]
        serial = self._series([serial_sink.events])
        pooled = self._series([pooled_events])
        assert self._snapshot(pooled) == self._snapshot(serial)
        # The run entered Step 4, so the figure actually has data.
        assert serial.initial_scores and serial.sampled_best_scores

    def test_series_from_cache_replay_equals_live(self):
        """A solve-cell cache hit replays a stream the collectors fold
        into exactly the live series (warm sweeps can draw figures)."""
        problem = get_problem("fs_vending")
        factory = MAGESystem
        solve_cache = SolveCellCache()
        fingerprint = system_fingerprint(factory)
        streams = []
        for _ in range(2):
            sink = ListSink()
            _, cached = solve_streaming(
                factory,
                problem,
                2,
                sink=sink,
                solve_cache=solve_cache,
                fingerprint=fingerprint,
            )
            streams.append((cached, sink.events))
        (cold_cached, cold), (warm_cached, warm) = streams
        assert not cold_cached and warm_cached
        assert self._snapshot(self._series([warm])) == self._snapshot(
            self._series([cold])
        )
