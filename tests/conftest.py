"""Shared fixtures for the test suite."""

import pytest

from repro.evalsets import all_problems, get_problem, golden_testbench


@pytest.fixture(scope="session")
def problems():
    """All registered benchmark problems."""
    return all_problems()


@pytest.fixture(scope="session")
def mux_problem():
    """The Fig. 3 style K-map mux problem."""
    return get_problem("cb_kmap_mux")


@pytest.fixture(scope="session")
def counter_problem():
    return get_problem("sq_counter_ud")


@pytest.fixture(scope="session")
def mux_golden_tb(mux_problem):
    return golden_testbench(mux_problem)


@pytest.fixture(scope="session")
def counter_golden_tb(counter_problem):
    return golden_testbench(counter_problem)


@pytest.fixture
def process_pool_grid(tmp_path):
    """Run ``evaluate_many`` on a 2-process pool over a disk solve cache.

    Returns a callable ``(factory, problems, runs, seed0) -> (result,
    streams)``: the grid's ``EvalResult`` plus, per ``(problem id,
    seed)``, the ``(source, events)`` each worker process recorded --
    the event streams solved on the far side of the process boundary.
    """
    from itertools import count

    from repro.runtime.batch import evaluate_many
    from repro.runtime.cache import (
        SimulationCache,
        SolveCellCache,
        solve_cell_key,
        system_fingerprint,
    )
    from repro.runtime.executor import ProcessExecutor

    grids = count()

    def run(factory, problems, runs=1, seed0=0):
        directory = str(tmp_path / f"solve-{next(grids)}")
        with ProcessExecutor(2) as executor:
            result, _ = evaluate_many(
                factory,
                "verilogeval-v2",
                runs=runs,
                seed0=seed0,
                problems=problems,
                executor=executor,
                cache=SimulationCache(),
                solve_cache=SolveCellCache(directory),
            )
            # No thread fallback: every cell really crossed processes.
            assert executor.fallbacks == 0
        fingerprint = system_fingerprint(factory)
        recorded = SolveCellCache(directory)
        streams = {}
        for problem in problems:
            for seed in range(seed0, seed0 + runs):
                record = recorded.get(solve_cell_key(fingerprint, problem, seed))
                assert record is not None, (problem.id, seed)
                streams[(problem.id, seed)] = (record.source, record.events)
        return result, streams

    return run
