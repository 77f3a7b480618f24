"""Regenerate ``reference.json``: the expected row of every benchmark cell.

The determinism contract makes each cell's ``(passed, score)`` a pure
function of ``(system, problem, seed)``, identical on every execution
path.  This script records it once, on the plainest path -- a serial
executor with no caches -- for every run seed a workload can draw, and
the benchmark compares each measured cell against it.  Run from the
repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SYSTEM = "mage"
SUITE = "verilogeval-v2"
# Workloads draw a base seed in [0, BASE_SEEDS) and use up to four run
# seeds from it, so run seeds 0 .. BASE_SEEDS + 2 must be covered.
BASE_SEEDS = 16
RUN_SEEDS = BASE_SEEDS + 3


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.baselines.registry import SYSTEMS
    from repro.core.events import CellFinished
    from repro.evalsets.suites import get_suite
    from repro.runtime import SerialExecutor, evaluate_many

    rows: dict[str, dict[str, list]] = {str(seed): {} for seed in range(RUN_SEEDS)}

    def on_event(event) -> None:
        if isinstance(event, CellFinished):
            rows[str(event.run_index)][event.problem_id] = [
                event.passed,
                event.score,
            ]

    with SerialExecutor() as executor:
        evaluate_many(
            SYSTEMS[SYSTEM].factory,
            SUITE,
            runs=RUN_SEEDS,
            seed0=0,
            executor=executor,
            cache=False,
            solve_cache=False,
            events=on_event,
        )
    payload = {
        "system": SYSTEM,
        "suite": SUITE,
        "base_seeds": BASE_SEEDS,
        "problems": [problem.id for problem in get_suite(SUITE)],
        "rows": rows,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
