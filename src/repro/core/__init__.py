"""MAGE core: the five-step multi-agent engine (paper Sec. III).

- :mod:`repro.core.config` -- tunables with the paper's defaults;
- :mod:`repro.core.events` -- typed run events and pluggable sinks;
- :mod:`repro.core.pipeline` -- the staged ``Pipeline`` runner every
  solve path (MAGE and all baselines) executes on, one pass over a
  ``RunState`` from first stage to last;
- :mod:`repro.core.scoring` -- Eq. 2 scoring and Eq. 3 Top-K selection;
- :mod:`repro.core.sampling` -- Step 4 high-temperature sampling/ranking;
- :mod:`repro.core.debug_loop` -- Step 5 checkpoint debugging with the
  Eq. 4 accept/rollback rule;
- :mod:`repro.core.engine` -- the workflow as a five-stage pipeline;
- :mod:`repro.core.transcript` -- the legacy run record, derived from
  the typed event stream.
"""

from repro.core.config import MAGEConfig
from repro.core.engine import MAGE, MAGEResult, mage_pipeline
from repro.core.events import Event, EventSink, ListSink, StreamSink
from repro.core.pipeline import DONE, Pipeline, RunState, Stage
from repro.core.task import DesignTask

__all__ = [
    "DONE",
    "DesignTask",
    "Event",
    "EventSink",
    "ListSink",
    "MAGE",
    "MAGEConfig",
    "MAGEResult",
    "Pipeline",
    "RunState",
    "Stage",
    "StreamSink",
    "mage_pipeline",
]
