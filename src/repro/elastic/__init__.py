"""Memory-elastic admission over multi-tenant traces.

The paper's FIFO admission queues a run until its ideal AM container
fits.  Elastic admission also accepts a smaller container right now: a
point of the run's own cost frontier (:attr:`~repro.optimizer
.OptimizerResult.frontier`), the lower edge of a step of the CP cost
profile the optimizer already enumerated, with plans compiled for that
configuration.  The trace module records/generates multi-tenant load
traces and the simulator replays them in deterministic virtual time
(the substrate of ``bench_elastic`` and the scenario/property test
harness).
"""

from repro.elastic.simulator import (
    SimulatedRun,
    SimulationResult,
    TraceSimulator,
    simulate_arms,
)
from repro.elastic.trace import (
    ElasticTrace,
    TraceEntry,
    TraceRecorder,
    bursty_trace,
)

__all__ = [
    "ElasticTrace",
    "TraceEntry",
    "TraceRecorder",
    "bursty_trace",
    "SimulatedRun",
    "SimulationResult",
    "TraceSimulator",
    "simulate_arms",
]
