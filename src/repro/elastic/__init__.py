"""Memory-elastic admission over multi-tenant traces.

The paper's FIFO admission queues a run until its ideal AM container
fits.  Elastic admission (:func:`~repro.elastic.brain.shrink_ladder`)
also accepts a smaller container right now — a fixed fraction of the
run's ideal resource configuration, with a cost-model spill penalty
charged to time only, never to numerics.  The trace module
records/generates multi-tenant load traces and the simulator replays
them in deterministic virtual time (the substrate of ``bench_elastic``
and the scenario/property test harness).
"""

from repro.cluster.resources import GrantedResource
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
    "GrantedResource",
    "ElasticTrace",
    "TraceEntry",
    "TraceRecorder",
    "bursty_trace",
    "SimulatedRun",
    "SimulationResult",
    "TraceSimulator",
    "simulate_arms",
]
