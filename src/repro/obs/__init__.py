"""Observability: tracing + metrics for the whole stack (``repro.obs``).

The paper's central dynamic is the divergence between the optimizer's
*estimates* and the runtime's *actuals* — unknown sizes, buffer-pool
evictions, migration triggers.  This subsystem makes that divergence
visible: a :class:`Tracer` threaded through optimizer, compiler,
runtime, and cluster collects a span tree (where wall/simulated time
went), named counters (what fired how often), and ring-buffered
structured events (individual decisions), all exportable as JSON and
renderable as text via ``python -m repro trace``.

Counter namespace (the load-bearing ones):

========================  ====================================================
``cost.invocations``      cost-model calls (Table 3's "# Cost.")
``compile.block_compilations``  what-if block plan generations ("# Comp.")
``optimizer.grid_points`` CP grid points enumerated
``optimizer.pruned_*``    blocks pruned as small / unknown (Section 3.4)
``rewrite.*``             compiler rewrite hits per rewrite family
``recompile.dynamic``     plans regenerated at run time: one per generic
                          block when the AM has to recompile under the final
                          configuration (none when the program arrives
                          planned under it) + in-loop dynamic recompilation
                          of unknown-size blocks
``bufferpool.*``          hits / misses / evictions / writebacks / restores
``hdfs.bytes_read.*``     HDFS bytes read per file format
``runtime.*``             CP instructions, MR jobs, per-opcode simulated time
``mr.phase.*``            MR job phase seconds (map read, shuffle, ...)
``adaptation.*``          re-optimizations and CP migrations (Section 4)
``yarn.*``                container allocations / releases
========================  ====================================================

Tracing is *off* by default: the active tracer is :data:`NULL_TRACER`,
whose methods are no-ops.  ``ElasticMLSession(trace=True)`` installs a
real tracer for the duration of each ``run()`` and exposes it as
``RunOutcome.trace``.
"""

from repro.obs.tracer import (
    DEFAULT_EVENT_CAPACITY,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    merge_gauge_values,
    set_tracer,
    use_tracer,
)
from repro.obs.render import (
    render_counters,
    render_events,
    render_spans,
    render_trace,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "get_tracer",
    "merge_gauge_values",
    "set_tracer",
    "use_tracer",
    "render_trace",
    "render_spans",
    "render_counters",
    "render_events",
    "DEFAULT_EVENT_CAPACITY",
]
