"""Static baseline resource configurations (paper Section 5.1).

B-SS: 512 MB CP / 512 MB MR; B-LS: max CP / 512 MB MR;
B-SL: 512 MB CP / max-parallel task MR; B-LL: max CP / max-parallel MR.

"Max CP" is the largest heap whose 1.5x container request the RM accepts
(53.3 GB on the paper cluster); "max-parallel task" is the largest task
heap that still lets all physical cores per node run concurrently
(4.4 GB: 12 x 4.4 GB x 1.5 = 80 GB).
"""

from __future__ import annotations

from repro.cluster.config import CONTAINER_OVERHEAD_FACTOR
from repro.cluster.resources import ResourceConfig


def max_parallel_task_heap_mb(cluster):
    """Largest MR task heap keeping all physical cores busy per node."""
    return cluster.node_memory_mb / (
        cluster.node_physical_cores * CONTAINER_OVERHEAD_FACTOR
    )


def paper_baselines(cluster):
    """The four static baselines, in the paper's order."""
    small = cluster.min_heap_mb
    large_cp = cluster.max_heap_mb
    large_mr = max_parallel_task_heap_mb(cluster)
    return {
        "B-SS": ResourceConfig(cp_heap_mb=small, mr_heap_mb=small),
        "B-LS": ResourceConfig(cp_heap_mb=large_cp, mr_heap_mb=small),
        "B-SL": ResourceConfig(cp_heap_mb=small, mr_heap_mb=large_mr),
        "B-LL": ResourceConfig(cp_heap_mb=large_cp, mr_heap_mb=large_mr),
    }
