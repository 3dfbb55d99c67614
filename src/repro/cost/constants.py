"""Default performance constants of the simulated cluster hardware.

The absolute values are calibrated to 2014-era commodity hardware (the
paper's 10 GbE / 12-disk nodes) so that the *relative* behaviours the
paper reports emerge: MR job latency dominating small jobs, IO-bound
iterative scripts preferring large CP memory, and shuffle-heavy plans
losing to map-only plans.  They are deliberately exposed as a dataclass
so experiments can explore sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import MB


@dataclass
class CostParameters:
    """Bandwidths (bytes/s), compute rates (FLOP/s), and latencies (s)."""

    # -- IO bandwidths -----------------------------------------------------
    #: per-process HDFS read bandwidth, dense binary blocks
    hdfs_read_bw: float = 150.0 * MB
    #: per-process HDFS write bandwidth
    hdfs_write_bw: float = 100.0 * MB
    #: local disk bandwidth (buffer-pool evictions/restores, dist. cache)
    local_disk_bw: float = 250.0 * MB
    #: extra per-byte cost factor for sparse deserialization
    sparse_io_factor: float = 1.4
    #: extra per-byte cost factor for text formats
    text_io_factor: float = 2.5

    # -- compute -------------------------------------------------------------
    #: single-threaded CP peak floating-point rate (SystemML CP runtime is
    #: single-threaded; paper Section 6)
    cp_flops: float = 2.0e9
    #: per-map/reduce-task floating-point rate
    mr_task_flops: float = 1.5e9

    # -- network ---------------------------------------------------------
    #: aggregate shuffle bandwidth per participating node
    shuffle_bw_per_node: float = 80.0 * MB

    # -- latencies ---------------------------------------------------------
    #: submit-to-first-task latency of an MR job (incl. the per-job MR AM)
    mr_job_latency: float = 18.0
    #: startup latency of one task wave
    mr_task_latency: float = 1.5
    #: YARN container allocation round trip
    container_alloc_latency: float = 2.0
    #: CP application-master startup (JVM + runtime init)
    am_startup_latency: float = 8.0

    # -- misc ------------------------------------------------------------
    #: fraction of task memory usable before cache thrashing penalties
    #: kick in for very small task heaps (paper 5.2: B-SS cache trashing)
    small_task_thrash_heap_mb: float = 768.0
    #: slowdown factor applied to map compute for thrashing-sized tasks
    thrash_penalty: float = 1.6


DEFAULT_PARAMETERS = CostParameters()
