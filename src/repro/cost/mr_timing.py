"""MR job timing: the shared white-box model of one MapReduce job.

Used by the optimizer's cost model with compile-time characteristics and
by the runtime simulator with actual characteristics — the same formula,
different inputs, which keeps estimate-vs-actual divergence principled.

A job's time consists of (paper Section 3.1): job and task latency,
in-memory variable export (charged by the caller), map read, map compute,
map write, shuffle, reduce read/compute, and reduce write, with IO and
compute divided by the degree of parallelism inferred from the CP/MR
resources and the cluster's cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.lops import Phase
from repro.cost import io_model
from repro.cost.compute_model import operation_flops

#: cap on the number of partial aggregates merged in the reduce phase
#: (combiners bound the fan-in in real MR deployments)
_AGG_PARTIAL_CAP = 64

_AGG_METHODS = {
    "uagg", "tsmm", "mapmmchain", "tak", "tak_shuffle", "mapmm_agg", "cpmm",
}


@dataclass
class MRJobTiming:
    """Breakdown of one job's estimated time."""

    latency: float = 0.0
    map_read: float = 0.0
    broadcast_read: float = 0.0
    map_compute: float = 0.0
    map_write: float = 0.0
    shuffle: float = 0.0
    reduce_compute: float = 0.0
    reduce_write: float = 0.0
    n_tasks: int = 1
    waves: int = 1
    dop: int = 1
    #: multiples of ``params.mr_job_latency`` / ``params.mr_task_latency``
    #: inside :attr:`latency` — the work units calibration fits against
    job_latency_units: float = 0.0
    task_latency_units: float = 0.0

    @property
    def total(self):
        return (
            self.latency
            + self.map_read
            + self.broadcast_read
            + self.map_compute
            + self.map_write
            + self.shuffle
            + self.reduce_compute
            + self.reduce_write
        )


def job_input_bytes(job, mc_of, fmt_of):
    """Total serialized bytes of a job's HDFS inputs (0.0 if unknown)."""
    input_bytes = 0.0
    for name in job.input_vars:
        mc = mc_of(name)
        if mc is not None and mc.dims_known:
            input_bytes += io_model.serialized_bytes(mc, fmt_of(name))
    if not math.isfinite(input_bytes):
        return 0.0
    return input_bytes


def time_mr_job(job, step_mcs, mc_of, fmt_of, resource, cluster, params):
    """Estimate the execution time of one MR job.

    ``step_mcs`` holds ``(out_mc, in_mcs)`` per step of ``job``, in
    order: the step snapshots (which dynamic recompilation refreshes)
    or the ones a run measured.  ``mc_of(name)`` returns the
    :class:`MatrixCharacteristics` of a job input/broadcast variable
    (compile-time or actual); ``fmt_of(name)`` its file format.  Nothing
    here writes ``job``: a plan may be shared by concurrent runs.
    """
    timing = MRJobTiming()
    mr_heap = resource.mr_heap_for_block(job.block_id)
    cp_container = cluster.container_mb_for_heap(resource.cp_heap_mb)

    # task layout
    input_bytes = job_input_bytes(job, mc_of, fmt_of)
    n_tasks = max(1, int(math.ceil(input_bytes / cluster.hdfs_block_size_bytes)))
    dop = max(1, cluster.map_task_parallelism(mr_heap, cp_container))
    dop = min(dop, n_tasks)
    waves = int(math.ceil(n_tasks / dop))
    eff_dop = n_tasks / waves
    timing.n_tasks = n_tasks
    timing.waves = waves
    timing.dop = dop

    # map-phase IO
    for name in job.input_vars:
        mc = mc_of(name)
        if mc is not None and mc.dims_known:
            timing.map_read += io_model.hdfs_read_time(
                mc, params, fmt_of(name), parallelism=eff_dop
            )
    broadcast_bytes = 0.0
    for name in job.broadcast_vars:
        mc = mc_of(name)
        if mc is not None and mc.dims_known:
            broadcast_bytes += io_model.serialized_bytes(mc)
    timing.broadcast_read = waves * io_model.local_read_time(
        broadcast_bytes, params
    )

    # phase compute and data volumes
    map_flops = 0.0
    reduce_flops = 0.0
    shuffle_bytes = 0.0
    reducers = min(cluster.num_reducers, max(1, n_tasks))
    for step, (out_mc, in_mcs) in zip(job.steps, step_mcs):
        flops = operation_flops(step.opcode, out_mc, in_mcs, step.attrs)
        if step.phase is Phase.MAP:
            map_flops += flops
            if step.output in job.output_vars and out_mc.dims_known:
                timing.map_write += io_model.hdfs_write_time(
                    out_mc, params, parallelism=eff_dop
                )
        elif step.phase is Phase.SHUFFLE:
            map_flops += flops
            for mc in in_mcs:
                if mc.dims_known and mc.cells and mc.cells > 0:
                    shuffle_bytes += io_model.serialized_bytes(mc)
            if step.output in job.output_vars and out_mc.dims_known:
                timing.reduce_write += io_model.hdfs_write_time(
                    out_mc, params, parallelism=reducers
                )
        else:  # REDUCE
            reduce_flops += flops
            if step.method in _AGG_METHODS and out_mc.dims_known:
                partials = min(n_tasks, _AGG_PARTIAL_CAP)
                shuffle_bytes += io_model.serialized_bytes(out_mc) * partials
                reduce_flops += (out_mc.cells or 0) * partials
            if step.output in job.output_vars and out_mc.dims_known:
                timing.reduce_write += io_model.hdfs_write_time(
                    out_mc, params, parallelism=reducers
                )

    timing.map_compute = map_flops / (params.mr_task_flops * eff_dop)
    if mr_heap < params.small_task_thrash_heap_mb:
        timing.map_compute *= params.thrash_penalty
    timing.reduce_compute = reduce_flops / (params.mr_task_flops * reducers)
    timing.shuffle = io_model.shuffle_time(
        shuffle_bytes, params, min(cluster.num_nodes, reducers)
    )

    timing.job_latency_units = 1 + job.extra_job_latency
    timing.task_latency_units = float(waves)
    if shuffle_bytes > 0 or reduce_flops > 0:
        timing.task_latency_units += 1
    timing.latency = params.mr_job_latency * timing.job_latency_units
    timing.latency += params.mr_task_latency * timing.task_latency_units
    return timing

