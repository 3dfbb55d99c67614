"""The program interpreter: executes compiled plans on a virtual clock.

Executes CP instructions against a symbol table of sample-backed matrix
objects and scalars, charging CP IO/compute through the buffer pool and
compute model; executes MR job instructions by running their steps'
semantic kernels while charging distributed time through the shared MR
timing model.  Implements dynamic recompilation of blocks with unknown
sizes and exposes a hook for runtime resource adaptation (Section 4),
implemented in :mod:`repro.optimizer.adaptation`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.chaos import FaultKind
from repro.common import (SCALAR_FAILURES, SCALAR_UNARY, DataType,
                          FileFormat, MatrixCharacteristics, display,
                          scalar_binary)
from repro.compiler import replay
from repro.compiler import statement_blocks as SB
from repro.compiler.recompile import make_env_from_states, recompile_block
from repro.compiler.runtime_prog import MRJobInstruction
from repro.cost import io_model
from repro.cost.calibrate import NULL_COLLECTOR
from repro.cost.compute_model import operation_flops
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.cost.mr_timing import time_mr_job
from repro.errors import (
    AllocationDeniedError,
    ExecutionError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.obs import NULL_TRACER, get_tracer
from repro.runtime.bufferpool import BufferPool
from repro.runtime.hdfs import SimulatedHDFS
from repro.runtime.kernels import (ELEMENTWISE_BINARY, KERNELS,
                                   execute_kernel, no_value)
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP, MatrixObject

#: safety bound on the iterations of one while or for loop in simulated
#: execution
MAX_LOOP_ITERATIONS = 1000

#: the output characteristics operation_flops reads for a scalar result
_SCALAR_MC = MatrixCharacteristics(0, 0, 0)


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    total_time: float = 0.0
    breakdown: dict = field(default_factory=dict)
    mr_jobs: int = 0
    evictions: int = 0
    buffer_restores: int = 0
    recompilations: int = 0
    migrations: int = 0
    prints: list = field(default_factory=list)
    #: final resource configuration (may differ after adaptation)
    final_resource: object = None
    #: fault/recovery accounting (:class:`repro.chaos.ChaosReport`);
    #: None unless the run was fault-injected
    chaos: object = None

    def category(self, name):
        return self.breakdown.get(name, 0.0)


class Interpreter:
    """Executes a :class:`~repro.compiler.pipeline.CompiledProgram`."""

    def __init__(self, cluster, params=None, hdfs=None,
                 sample_cap=DEFAULT_SAMPLE_CAP, adapter=None, seed=0,
                 cluster_load=None, injector=None, collector=None):
        self.cluster = cluster
        self.params = params or DEFAULT_PARAMETERS
        self.hdfs = hdfs if hdfs is not None else SimulatedHDFS()
        self.sample_cap = sample_cap
        #: runtime resource adapter (optimizer.adaptation.ResourceAdapter)
        self.adapter = adapter
        self.seed = seed
        #: optional background-utilization model (cluster.load.ClusterLoad)
        #: slowing down MR phases on a shared cluster
        self.cluster_load = cluster_load
        #: optional fault injector (repro.chaos.FaultInjector); its own
        #: RNG, so injected faults never perturb kernel sampling
        self.injector = injector
        #: calibration sample sink (repro.cost.calibrate)
        self._collector = (
            collector if collector is not None else NULL_COLLECTOR
        )
        # per-run state, initialized in run()
        self.clock = 0.0
        self.result = None
        self.pool = None
        self.resource = None
        self.compiled = None
        self.rng = None
        self._scratch_counter = 0
        #: node managers lost to NODE_LOSS faults this run
        self._lost_nodes = 0
        #: active frame stack (main frame + function-call frames)
        self._frames = []
        #: the run's tracer, read once by run()
        self._tracer = NULL_TRACER

    # -- time accounting -----------------------------------------------------

    def charge(self, seconds, category):
        if seconds < 0:
            raise ExecutionError("negative time charge")
        self.clock += seconds
        self.result.breakdown[category] = (
            self.result.breakdown.get(category, 0.0) + seconds
        )

    # -- main entry ----------------------------------------------------------

    def run(self, compiled, resource):
        """Execute the program under ``resource``; returns the result.

        Plans are (re)generated for ``resource`` first unless the
        program arrives already planned under exactly it, so callers may
        pass a program compiled under any configuration.  With a fault
        injector, the AM container allocation itself may fail first:
        transient failures are retried with backoff, a denial falls back
        to a smaller configuration re-enumerated by the optimizer.
        """
        from repro.compiler.pipeline import compile_plans

        tracer = self._tracer = get_tracer()
        self.compiled = compiled
        self.resource = resource.copy()
        self.clock = 0.0
        self.result = ExecutionResult()
        self.rng = np.random.default_rng(self.seed)
        self._scratch_counter = 0
        self._lost_nodes = 0
        if self.injector is not None:
            try:
                self.resource = self._allocate_am_container(
                    compiled, self.resource
                )
            finally:
                self.result.chaos = self.injector.report()
        cursor = compiled.replay
        if cursor is not None:
            # run replay, from a master's second run under this
            # configuration on: a program seen once leaves its mark and
            # does not pay for recording what nobody will replay
            label = ("start", repr(self.resource))
            compiled.replay = cursor.children.get(label)
            if compiled.replay is None:
                cursor.attach(label)
        if not (compiled.planned and compiled.resource == self.resource):
            # the AM recompiles the program under the final (dynamic)
            # configuration before executing it
            with tracer.span("runtime.generate_plans") as span:
                compile_plans(compiled, self.resource)
                if tracer.enabled:
                    regenerated = sum(1 for _ in compiled.last_level_blocks())
                    span.set("blocks", regenerated)
                    tracer.incr("recompile.dynamic", regenerated)
        self.pool = BufferPool(
            self.resource.cp_budget_bytes, self.params, self.charge,
            collector=self._collector,
        )
        # AM container allocation + startup
        self.charge(
            self.params.container_alloc_latency + self.params.am_startup_latency,
            "startup",
        )
        frame = {}
        self._frames = [frame]
        try:
            self._exec_blocks(compiled.blocks, frame)
        finally:
            if self.injector is not None:
                self.result.chaos = self.injector.report()
        self.result.total_time = self.clock
        self.result.evictions = self.pool.evictions
        self.result.buffer_restores = self.pool.restores
        self.result.final_resource = self.resource
        return self.result

    # -- chaos: AM allocation with denial fallback -------------------------

    def _allocate_am_container(self, compiled, resource):
        """Allocate the AM container under fault injection.

        Transient allocation failures back off and retry (bounded by the
        injector's retry budget); a hard denial falls back to a smaller
        configuration via :meth:`_allocation_fallback`.
        """
        injector = self.injector
        policy = injector.retry_policy
        attempts = 0
        while injector.fire(FaultKind.ALLOCATION_TRANSIENT,
                            site="am_alloc") is not None:
            attempts += 1
            injector.record_attempt("am_alloc",
                                    FaultKind.ALLOCATION_TRANSIENT)
            if attempts > policy.max_attempts:
                injector.record_exhausted(
                    "am_alloc", FaultKind.ALLOCATION_TRANSIENT, attempts
                )
                raise AllocationDeniedError(
                    f"AM container allocation failed after {attempts} "
                    f"transient failures"
                )
            backoff = policy.backoff(attempts)
            self.charge(backoff, "retry_backoff")
            injector.record_backoff(backoff)
        if attempts:
            injector.record_recovery(
                "am_alloc", FaultKind.ALLOCATION_TRANSIENT, attempts
            )
        if injector.fire(FaultKind.ALLOCATION_DENIED,
                         site="am_alloc") is not None:
            resource = self._allocation_fallback(compiled, resource)
        return resource

    def _allocation_fallback(self, compiled, resource):
        """The RM denied the requested AM container: re-enumerate a
        smaller configuration with the existing optimizer under a
        tighter max-allocation constraint; without an optimizer (or when
        the constrained grid is empty) fall back to halving the CP heap,
        floored at the cluster minimum."""
        denied = self.cluster.container_mb_for_heap(resource.cp_heap_mb)
        cap = max(self.cluster.min_allocation_mb, denied // 2)
        optimizer = (
            getattr(self.adapter, "optimizer", None)
            if self.adapter is not None else None
        )
        new_resource = None
        constrained = dataclasses.replace(
            self.cluster, max_allocation_mb=int(cap)
        )
        if optimizer is not None and constrained.max_heap_mb > constrained.min_heap_mb:
            from repro.errors import OptimizationError
            from repro.optimizer.enumerate import ResourceOptimizer

            shrunk = ResourceOptimizer(
                constrained, self.params, options=optimizer.options
            )
            try:
                result = shrunk.optimize(compiled)
            except OptimizationError:
                result = None
            if result is not None and result.resource is not None:
                new_resource = result.resource
        if new_resource is None:
            new_resource = type(resource)(
                cp_heap_mb=max(
                    self.cluster.min_heap_mb, resource.cp_heap_mb / 2.0
                ),
                mr_heap_mb=resource.mr_heap_mb,
                mr_heap_per_block=dict(resource.mr_heap_per_block),
            )
        self.injector.record_fallback("am_alloc", resource, new_resource)
        return new_resource

    def _cluster_view(self, extra_lost=0):
        """The cluster as this run currently sees it: NODE_LOSS faults
        permanently remove node managers; ``extra_lost`` models the
        temporarily-excluded node of a container-kill re-execution."""
        lost = self._lost_nodes + extra_lost
        if lost <= 0:
            return self.cluster
        n = max(1, self.cluster.num_nodes - lost)
        reducers = max(
            1, round(self.cluster.num_reducers * n / self.cluster.num_nodes)
        )
        return dataclasses.replace(
            self.cluster, num_nodes=n, num_reducers=reducers
        )

    # -- block execution ---------------------------------------------------

    def _exec_blocks(self, blocks, frame):
        for block in blocks:
            self._exec_block(block, frame)

    def _exec_block(self, block, frame):
        if isinstance(block, SB.GenericBlock):
            self._exec_generic(block, frame)
        elif isinstance(block, SB.IfBlock):
            if self._eval_predicate(block.predicate, frame):
                self._exec_blocks(block.body, frame)
            else:
                self._exec_blocks(block.else_body, frame)
        elif isinstance(block, SB.WhileBlock):
            iterations = 0
            while self._eval_predicate(block.predicate, frame):
                self._exec_blocks(block.body, frame)
                iterations += 1
                if iterations >= MAX_LOOP_ITERATIONS:
                    raise ExecutionError(
                        f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations"
                    )
        elif isinstance(block, SB.ForBlock):
            frm = self._eval_predicate_value(block.from_holder, frame)
            to = self._eval_predicate_value(block.to_holder, frame)
            incr = (self._eval_predicate_value(block.incr_holder, frame)
                    if block.incr_holder is not None else 1)
            _check_for_bounds(frm, to, incr)
            start_clock = self.clock
            value = frm
            while (incr > 0 and value <= to) or (incr < 0 and value >= to):
                frame[block.var] = value
                self._exec_blocks(block.body, frame)
                value = value + incr
            if block.parallel:
                self._rescale_parfor(block, start_clock)
        else:
            raise ExecutionError(f"unknown block type {type(block).__name__}")

    def _rescale_parfor(self, block, start_clock):
        """Task-parallel loops execute their iterations on k local
        workers: iterations ran serially for value correctness, so the
        elapsed loop time is rescaled by the degree of parallelism (plus
        a small per-worker startup charge)."""
        from repro.compiler.pipeline import parfor_dop

        dop = parfor_dop(block)
        if dop <= 1:
            return
        elapsed = self.clock - start_clock
        saved = elapsed * (1.0 - 1.0 / dop)
        self.clock -= saved
        self.result.breakdown["parfor_speedup"] = (
            self.result.breakdown.get("parfor_speedup", 0.0) - saved
        )
        self.charge(0.1 * dop, "parfor_overhead")

    def _eval_predicate(self, holder, frame):
        return bool(self._eval_predicate_value(holder, frame))

    def _eval_predicate_value(self, holder, frame):
        plan = getattr(holder, "plan", None)
        if plan is None:
            raise ExecutionError("predicate has no compiled plan")
        for ins in plan.instructions:
            ins.bound.execute(self, ins, frame)
        value = _value(plan.result, frame)
        self._cleanup_temps(frame, plan.kill)
        return value

    # -- generic blocks: recompilation, adaptation, instructions ------------

    def _exec_generic(self, block, frame):
        tracer = self._tracer
        if not tracer.enabled:
            self._exec_generic_inner(block, frame, tracer)
            return
        with tracer.span(f"block:{block.block_id}") as span:
            sim_start = self.clock
            self._exec_generic_inner(block, frame, tracer)
            span.set("sim_s", self.clock - sim_start)

    def _exec_generic_inner(self, block, frame, tracer):
        plan = block.plan
        if block.requires_recompile:
            mr_jobs_before = plan.num_mr_jobs if plan is not None else 0
            mem_before = _peak_mem_estimate(block) if tracer.enabled else 0.0
            states = self._var_states(frame)
            # a run-replay event: looked up where a run of the same
            # master met the same runtime knowledge, else derived
            replay.event(
                self.compiled, "recompile",
                lambda: (block.block_id, replay.frame_key(states),
                         repr(self.resource)),
                replay.holders(self.compiled, block),
                lambda: recompile_block(
                    self.compiled, block, self.resource,
                    make_env_from_states(states),
                ),
            )
            plan = block.plan
            self.result.recompilations += 1
            tracer.incr("recompile.dynamic")
            if tracer.enabled:
                tracer.event(
                    "recompile.dynamic",
                    block=block.block_id,
                    mr_jobs_before=mr_jobs_before,
                    mr_jobs_after=plan.num_mr_jobs,
                    mem_before_mb=mem_before,
                    mem_after_mb=_peak_mem_estimate(block),
                )
            if self.adapter is not None and plan.num_mr_jobs > 0:
                self.adapter.on_recompile(self, block, frame)
                plan = block.plan  # adaptation may have re-planned
        elif (
            self.adapter is not None
            and plan is not None
            and plan.num_mr_jobs > 0
            and self.adapter.should_trigger(self, block)
        ):
            # extended trigger (paper Section 6): re-optimize known
            # plans when cluster utilization shifted materially
            self.adapter.on_recompile(self, block, frame)
            plan = block.plan
        if plan is None:
            raise ExecutionError(f"block {block.block_id} has no plan")
        if tracer.enabled:
            for ins in plan.instructions:
                sim_start = self.clock
                ins.bound.execute(self, ins, frame)
                if isinstance(ins, MRJobInstruction):
                    opcode = "mr_job"
                else:
                    opcode = ins.opcode
                    tracer.incr("runtime.cp_instructions")
                tracer.incr(
                    f"runtime.op.{opcode}.sim_s", self.clock - sim_start
                )
        else:
            for ins in plan.instructions:
                ins.bound.execute(self, ins, frame)
        self._cleanup_temps(frame, plan.kill)

    def _cleanup_temps(self, frame, kill):
        """Drop dead matrices from the pool (rmvar): the temporaries the
        plan just run wrote (its kill set) and objects orphaned by
        variable rebinding are never read again, so they leave the
        buffer pool without writeback."""
        for name in kill:
            if name in frame:
                del frame[name]
        self.pool.retain_only({
            id(value)
            for any_frame in self._frames
            for value in any_frame.values()
            if isinstance(value, MatrixObject)
        })

    def _var_states(self, frame):
        """Runtime knowledge for dynamic recompilation."""
        states = {}
        for name, value in frame.items():
            if isinstance(value, MatrixObject):
                states[name] = (DataType.MATRIX, value.mc, None)
            elif isinstance(value, (bool, int, float, str)):
                states[name] = (DataType.SCALAR,
                                MatrixCharacteristics(0, 0, 0), value)
        return states

    # -- HDFS reads under fault injection -------------------------------

    def _read_hdfs_input(self, fname):
        """Read an input matrix, retrying slow/flaky reads with backoff.

        The stall time of each failed attempt plus the backoff is
        charged to the clock; the re-read is deterministic, so recovered
        runs stay numerically identical to fault-free runs."""
        if self.injector is None:
            return self.hdfs.read_matrix(fname)
        policy = self.injector.retry_policy
        site = f"hdfs:{fname}"
        attempts = 0
        while True:
            try:
                obj = self.hdfs.read_matrix(fname)
            except TransientIOError as err:
                self.charge(err.delay_s, "chaos_io")
                self.injector.record_wasted(err.delay_s)
                attempts += 1
                self.injector.record_attempt(site, FaultKind.HDFS_SLOW_READ)
                if attempts > policy.max_attempts:
                    self.injector.record_exhausted(
                        site, FaultKind.HDFS_SLOW_READ, attempts
                    )
                    raise RetryExhaustedError(
                        f"HDFS read of {fname!r} failed {attempts} times; "
                        f"retry budget ({policy.max_attempts}) exhausted",
                        site=site, attempts=attempts,
                    ) from err
                backoff = policy.backoff(attempts)
                self.charge(backoff, "retry_backoff")
                self.injector.record_backoff(backoff)
                continue
            if attempts:
                self.injector.record_recovery(
                    site, FaultKind.HDFS_SLOW_READ, attempts
                )
            return obj

    # -- CP instruction execution: the executors :func:`bind` binds ------

    def _exec_cp(self, ins, frame):
        ins.bound.execute(self, ins, frame)

    def _exec_createvar(self, ins, frame):
        obj = self._read_hdfs_input(ins.attrs["fname"])
        obj.in_memory = False  # lazy: charged on first CP access
        obj.dirty = False
        if ins.attrs.get("format") in ("text", "csv"):
            obj.fmt = FileFormat.CSV
        frame[ins.output] = obj

    def _exec_mvvar(self, ins, frame):
        frame[ins.output] = _value(ins.inputs[0], frame)

    def _exec_write(self, ins, frame):
        value = _value(ins.inputs[0], frame)
        if not isinstance(value, MatrixObject):
            raise ExecutionError("write() requires a matrix input")
        csv = ins.attrs.get("format") in ("text", "csv")
        fmt = FileFormat.CSV if csv else FileFormat.BINARY_BLOCK
        self.pool.pin(value)
        seconds = io_model.hdfs_write_time(value.mc, self.params, fmt)
        self.charge(seconds, "write")
        self._collector.add(
            "hdfs_write", seconds * self.params.hdfs_write_bw, seconds
        )
        self.hdfs.write_matrix(ins.attrs["fname"], value, fmt)

    def _exec_print(self, ins, frame):
        self.result.prints.append(display(_value(ins.inputs[0], frame)))

    def _exec_stop(self, ins, frame):
        raise ExecutionError(f"stop(): {display(_value(ins.inputs[0], frame))}")

    def _exec_kernel(self, ins, frame, values=None):
        """Resolve the operands (unless given), pin the matrices among
        them, run the bound kernel and charge its flops."""
        if values is None:
            values = _values(ins.inputs, frame)
        pool = self.pool
        in_mcs = []
        for value in values:
            if isinstance(value, MatrixObject):
                pool.pin(value)
                in_mcs.append(value.mc)
        kind, payload, mc = ins.bound.kernel(
            ins.opcode, values, ins.attrs, self.rng, self.sample_cap
        )
        self._charge_cp(operation_flops(
            ins.opcode, _SCALAR_MC if mc is None else mc, in_mcs, ins.attrs
        ))
        if kind == "matrix":
            obj = MatrixObject(payload, mc)
            pool.put(obj)
            frame[ins.output] = obj
        else:
            frame[ins.output] = payload

    def _exec_elementwise(self, ins, frame):
        """On scalars, the operator's scalar function at the flop count
        fixed when it was bound; on a matrix, its kernel."""
        values = _values(ins.inputs, frame)
        for value in values:
            if isinstance(value, MatrixObject):
                self._exec_kernel(ins, frame, values)
                return
        try:
            value = ins.bound.scalar(*values)
        except SCALAR_FAILURES as exc:
            raise no_value(ins.opcode, values, exc) from exc
        self._charge_cp(ins.bound.flops)
        frame[ins.output] = value

    def _charge_cp(self, flops):
        seconds = flops / self.params.cp_flops
        self.charge(seconds, "cp_compute")
        if self._collector.enabled:
            self._collector.add("cp_compute", flops, seconds)

    def _exec_fcall(self, ins, frame):
        func = self.compiled.functions.get(ins.attrs["func"])
        if func is None:
            raise ExecutionError(f"unknown function {ins.attrs['func']!r}")
        values = _values(ins.inputs, frame)
        fframe = {param.name: value for param, value in zip(func.inputs, values)}
        self._frames.append(fframe)
        try:
            self._exec_blocks(func.blocks, fframe)
        finally:
            self._frames.pop()
        for out_name, param in zip(ins.attrs["outputs"], func.outputs):
            if param.name not in fframe:
                raise ExecutionError(
                    f"function {func.name!r} did not produce output "
                    f"{param.name!r}"
                )
            frame[out_name] = fframe[param.name]

    # -- MR job execution -------------------------------------------------

    def _exec_mr_job(self, job, frame):
        # export dirty in-memory inputs so the job can read them from HDFS
        for name in list(job.input_vars) + list(job.broadcast_vars):
            value = frame.get(name)
            if isinstance(value, MatrixObject) and value.dirty:
                seconds = io_model.hdfs_write_time(value.mc, self.params)
                self.charge(seconds, "export")
                self._collector.add(
                    "hdfs_write", seconds * self.params.hdfs_write_bw, seconds
                )
                path = self._scratch_path(name)
                self.hdfs.write_matrix(path, value)
                value.hdfs_path = path
                value.dirty = False

        def mc_of(name):
            value = frame.get(name)
            return value.mc if isinstance(value, MatrixObject) else None

        def fmt_of(name):
            value = frame.get(name)
            if isinstance(value, MatrixObject):
                return value.fmt
            return FileFormat.BINARY_BLOCK

        # measure step characteristics from actual inputs by executing
        # kernels; they stay local, since the plan may be shared
        scratch = {}
        outputs = {}
        step_mcs = []
        for step in job.steps:
            values = [
                scratch[op.name] if op.name in scratch else _value(op, frame)
                for op in step.inputs
            ]
            in_mcs = [
                v.mc.copy() for v in values if isinstance(v, MatrixObject)
            ]
            kind, payload, mc = execute_kernel(
                step.opcode, values, step.attrs, self.rng, self.sample_cap
            )
            if kind == "matrix":
                obj = MatrixObject(payload, mc)
                obj.in_memory = False
                obj.dirty = False
                scratch[step.output] = obj
                step_mcs.append((mc.copy(), in_mcs))
                if step.output in job.output_vars:
                    outputs[step.output] = obj
            else:
                scratch[step.output] = payload
                step_mcs.append((step.out_mc, in_mcs))

        def time_job(extra_lost=0):
            return time_mr_job(
                job, step_mcs, mc_of, fmt_of, self.resource,
                self._cluster_view(extra_lost), self.params,
            )

        timing = time_job()
        slowdown = (
            self.cluster_load.slowdown(self.clock)
            if self.cluster_load is not None
            else 1.0
        )
        if self.injector is None:
            self.charge(timing.total * slowdown, "mr_jobs")
        else:
            timing = self._charge_mr_job_with_faults(
                job, timing, slowdown, time_job
            )
        self._emit_mr_samples(timing, slowdown)
        self.result.mr_jobs += 1 + job.extra_job_latency
        tracer = self._tracer
        if tracer.enabled:
            tracer.incr("runtime.mr_jobs")
            for phase in ("latency", "map_read", "broadcast_read",
                          "map_compute", "map_write", "shuffle",
                          "reduce_compute", "reduce_write"):
                tracer.incr(f"mr.phase.{phase}_s", getattr(timing, phase))
            # map tasks stream the job inputs from HDFS
            for name in job.input_vars:
                value = frame.get(name)
                if isinstance(value, MatrixObject):
                    tracer.incr(
                        f"hdfs.bytes_read.{value.fmt.name.lower()}",
                        io_model.serialized_bytes(value.mc, value.fmt),
                    )

        for name, obj in outputs.items():
            path = self._scratch_path(name)
            self.hdfs.write_matrix(path, obj)
            obj.hdfs_path = path
            frame[name] = obj
        # scalar step outputs (full aggregates) flow back to the frame
        for step in job.steps:
            value = scratch.get(step.output)
            if not isinstance(value, MatrixObject) and value is not None:
                frame[step.output] = value

    def _emit_mr_samples(self, timing, slowdown):
        """Emit one calibration sample per MR phase of the job that
        finally succeeded.

        Work units are recovered algebraically from the modelled phase
        times (``work = t_modeled * rate``), which makes them exact
        byte/FLOP/latency-unit quantities independent of the constants
        in ``self.params``; the observed seconds carry the cluster-load
        slowdown, matching what the clock was actually charged.
        """
        collector = self._collector
        if not collector.enabled:
            return
        p = self.params
        read = timing.map_read
        collector.add("hdfs_read", read * p.hdfs_read_bw, read * slowdown)
        local = timing.broadcast_read
        collector.add("local_disk", local * p.local_disk_bw, local * slowdown)
        compute = timing.map_compute + timing.reduce_compute
        collector.add(
            "mr_compute", compute * p.mr_task_flops, compute * slowdown
        )
        write = timing.map_write + timing.reduce_write
        collector.add("hdfs_write", write * p.hdfs_write_bw, write * slowdown)
        collector.add(
            "shuffle", timing.shuffle * p.shuffle_bw_per_node,
            timing.shuffle * slowdown,
        )
        collector.add(
            "mr_job_latency", timing.job_latency_units,
            p.mr_job_latency * timing.job_latency_units * slowdown,
        )
        collector.add(
            "mr_task_latency", timing.task_latency_units,
            p.mr_task_latency * timing.task_latency_units * slowdown,
        )

    def _charge_mr_job_with_faults(self, job, timing, slowdown, time_job):
        """Charge one MR job's time under fault injection.

        Semantic kernel outputs were already computed (faults affect
        *time*, never values: MR re-execution is deterministic), so this
        only replays the timing: a container kill or node loss wastes
        the job's partial progress, backs off, and re-executes the lost
        containers at reduced parallelism — one node excluded for the
        retry after a kill, permanently removed from this run's cluster
        view after a node loss.  The retry budget is the injector's
        :class:`~repro.chaos.RetryPolicy`; exhausting it raises the
        typed :class:`~repro.errors.RetryExhaustedError`.
        ``time_job(extra_lost)`` times the job with ``extra_lost`` more
        nodes out of this run's cluster view.

        Returns the timing of the attempt that finally succeeded (its
        phase breakdown feeds the ``mr.phase.*`` counters).
        """
        injector = self.injector
        policy = injector.retry_policy
        site = f"mr_job:{job.block_id}"
        attempts = 0
        kill_degraded = 0
        last_kind = None
        while True:
            fault = injector.fire(FaultKind.NODE_LOSS, site=site)
            kind = FaultKind.NODE_LOSS
            if fault is None:
                fault = injector.fire(FaultKind.CONTAINER_KILL, site=site)
                kind = FaultKind.CONTAINER_KILL
            if fault is None:
                self.charge(timing.total * slowdown, "mr_jobs")
                if attempts:
                    injector.record_recovery(site, last_kind, attempts)
                return timing
            # partial work lost at the fault's progress point
            wasted = timing.total * fault.payload.progress * slowdown
            self.charge(wasted, "chaos_wasted")
            injector.record_wasted(wasted)
            attempts += 1
            last_kind = kind
            injector.record_attempt(site, kind)
            if attempts > policy.max_attempts:
                injector.record_exhausted(site, kind, attempts)
                raise RetryExhaustedError(
                    f"MR job in block {job.block_id} failed "
                    f"{attempts} times ({kind.value}); retry budget "
                    f"({policy.max_attempts}) exhausted",
                    site=site, attempts=attempts,
                )
            backoff = policy.backoff(attempts)
            self.charge(backoff, "retry_backoff")
            injector.record_backoff(backoff)
            if kind is FaultKind.NODE_LOSS:
                self._lost_nodes = min(
                    self._lost_nodes + 1, self.cluster.num_nodes - 1
                )
                kill_degraded = 0
            else:
                kill_degraded = 1
            # re-execute the lost containers at reduced parallelism
            timing = time_job(kill_degraded)

    def _scratch_path(self, name):
        self._scratch_counter += 1
        return f"scratch/{name}_{self._scratch_counter}"


def _value(operand, frame):
    name, literal = operand
    if name is None:
        return literal
    try:
        return frame[name]
    except KeyError:
        raise ExecutionError(f"undefined variable {name!r}") from None


def _values(operands, frame):
    try:
        return [literal if name is None else frame[name]
                for name, literal in operands]
    except KeyError as exc:
        raise ExecutionError(f"undefined variable {exc.args[0]!r}") from None


def _peak_mem_estimate(block):
    """Largest operation memory estimate (MB) in a block's HOP DAG — the
    size knowledge a dynamic recompile refreshes."""
    from repro.compiler import hops as H

    peak = 0.0
    for hop in H.iter_dag(block.hop_roots):
        est = getattr(hop, "mem_estimate", 0.0)
        if est is not None and math.isfinite(est) and est > peak:
            peak = est
    return peak / (1024.0 * 1024.0)


def _check_for_bounds(frm, to, incr):
    """A for loop runs ``floor((to - frm) / incr) + 1`` times over its
    bounds, evaluated once: finite, and at most MAX_LOOP_ITERATIONS."""
    for bound in (frm, to, incr):
        if isinstance(bound, float) and not math.isfinite(bound):
            raise ExecutionError(f"for loop bound {display(bound)} is not finite")
    if incr != 0 and (to - frm) / incr >= MAX_LOOP_ITERATIONS:
        raise ExecutionError(
            f"for loop from {display(frm)} to {display(to)} by "
            f"{display(incr)} exceeds {MAX_LOOP_ITERATIONS} iterations"
        )


class Binding(NamedTuple):
    """What plan generation binds an instruction to (one per opcode): its
    executor, kernel and, for a scalar operator, function and flops."""

    execute: object
    kernel: object = execute_kernel
    scalar: object = None
    flops: float = None


def _elementwise(opcode, scalar):
    # operation_flops reads no attrs of an elementwise opcode
    flops = operation_flops(opcode, _SCALAR_MC, [], {})
    return Binding(Interpreter._exec_elementwise, KERNELS[opcode], scalar,
                   flops)


_BINDINGS = {op: Binding(Interpreter._exec_kernel, kernel)
             for op, kernel in KERNELS.items()}
_BINDINGS.update((op, _elementwise(op, partial(scalar_binary, op)))
                 for op in ELEMENTWISE_BINARY)
_BINDINGS.update((op, _elementwise(op, scalar))
                 for op, scalar in SCALAR_UNARY.items())
for _op in ("createvar", "mvvar", "write", "print", "stop", "fcall",
            "mr_job"):
    _BINDINGS[_op] = Binding(getattr(Interpreter, f"_exec_{_op}"))


def bind(opcode):
    """The :class:`Binding` of an instruction with ``opcode`` (``"mr_job"``
    for an MR job); one without a kernel fails when it runs, in
    :func:`~repro.runtime.kernels.execute_kernel`."""
    return _BINDINGS.get(opcode) or Binding(Interpreter._exec_kernel)
