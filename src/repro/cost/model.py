"""The cost model C(P, R_P, cc): estimated execution time of runtime plans.

Scans the runtime plan in execution order tracking sizes and states of
live variables (paper Section 3.1):

* a CP instruction charges read IO for inputs not in memory, compute at
  the CP peak rate, and flips its inputs/output to in-memory;
* an MR job instruction charges job and task-wave latency, export of
  dirty in-memory inputs, map read (HDFS, parallel across tasks),
  broadcast loads per wave, map compute, shuffle transfer, reduce
  compute/merge, and reduce write; the degree of parallelism derives
  from the CP/MR resource configuration and cluster cores;
* block aggregation: branches are weighted sums, loops cost one cold
  pass plus (n-1) warm passes — which captures the read-once-then-
  in-memory advantage of large CP memory for iterative algorithms;
* buffer-pool evictions are only *partially* considered (as in the
  paper, which identifies them as a source of suboptimality): the cost
  state approximates an LRU working set against the CP budget but does
  not charge eviction writes — the runtime simulator models the pool
  exactly.
"""

from __future__ import annotations

import itertools
import math

from repro.common import FileFormat, MatrixCharacteristics, RunningTotal
from repro.compiler import statement_blocks as SB
from repro.compiler.runtime_prog import CPInstruction, MRJobInstruction
from repro.compiler.size_propagation import DEFAULT_LOOP_ITERATIONS
from repro.cost import io_model
from repro.cost.compute_model import operation_flops
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.cost.mr_timing import time_mr_job
from repro.obs import get_tracer

#: instruction opcodes that neither read matrix data nor compute
_METADATA_OPS = {
    "createvar", "mvvar", "nrow", "ncol", "length",
    "castvtd", "castvti", "castvtb", "print", "stop",
}


class VarCostState:
    """Tracked knowledge about one live variable during costing.

    ``mc`` is shared with the instruction that declared it (the walk
    never mutates characteristics) and ``size`` is its memory estimate,
    computed once.  ``refs`` counts the names bound to this state in
    its :class:`CostState` (``mvvar`` aliases); once bound, ``in_memory``
    changes only through :meth:`CostState.set_in_memory`.
    """

    __slots__ = ("mc", "in_memory", "dirty", "fmt", "size", "refs")

    def __init__(self, mc, in_memory=False, dirty=False,
                 fmt=FileFormat.BINARY_BLOCK, size=None, refs=0):
        self.mc = mc
        self.in_memory = in_memory
        self.dirty = dirty  # in-memory copy newer than its HDFS representation
        self.fmt = fmt
        self.size = mc.memory_estimate() if size is None else size
        self.refs = refs

    def copy(self):
        return VarCostState(
            self.mc, self.in_memory, self.dirty, self.fmt, self.size
        )


class CostState(dict, RunningTotal):
    """Variable name -> VarCostState with branch-merge support.

    ``total`` is a running float sum of the finite sizes of the
    *distinct* resident states (an ``mvvar`` alias is one state under
    two names: counted once, leaving when its last name is rebound).
    Every residency change keeps it current — ``state[name] = vstate``,
    :meth:`set_in_memory`, :meth:`merge_with`, :meth:`adopt` — so
    ``CostModel._balance_pool`` re-sums only when :meth:`fits` (the
    :class:`~repro.common.RunningTotal` rule the runtime's buffer pool
    shares) cannot rule out that the set is over budget.
    """

    __slots__ = ("total", "ops", "peak")

    def __init__(self, items=()):
        super().__init__()
        self.anchor(0.0, 0, 0.0)
        for name, vstate in dict(items).items():
            self[name] = vstate

    def __setitem__(self, name, vstate):
        old = self.get(name)
        if old is vstate:
            return
        if old is not None:
            old.refs -= 1
            if not old.refs and old.in_memory:
                self._count(-old.size)
        dict.__setitem__(self, name, vstate)
        vstate.refs += 1
        if vstate.refs == 1 and vstate.in_memory:
            self._count(vstate.size)

    def set_in_memory(self, vstate, in_memory):
        """Flip the residency of a state bound in this mapping."""
        if vstate.in_memory != in_memory:
            vstate.in_memory = in_memory
            self._count(vstate.size if in_memory else -vstate.size)

    # the other dict mutators would bypass the bookkeeping
    clear = update = pop = popitem = setdefault = __delitem__ = __ior__ = None

    def copy(self):
        """Branch fork.  Every name gets a state of its own, so ``mvvar``
        aliases come apart and are counted once per name from here on."""
        new = CostState()
        dict.update(new, {  # VarCostState.copy inlined: the hottest loop
            k: VarCostState(v.mc, v.in_memory, v.dirty, v.fmt, v.size, 1)
            for k, v in self.items()
        })
        total = float(sum([
            v.size for v in new.values()
            if v.in_memory and math.isfinite(v.size)
        ]))
        new.anchor(total, len(new), total)
        return new

    def merge_with(self, other):
        """Branch merge, in place: this (then-arm) state becomes the
        merged one — resident only if resident in both arms, dirty if
        dirty in either, one state per name — and is returned."""
        for name, state in self.items():
            if state.refs > 1:
                self[name] = state = state.copy()
            o = other.get(name)
            if o is not None:
                if state.in_memory and not o.in_memory:
                    self.set_in_memory(state, False)
                if o.dirty:
                    state.dirty = True
        for name, o in other.items():
            if name not in self:
                self[name] = o.copy()
        return self

    def adopt(self, other):
        """Become ``other`` (a branch state that is dropped afterwards):
        its entries in its order, and its running total."""
        dict.clear(self)
        dict.update(self, other)
        self.anchor(other.total, other.ops, other.peak)


class CostModel:
    """Estimates runtime-plan execution time for a cluster and resources."""

    def __init__(self, cluster, params=None, exclude_provisional=True):
        self.cluster = cluster
        self.params = params or DEFAULT_PARAMETERS
        #: number of cost-model invocations (Table 3's "# Cost.")
        self.invocations = 0
        #: exclude blocks marked for dynamic recompilation from
        #: program-level aggregation (ablation switch; see _cost_block)
        self.exclude_provisional = exclude_provisional
        #: what-if memo: key -> [(lo, hi, cost), ...], a walk's cost on
        #: every CP budget in [lo, hi) (see :meth:`_holds`)
        self._memo = {}
        self._scopes = {}
        self._plan_has_fcall = {}
        #: memo hits (returned without counting an invocation)
        self.memo_hits = 0
        #: the CP budgets [lo, hi) on which the walk in progress takes
        #: every decision it has taken so far
        self._lo, self._hi = -math.inf, math.inf
        #: when set (a dict), the cost walk accumulates estimated seconds
        #: per calibration component into it (see estimate_components)
        self.component_totals = None

    # -- public API ----------------------------------------------------------

    def estimate_program(self, compiled, resource, use_memo=False):
        """Estimated execution time (seconds) of the whole program."""
        return self.estimate_blocks(
            compiled, compiled.blocks, resource, use_memo
        )

    def estimate_components(self, compiled, resource):
        """Per-component estimated seconds for the whole program.

        The component names match :data:`repro.cost.calibrate.COMPONENTS`
        (plus ``"total"``), so the result lines up one-to-one with the
        runtime's calibration samples — the estimate side of the
        estimate-vs-actual divergence the benchmarks report.
        """
        self.component_totals = {}
        try:
            total = self.estimate_program(compiled, resource)
        finally:
            totals, self.component_totals = self.component_totals, None
        totals["total"] = total
        return totals

    def estimate_blocks(self, compiled, blocks, resource, use_memo=False):
        """Estimated time of a block subsequence (re-optimization scope).

        With ``use_memo`` the whole walk is memoized like a single
        block's (:meth:`estimate_block`), under :meth:`_walk_key`.
        """
        key = self._walk_key(compiled, blocks, resource) if use_memo else None
        return self._memoized(key, resource, lambda: self._cost_blocks(
            blocks, resource, CostState(), compiled, set()
        ))

    def estimate_block(self, compiled, block, resource, use_memo=False):
        """Estimated time of a single generic block's plan.

        With ``use_memo`` (the resource optimizer's plan-cache mode) the
        result is memoized on the plan's signature, the exact projection
        of ``resource`` MR timing depends on, and the interval of CP
        budgets the walk held on (:meth:`_holds`) — a memo hit skips the
        cost walk entirely and does not count as an invocation.
        """
        key = self._block_memo_key(block, resource) if use_memo else None
        return self._memoized(key, resource, lambda: self._cost_generic(
            block, resource, CostState(), compiled, set()
        ))

    # -- what-if memoization -------------------------------------------------
    #
    # The cost of a fixed plan is piecewise constant in the CP budget: a
    # walk reads the budget only through :meth:`_holds`, so a finished
    # walk knows the interval of budgets on which it would have decided,
    # and hence summed, exactly the same (DESIGN.md section 16).

    def _holds(self, x, resource):
        """``x <= resource.cp_budget_bytes`` — the walk's only reading of
        the CP budget — narrowing ``[_lo, _hi)`` to the budgets B' that
        compare the same: a true one keeps ``x <= _lo <= B'``, a false
        one ``B' < _hi <= x``, and ``x`` never depends on the budget."""
        if x <= resource.cp_budget_bytes:
            if x > self._lo:
                self._lo = x
            return True
        if x < self._hi:
            self._hi = x
        return False

    def _recall(self, key, resource):
        """The cost memoized under ``key`` by a walk that holds on
        ``resource``'s CP budget, else None.  A hit is not an invocation."""
        if key is not None:
            budget = resource.cp_budget_bytes
            for lo, hi, cost in self._memo.get(key, ()):
                if lo <= budget < hi:
                    self.memo_hits += 1
                    get_tracer().incr("costcache.hits")
                    return cost
        return None

    def _begin_walk(self):
        self.invocations += 1
        get_tracer().incr("cost.invocations")
        self._lo, self._hi = -math.inf, math.inf

    def _remember(self, key, cost):
        if key is not None:
            self._memo.setdefault(key, []).append((self._lo, self._hi, cost))
            get_tracer().incr("costcache.misses")

    def _memoized(self, key, resource, walk):
        if self.component_totals is not None:
            key = None  # per-component accounting: the point is the walk
        cost = self._recall(key, resource)
        if cost is None:
            self._begin_walk()
            cost = walk()
            self._remember(key, cost)
        return cost

    def mr_cost_signature(self, block_id, resource):
        """Exact projection of ``resource`` that MR-job timing depends
        on for one block: the raw map-task parallelism and the
        small-heap thrash flag (see :func:`repro.cost.mr_timing.time_mr_job`
        — every other term is determined by the plan and the cost state)."""
        mr_heap = resource.mr_heap_for_block(block_id)
        cp_container = self.cluster.container_mb_for_heap(resource.cp_heap_mb)
        return (
            self.cluster.map_task_parallelism(mr_heap, cp_container),
            mr_heap < self.params.small_task_thrash_heap_mb,
        )

    def _block_memo_key(self, block, resource):
        """Memo key, or None when memoization would be unsound.

        A block cost is a pure function of (plan, CP budget, budget
        divisor, MR cost signature) — except plans calling functions,
        whose cost also depends on the callee blocks' current plans, so
        those are never memoized.  CP-only plans drop the MR component
        entirely (their cost is independent of the task heap); the CP
        budget is the entry's interval, not part of the key.

        The budget divisor is defense-in-depth: plan signatures are
        unique per generated plan and the cost walk itself uses the
        undivided CP budget, so today two divisors can never share a
        memo entry — but recompilation *selects operators* under
        ``cp_budget_bytes / block.budget_divisor`` (parfor bodies), and
        keying on the divisor keeps the memo sound if plan signatures
        ever become content-based."""
        plan = block.plan
        if plan is None:
            return None
        signature = getattr(plan, "signature", None)
        if signature is None or self._has_fcall(plan):
            return None
        mr_key = (
            self.mr_cost_signature(block.block_id, resource)
            if plan.num_mr_jobs
            else None
        )
        return (signature, getattr(block, "budget_divisor", 1), mr_key)

    def _walk_key(self, compiled, blocks, resource):
        """Memo key of a whole walk of ``blocks`` — everything but the CP
        budget that such a walk reads — or None when a plan is missing.

        The scope itself; the identity of every plan a walk can reach
        (generic blocks and predicates, function bodies included: they
        are what :meth:`_block_memo_key` cannot name);
        ``requires_recompile`` (a provisional block costs nothing); a
        for loop's known iterations; and the MR cost signature of every
        block whose plan has jobs (which blocks those are, the plan
        identities fix)."""
        ids = tuple(map(id, blocks))
        scope = self._scopes.get(ids)
        if scope is None:
            # flattened once per memo lifetime; the entry keeps ``blocks``
            # so that none of ``ids`` can be reused while it lives
            functions = compiled.functions.values() if compiled else ()
            generic, holders, loops = [], [], []
            for top in itertools.chain(
                blocks, *(func.blocks for func in functions)
            ):
                for block in top.all_blocks():
                    if isinstance(block, SB.GenericBlock):
                        generic.append(block)
                    else:
                        holders.extend(SB.predicate_holders(block))
                        if isinstance(block, SB.ForBlock):
                            loops.append(block)
            scope = self._scopes[ids] = (
                generic, holders, loops, tuple(blocks)
            )
        generic, holders, loops, _ = scope
        try:
            plans = [block.plan for block in generic]
            signatures = tuple([plan.signature for plan in plans])
            predicates = tuple([holder.plan.signature for holder in holders])
        except AttributeError:  # a holder without a (signed) plan
            return None
        return (
            ids, signatures, predicates,
            tuple([block.requires_recompile for block in generic]),
            tuple([block.known_iterations for block in loops]),
            tuple([
                self.mr_cost_signature(block.block_id, resource)
                for block, plan in zip(generic, plans) if plan.num_mr_jobs
            ]),
        )

    def _has_fcall(self, plan):
        """Whether ``plan`` calls a function, remembered per signature."""
        signature = getattr(plan, "signature", None)
        has_fcall = self._plan_has_fcall.get(signature)
        if has_fcall is None:
            has_fcall = any(
                getattr(ins, "opcode", None) == "fcall"
                for ins in plan.instructions
            )
            if signature is not None:
                self._plan_has_fcall[signature] = has_fcall
        return has_fcall

    def clear_memo(self):
        """Drop all memoized costs (plan signatures make stale entries
        unreachable anyway; this frees the memory and the scopes' blocks)."""
        self._memo.clear()
        self._scopes.clear()
        self._plan_has_fcall.clear()

    def _add_component(self, name, seconds):
        totals = self.component_totals
        if totals is not None and seconds:
            totals[name] = totals.get(name, 0.0) + seconds

    # -- program aggregation -----------------------------------------------

    def _cost_blocks(self, blocks, resource, state, compiled, active_funcs):
        total = 0.0
        for block in blocks:
            total += self._cost_block(block, resource, state, compiled, active_funcs)
        return total

    def _cost_block(self, block, resource, state, compiled, active_funcs):
        if isinstance(block, SB.GenericBlock):
            # blocks with unknown intermediate sizes carry provisional
            # plans that dynamic recompilation will replace: their what-if
            # costs are meaningless noise, so program-level aggregation
            # excludes them.  This keeps unknown-dominated programs tied
            # across CP points, and Definition 1's minimality tie-break
            # then selects minimal resources — the behaviour the paper
            # reports for MLogreg/GLM (Section 5.5), later corrected by
            # runtime re-optimization once sizes are known.
            if block.requires_recompile and self.exclude_provisional:
                return 0.0
            return self._cost_generic(block, resource, state, compiled, active_funcs)
        if isinstance(block, SB.IfBlock):
            cost = self._cost_predicate(block.predicate, resource, state, compiled)
            then_state = state.copy()
            then_cost = self._cost_blocks(
                block.body, resource, then_state, compiled, active_funcs
            )
            # an empty else arm only lends its flags to the merge
            else_state = state.copy() if block.else_body else state
            else_cost = self._cost_blocks(
                block.else_body, resource, else_state, compiled, active_funcs
            )
            state.adopt(then_state.merge_with(else_state))
            return cost + 0.5 * then_cost + 0.5 * else_cost
        if isinstance(block, SB.WhileBlock):
            iterations = DEFAULT_LOOP_ITERATIONS
            return self._cost_loop(
                block.body,
                [block.predicate],
                iterations,
                resource,
                state,
                compiled,
                active_funcs,
            )
        if isinstance(block, SB.ForBlock):
            iterations = (
                block.known_iterations
                if block.known_iterations is not None
                else DEFAULT_LOOP_ITERATIONS
            )
            holders = [
                h
                for h in (block.from_holder, block.to_holder, block.incr_holder)
                if h is not None
            ]
            loop_cost = self._cost_loop(
                block.body, holders, iterations, resource, state, compiled,
                active_funcs,
            )
            if block.parallel:
                from repro.compiler.pipeline import parfor_dop

                dop = parfor_dop(block)
                # k local workers share the iteration space; worker
                # startup costs a small constant each
                return loop_cost / dop + 0.1 * dop
            return loop_cost
        raise TypeError(f"unknown block type {type(block).__name__}")

    def _cost_loop(self, body, holders, iterations, resource, state, compiled,
                   active_funcs):
        """One cold pass plus (iterations - 1) warm passes."""
        if iterations <= 0:
            return 0.0
        pred_cost = sum(
            self._cost_predicate(holder, resource, state, compiled)
            for holder in holders
        )
        cold = self._cost_blocks(body, resource, state, compiled, active_funcs)
        if iterations == 1:
            return pred_cost + cold
        warm = self._cost_blocks(body, resource, state, compiled, active_funcs)
        return pred_cost * iterations + cold + warm * (iterations - 1)

    def _cost_predicate(self, holder, resource, state, compiled):
        plan = getattr(holder, "plan", None)
        if plan is None:
            return 0.0
        total = 0.0
        for ins in plan.instructions:
            total += self._cost_cp(ins, resource, state)
        return total

    # -- instruction-level costing -----------------------------------------

    def _cost_generic(self, block, resource, state, compiled, active_funcs):
        plan = block.plan
        if plan is None:
            return 0.0
        total = 0.0
        for ins in plan.instructions:
            if isinstance(ins, MRJobInstruction):
                total += self._cost_mr_job(ins, resource, state)
            elif ins.opcode == "fcall":
                total += self._cost_fcall(
                    ins, resource, state, compiled, active_funcs
                )
            else:
                total += self._cost_cp(ins, resource, state)
        return total

    def _input_state(self, operand, mc, state, resource):
        """The operand's state; a variable first seen mid-plan (partial
        costing) is resident in memory when it fits the CP budget."""
        if operand.name is None:
            return None
        vstate = state.get(operand.name)
        if vstate is None:
            vstate = VarCostState(mc)
            vstate.in_memory = self._holds(vstate.size, resource)
            state[operand.name] = vstate
        return vstate

    def _cost_cp(self, ins, resource, state):
        params = self.params
        if ins.opcode == "createvar":
            state[ins.output] = VarCostState(ins.out_mc)
            fmt = ins.attrs.get("format")
            if fmt in ("text", "csv"):
                state[ins.output].fmt = FileFormat.CSV
            return 0.0
        if ins.opcode == "mvvar":
            src = ins.inputs[0]
            if src.name is not None and src.name in state:
                state[ins.output] = state[src.name]
            else:
                state[ins.output] = VarCostState(
                    ins.out_mc, in_memory=True, dirty=True
                )
            return 0.0
        if ins.opcode == "write":
            src = ins.inputs[0]
            mc = ins.in_mcs[0] if ins.in_mcs else ins.out_mc
            vstate = self._input_state(src, mc, state, resource)
            fmt = (
                FileFormat.CSV
                if ins.attrs.get("format") in ("text", "csv")
                else FileFormat.BINARY_BLOCK
            )
            write_mc = vstate.mc if vstate else mc
            if not write_mc.dims_known:
                return 0.0  # unknown outputs cannot be costed
            write_time = io_model.hdfs_write_time(write_mc, params, fmt)
            self._add_component("hdfs_write", write_time)
            return write_time
        if ins.opcode in _METADATA_OPS:
            return 0.0

        # IO: pull HDFS-resident matrix inputs into memory
        io_time = 0.0
        in_mcs = []
        pinned = []
        for idx, operand in enumerate(ins.inputs):
            mc = (
                ins.in_mcs[idx]
                if idx < len(ins.in_mcs)
                else MatrixCharacteristics(0, 0, 0)
            )
            vstate = self._input_state(operand, mc, state, resource)
            if vstate is None:
                in_mcs.append(mc)
                continue
            in_mcs.append(vstate.mc)
            pinned.append(vstate)
            if not vstate.in_memory and vstate.mc.dims_known and vstate.mc.cells > 0:
                io_time += io_model.hdfs_read_time(vstate.mc, params, vstate.fmt)
                # the buffer pool retains only matrices that fit the CP
                # budget; larger ones are streamed and re-read on the
                # next access (the cost model's partial account of the
                # buffer pool, paper Section 5)
                state.set_in_memory(
                    vstate, self._holds(vstate.size, resource)
                )

        flops = operation_flops(ins.opcode, ins.out_mc, in_mcs, ins.attrs)
        compute_time = flops / params.cp_flops
        if ins.output is not None:
            vstate = VarCostState(ins.out_mc, dirty=True)
            vstate.in_memory = self._holds(vstate.size, resource)
            state[ins.output] = vstate
            pinned.append(vstate)
        self._balance_pool(state, resource, pinned)
        self._add_component("hdfs_read", io_time)
        self._add_component("cp_compute", compute_time)
        return io_time + compute_time

    def _balance_pool(self, state, resource, pinned):
        """Approximate LRU working-set accounting: when the in-memory
        variables exceed the CP budget, the least recently touched ones
        are dropped (their next access re-reads) — the cost model's
        partial account of buffer-pool evictions."""
        # ``state.fits(budget)``, its compared value recorded on both
        # outcomes: the O(1) return and the re-sum stay one path per entry
        if self._holds(state.total + state.slack(), resource):
            return  # the re-sum below could not come out over budget
        live = []
        seen = set()
        total = 0.0
        for name in state:
            vstate = state[name]
            if id(vstate) in seen or not vstate.in_memory:
                continue
            seen.add(id(vstate))
            size = vstate.size
            if math.isfinite(size):
                live.append(vstate)
                total += size
        state.anchor(total, len(live), total)
        if self._holds(total, resource):
            return
        pinned_ids = {id(v) for v in pinned}
        # evict insertion-ordered (oldest first), keeping current operands
        for vstate in live:
            if self._holds(state.total, resource):
                break
            if id(vstate) in pinned_ids:
                continue
            state.set_in_memory(vstate, False)

    def _cost_fcall(self, ins, resource, state, compiled, active_funcs):
        func_name = ins.attrs.get("func")
        func = compiled.functions.get(func_name) if compiled else None
        if func is None or func_name in active_funcs:
            return 0.0
        active_funcs = active_funcs | {func_name}
        fstate = CostState()
        cost = self._cost_blocks(
            func.blocks, resource, fstate, compiled, active_funcs
        )
        for out in ins.attrs.get("outputs", []):
            state[out] = VarCostState(
                ins.out_mc, in_memory=True, dirty=True
            )
        return cost

    # -- MR job costing -------------------------------------------------

    def _cost_mr_job(self, job, resource, state):
        params = self.params
        # export dirty in-memory inputs to HDFS so the job can read them
        total = 0.0
        for name in list(job.input_vars) + list(job.broadcast_vars):
            vstate = state.get(name)
            if vstate is None:
                mc = self._find_job_input_mc(job, name)
                vstate = VarCostState(mc, in_memory=True, dirty=True)
                state[name] = vstate
            if vstate.dirty and vstate.mc.dims_known:
                export_time = io_model.hdfs_write_time(vstate.mc, params)
                self._add_component("hdfs_write", export_time)
                total += export_time
            vstate.dirty = False

        def mc_of(name):
            vstate = state.get(name)
            return vstate.mc if vstate is not None else None

        def fmt_of(name):
            vstate = state.get(name)
            return vstate.fmt if vstate is not None else FileFormat.BINARY_BLOCK

        step_mcs = [(step.out_mc, step.in_mcs) for step in job.steps]
        timing = time_mr_job(
            job, step_mcs, mc_of, fmt_of, resource, self.cluster, params
        )
        total += timing.total
        if self.component_totals is not None:
            self._add_component("hdfs_read", timing.map_read)
            self._add_component("local_disk", timing.broadcast_read)
            self._add_component(
                "mr_compute", timing.map_compute + timing.reduce_compute
            )
            self._add_component(
                "hdfs_write", timing.map_write + timing.reduce_write
            )
            self._add_component("shuffle", timing.shuffle)
            self._add_component(
                "mr_job_latency",
                params.mr_job_latency * timing.job_latency_units,
            )
            self._add_component(
                "mr_task_latency",
                params.mr_task_latency * timing.task_latency_units,
            )
        # job outputs land on HDFS (clean, not in CP memory)
        for step in job.steps:
            if step.output in job.output_vars:
                state[step.output] = VarCostState(step.out_mc)
        return total

    def _find_job_input_mc(self, job, name):
        for step in job.steps:
            for operand, mc in zip(step.inputs, step.in_mcs):
                if operand.name == name:
                    return mc
        return MatrixCharacteristics.unknown()
