"""Runtime resource adaptation (paper Section 4).

Hooked into dynamic recompilation: when a recompiled block still emits
MR jobs, the adapter

1. determines the re-optimization scope — from the current position,
   expanded to the outermost enclosing loop (or top level) of the
   current call context, through the end of that context (Section 4.2);
2. refreshes the scope's sizes with actual runtime characteristics and
   re-runs the core resource optimizer twice: globally (R*) and with
   the CP dimension pinned to the current configuration (R*|rc);
3. migrates the CP application master iff the cost benefit
   |C(P',R*) - C(P',R*|rc)| amortizes the migration cost (live-variable
   export IO + container allocation/AM startup latency); otherwise only
   the MR configurations are updated (Section 4.2, "Adaptation
   Decision").

Migration is modelled after the paper's AM process chaining: dirty live
variables are written to HDFS, the buffer pool restarts empty in the
new container (subsequent accesses re-read — the "reading the input
data again" overhead the paper observes), and execution resumes.
"""

from __future__ import annotations

from repro.chaos import FaultKind
from repro.cluster.resources import ResourceConfig
from repro.compiler import replay
from repro.compiler.memory_estimates import estimate_dag_memory
from repro.compiler.pipeline import recompile_block_plan
from repro.compiler.recompile import make_env_from_states
from repro.compiler import statement_blocks as SB
from repro.compiler.size_propagation import Propagator
from repro.cost import io_model
from repro.obs import get_tracer
from repro.runtime.matrix import MatrixObject


class ResourceAdapter:
    """Implements the interpreter's runtime-adaptation hook."""

    def __init__(self, optimizer, max_migrations=5):
        self.optimizer = optimizer
        self.max_migrations = max_migrations

    def _select_optimizer(self, interp):
        """Hook: pick the optimizer for this re-optimization (the
        utilization-aware subclass substitutes a degraded-cluster view
        when background load is high)."""
        return self.optimizer

    def should_trigger(self, interp, block):
        """Extended trigger hook (paper Section 6): the base adapter
        only reacts to dynamic recompilation; subclasses may trigger on
        other runtime conditions (e.g. cluster utilization shifts)."""
        return False

    # -- hook ----------------------------------------------------------------

    def on_recompile(self, interp, block, frame):
        tracer = get_tracer()
        with tracer.span("adaptation.reoptimize", block=block.block_id):
            self._reoptimize(interp, block, frame, tracer)

    def _reoptimize(self, interp, block, frame, tracer):
        compiled = interp.compiled
        scope = self._reopt_scope(compiled, block)
        if not scope:
            return
        tracer.incr("adaptation.reoptimizations")
        current_cp = interp.resource.cp_heap_mb
        optimizer = self._select_optimizer(interp)
        states = interp._var_states(frame)

        def decide():
            """Refresh the scope with actual runtime characteristics
            and re-optimize it; returns (R*, R*|rc)."""
            # propagate_block makes every DAG it walks private first
            env = make_env_from_states(states)
            propagator = Propagator(
                compiled.block_program, compiled.input_meta
            )
            for scope_block in scope:
                propagator.propagate_block(scope_block, env)
            for scope_block in _generic_blocks(scope):
                # memory re-estimation with actual sizes; blocks whose
                # sizes are now fully known drop their provisional flag
                # so the what-if cost model includes them (and each
                # optimization below starts a plan cache of its own)
                scope_block.requires_recompile = estimate_dag_memory(
                    scope_block.hop_roots
                )
            return (
                optimizer.optimize(compiled, scope_blocks=scope),
                optimizer.optimize(
                    compiled, scope_blocks=scope, fixed_cp_mb=current_cp
                ),
            )

        # two run-replay events (compiler.replay): first the decisions,
        # keyed on all they read from outside the program
        if optimizer.time_budget is not None:
            compiled.replay = None  # ... but never on the wall clock
        compiled.stats.reset()  # as each optimization does
        (global_result, local_result), looked_up = replay.event(
            compiled, "reoptimize",
            lambda: (
                block.block_id, replay.frame_key(states),
                repr(interp.resource), repr(optimizer.cluster),
                repr(optimizer.cost_model.params),
                optimizer.options.decision_signature(), self.max_migrations,
            ),
            (), decide,
        )
        if global_result.resource is None or local_result.resource is None:
            return

        benefit = local_result.cost - global_result.cost  # = -delta C >= 0
        migration_cost = self._migration_cost(interp)
        should_migrate = (
            benefit > migration_cost
            and global_result.resource.cp_heap_mb != current_cp
            and interp.result.migrations < self.max_migrations
        )
        if tracer.enabled:
            # the paper's adaptation decision: migrate iff |ΔC| > C_M
            tracer.event(
                "adaptation.decision",
                block=block.block_id,
                benefit_s=benefit,
                migration_cost_s=migration_cost,
                migrate=should_migrate,
                cp_current_mb=current_cp,
                cp_target_mb=global_result.resource.cp_heap_mb,
            )

        migrated = should_migrate and self._migrate(interp, migration_cost)
        if migrated:
            new_resource = ResourceConfig(
                cp_heap_mb=global_result.resource.cp_heap_mb,
                mr_heap_mb=global_result.resource.mr_heap_mb,
                mr_heap_per_block=dict(
                    global_result.resource.mr_heap_per_block
                ),
            )
        else:
            # stay in the current container (no migration wanted, or the
            # migration attempt failed and rolled back); adopt the
            # locally optimal MR configurations (stateless jobs adapt
            # for free)
            new_resource = ResourceConfig(
                cp_heap_mb=current_cp,
                mr_heap_mb=local_result.resource.mr_heap_mb,
                mr_heap_per_block=dict(
                    local_result.resource.mr_heap_per_block
                ),
            )

        interp.resource = new_resource
        interp.pool.set_capacity(new_resource.cp_budget_bytes)

        def replan():
            if looked_up:
                decide()  # the decisions were looked up, not their sizes
            # regenerate plans program-wide under the new configuration
            # (the original script recompiles to the same plan the
            # optimizer saw)
            for any_block in compiled.last_level_blocks():
                recompile_block_plan(compiled, any_block, new_resource)

        # ... then, the migration having been decided live (it reads
        # dirty state, the migration count, the injector), its outcome
        replay.event(
            compiled, "replan", lambda: (repr(new_resource),),
            replay.holders(compiled), replan,
        )
        compiled.resource = new_resource

    # -- scope ----------------------------------------------------------

    def _reopt_scope(self, compiled, block):
        """Expand from the current block to the outermost enclosing loop
        or top level, through the end of the current call context."""
        for blocks in self._contexts(compiled):
            for idx, top in enumerate(blocks):
                if any(b is block for b in top.all_blocks()):
                    return blocks[idx:]
        return []

    def _contexts(self, compiled):
        yield compiled.blocks
        for func in compiled.functions.values():
            yield func.blocks

    # -- migration ----------------------------------------------------------

    def _migration_cost(self, interp):
        """Live-variable export IO plus container allocation latency."""
        io_cost = 0.0
        for _, value in _live_matrices(interp):
            if value.dirty:
                io_cost += io_model.hdfs_write_time(value.mc, interp.params)
        latency = (
            interp.params.container_alloc_latency
            + interp.params.am_startup_latency
        )
        return io_cost + latency

    def _migrate(self, interp, migration_cost):
        """Write dirty state, move to the new container, restart the
        buffer pool (matrices are re-read on next access).

        Returns True on success.  Under fault injection the new AM
        container may never come up (MIGRATION_FAILURE): the migration
        rolls back — execution keeps running in the old container with
        all live variables and the buffer pool untouched — and only the
        failed attempt's cost (the wasted export IO plus allocation
        latency) is charged.
        """
        injector = getattr(interp, "injector", None)
        if injector is not None:
            fault = injector.fire(
                FaultKind.MIGRATION_FAILURE, site="am_migration"
            )
            if fault is not None:
                interp.charge(migration_cost, "migration_failed")
                injector.record_wasted(migration_cost)
                tracer = get_tracer()
                tracer.incr("adaptation.migration_failures")
                tracer.event(
                    "adaptation.migration_failed",
                    cost_s=migration_cost,
                    migrations_so_far=interp.result.migrations,
                )
                return False

        interp.charge(migration_cost, "migration")
        for name, value in _live_matrices(interp):
            if value.dirty:
                path = interp._scratch_path(f"migrate_{name}")
                interp.hdfs.write_matrix(path, value)
                value.hdfs_path = path
                value.dirty = False
            value.in_memory = False
            value.local_copy = False  # the new container is a new node
        interp.pool.release_all()
        interp.result.migrations += 1
        get_tracer().incr("adaptation.migrations")
        return True


def _live_matrices(interp):
    """``(name, matrix)`` of every frame's live matrices — the process
    moves, not the innermost call — each object once (parameters alias)."""
    seen = set()
    for frame in interp._frames:
        for name, value in frame.items():
            if isinstance(value, MatrixObject) and id(value) not in seen:
                seen.add(id(value))
                yield name, value


def _generic_blocks(blocks):
    for block in blocks:
        for inner in block.all_blocks():
            if isinstance(inner, SB.GenericBlock):
                yield inner
