"""Dynamic recompilation of individual program blocks.

Used by the runtime when a block was marked ``requires_recompile``
(unknown intermediate sizes at initial compile time): the symbol table's
*actual* matrix characteristics are seeded into the block's transient
reads, sizes are re-propagated, dynamic rewrites re-applied, memory
re-estimated, and the plan regenerated (paper Section 2.1 and
Appendix B, "Runtime-Level").
"""

from __future__ import annotations

from repro.compiler import statement_blocks as SB
from repro.compiler.memory_estimates import estimate_dag_memory
from repro.compiler.pipeline import recompile_block_plan
from repro.compiler.rewrites import (
    apply_dynamic_simplifications,
    eliminate_common_subexpressions,
)
from repro.compiler.size_propagation import Env, Propagator, VarState


def make_env_from_states(var_states):
    """Build a propagation :class:`Env` from runtime variable knowledge.

    ``var_states`` maps variable name -> (data_type, MatrixCharacteristics,
    scalar_const_or_None).
    """
    env = Env()
    for name, (dtype, mc, const) in var_states.items():
        env.set(name, VarState(dtype, mc.copy(), const))
    return env


def recompile_block(compiled, block, resource, env):
    """Dynamically recompile one generic block with runtime knowledge.

    Returns the regenerated :class:`BlockPlan`.
    """
    assert isinstance(block, SB.GenericBlock)
    # runtime size knowledge changes memory estimates, which moves the
    # plan cache's budget thresholds: drop the block's cached plans (and
    # thresholds) before re-deriving them from the refreshed DAG
    cache = getattr(compiled, "plan_cache", None)
    if cache is not None:
        cache.invalidate_block(block.block_id)
    SB.own_dag(block)
    propagator = Propagator(compiled.block_program, compiled.input_meta)
    propagator.propagate_dag(block.hop_roots, env, update_env=False)
    block.hop_roots = apply_dynamic_simplifications(block.hop_roots)
    block.hop_roots = eliminate_common_subexpressions(block.hop_roots)
    propagator.propagate_dag(block.hop_roots, env, update_env=False)
    estimate_dag_memory(block.hop_roots)
    return recompile_block_plan(compiled, block, resource, cache=cache)


def recompile_predicate(compiled, holder, resource, env):
    """Re-propagate and re-plan a predicate DAG with runtime knowledge."""
    from repro.compiler.pipeline import _compile_predicate

    SB.own_dag(holder)
    compiled.planned = False
    propagator = Propagator(compiled.block_program, compiled.input_meta)
    propagator.propagate_dag([holder.hop_root], env, update_env=False)
    estimate_dag_memory([holder.hop_root])
    _compile_predicate(holder, resource)
    return holder.plan
