"""End-to-end compilation pipeline driver.

``compile_program`` runs the full chain: parse -> validate -> statement
blocks -> HOP DAGs -> rewrites -> size propagation -> memory estimates,
and (when a resource configuration is given) operator selection,
piggybacking, and instruction generation for every block.

``compile_plans`` / ``recompile_block_plans`` regenerate only the
resource-dependent phases (operator selection downward); the resource
optimizer calls them thousands of times during grid enumeration, so they
deliberately avoid touching DAG structure or size propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.resources import ResourceConfig
from repro.compiler import hops as H
from repro.compiler import statement_blocks as SB
from repro.compiler.hop_builder import build_hops
from repro.compiler.memory_estimates import estimate_program_memory
from repro.compiler.operator_selection import select_operators
from repro.compiler.rewrites import apply_dynamic_rewrites, apply_static_rewrites
from repro.compiler.runtime_prog import (
    generate_block_plan,
    generate_predicate_plan,
)
from repro.compiler.size_propagation import propagate_sizes
from repro.compiler.statement_blocks import build_program
from repro.dml import parse, validate
from repro.obs import get_tracer

_INF = float("inf")

#: maximum local worker count of a task-parallel (parfor) loop; SystemML
#: bounds local parfor parallelism by the number of cores
PARFOR_MAX_LOCAL_DOP = 8


def parfor_dop(block):
    """Degree of parallelism of a parfor loop: bounded by its trip count
    (when known) and the local worker cap."""
    from repro.compiler.size_propagation import DEFAULT_LOOP_ITERATIONS

    trip = (
        block.known_iterations
        if block.known_iterations is not None
        else DEFAULT_LOOP_ITERATIONS
    )
    return max(1, min(trip, PARFOR_MAX_LOCAL_DOP))


def _assign_parfor_budget_divisors(block_program):
    """Multiply the CP-budget divisor of blocks nested in parfor loops:
    k concurrent workers each hold their own intermediates, so each works
    against budget/k (paper Section 6: "the degree of parallelism
    affects memory requirements ... additional pruning strategies")."""

    def visit(blocks, divisor):
        for block in blocks:
            if isinstance(block, SB.GenericBlock):
                block.budget_divisor = divisor
            elif isinstance(block, SB.IfBlock):
                visit(block.body, divisor)
                visit(block.else_body, divisor)
            elif isinstance(block, SB.WhileBlock):
                visit(block.body, divisor)
            elif isinstance(block, SB.ForBlock):
                inner = divisor * (parfor_dop(block) if block.parallel else 1)
                visit(block.body, inner)

    visit(block_program.blocks, 1)
    for func in block_program.functions.values():
        visit(func.blocks, 1)


@dataclass
class CompileStats:
    """Counters exposed for the optimization-overhead experiments
    (Table 3 reports block recompilations and cost-model invocations)."""

    block_compilations: int = 0

    def reset(self):
        self.block_compilations = 0


@dataclass
class CompiledProgram:
    """A fully compiled program plus its compilation context."""

    block_program: SB.BlockProgram = None
    input_meta: dict = field(default_factory=dict)
    resource: ResourceConfig = None
    stats: CompileStats = field(default_factory=CompileStats)
    #: memoizing :class:`~repro.compiler.plan_cache.PlanCache` attached
    #: by the resource optimizer (None until one runs with caching on);
    #: dynamic recompilation invalidates through this reference
    plan_cache: object = field(default=None, repr=False, compare=False)
    #: every plan is exactly what ``compile_plans(self, self.resource)``
    #: generates (set there and by an optimizer-cache hit, cleared by
    #: whatever replaces a single plan); lets ``Interpreter.run`` skip
    #: its own regeneration
    planned: bool = field(default=False, compare=False)
    #: file paths the program persistently reads, from the freshly
    #: compiled DAGs (not the arguments: an *output* path is one too,
    #: and once written would spuriously invalidate a cache keyed on it)
    reads: frozenset = frozenset()
    #: cursor into the replay tree of the master this is a handout of
    #: (:mod:`repro.compiler.replay`); None: nothing looked up or recorded
    replay: object = field(default=None, repr=False, compare=False)
    #: the optimizer decision of the master this is a handout of, by
    #: key (:class:`~repro.api.OptimizerResultCache`); None: compiled
    #: outside any program cache
    decisions: dict = field(default=None, repr=False, compare=False)

    def handout(self):
        """A per-run shell (:meth:`BlockProgram.shell`) of this program:
        own plans, ``resource``, ``stats`` and ``plan_cache`` over its
        HOP DAGs, which the shell's writers copy first (``own_dag``).
        ``replay`` and ``decisions`` are the master's, by reference."""
        return replace(
            self, block_program=self.block_program.shell(),
            stats=replace(self.stats), plan_cache=None,
        )

    def __getstate__(self):
        # a pickled or deep-copied program is no handout: it leaves the
        # master's decision behind, as it does the replay tree
        return {**self.__dict__, "decisions": None}

    @property
    def blocks(self):
        return self.block_program.blocks

    @property
    def functions(self):
        return self.block_program.functions

    def all_blocks(self, include_functions=True):
        return self.block_program.all_blocks(include_functions)

    def num_blocks(self, include_functions=True):
        return self.block_program.num_blocks(include_functions)

    def last_level_blocks(self, include_functions=True):
        for block in self.all_blocks(include_functions):
            if isinstance(block, SB.GenericBlock):
                yield block


def build_and_analyze(source, script_args=None, input_meta=None):
    """Front half of the pipeline: everything up to memory estimates
    (resource independent)."""
    program_ast = parse(source)
    validate(program_ast, script_args)
    block_program = build_program(program_ast, script_args, source)
    build_hops(block_program)
    # initial propagation fills constants needed by branch removal
    propagate_sizes(block_program, input_meta)
    apply_static_rewrites(block_program)
    propagate_sizes(block_program, input_meta)
    apply_dynamic_rewrites(block_program)
    propagate_sizes(block_program, input_meta)
    estimate_program_memory(block_program)
    _assign_parfor_budget_divisors(block_program)
    return block_program


def compile_plans(compiled, resource):
    """Generate plans for every block under ``resource`` (in place)."""
    compiled.resource = resource
    for holder in plan_holders(compiled):
        if isinstance(holder, SB.GenericBlock):
            recompile_block_plan(compiled, holder, resource)
        else:
            _compile_predicate(holder, resource)
    compiled.planned = True
    return compiled


def _compile_predicate(holder, resource):
    # predicates evaluate in CP: compile with unconstrained CP budget
    SB.own_dag(holder)
    select_operators([holder.hop_root], _INF, _INF)
    holder.plan = generate_predicate_plan(holder, resource)


def recompile_block_plan(compiled, block, resource, cache=None):
    """Re-run the resource-dependent phases for one generic block.

    This is the cheap path used by the resource optimizer's what-if
    enumeration: operator selection -> piggybacking -> instructions.

    With a :class:`~repro.compiler.plan_cache.PlanCache`, budgets that
    stay within a block's memory-estimate bucket return the previously
    generated plan without recompiling (and without counting a block
    compilation — ``stats.block_compilations`` reports real compiles).
    """
    compiled.planned = False
    key = None
    if cache is not None:
        key = cache.key_for(block, resource)
        plan = cache.lookup(key)
        if plan is not None:
            block.plan = plan
            return plan
    SB.own_dag(block)
    select_operators(
        block.hop_roots,
        resource.cp_budget_bytes / block.budget_divisor,
        resource.mr_budget_bytes(block.block_id),
    )
    block.plan = generate_block_plan(block, resource)
    compiled.stats.block_compilations += 1
    get_tracer().incr("compile.block_compilations")
    if key is not None:
        cache.store(key, block.plan)
    return block.plan


def plan_holders(compiled):
    """Yield every object carrying a compiled plan (blocks + predicates)."""
    for block in compiled.all_blocks():
        if isinstance(block, SB.GenericBlock):
            yield block
        else:
            yield from SB.predicate_holders(block)


def compile_program(source, script_args=None, input_meta=None, resource=None):
    """Compile a DML script into a :class:`CompiledProgram`.

    ``input_meta`` maps input file names to
    :class:`~repro.common.MatrixCharacteristics`.  When ``resource`` is
    None, a minimum configuration (512 MB / 512 MB) is used; callers that
    run the resource optimizer re-plan afterwards via
    :func:`compile_plans`.
    """
    block_program = build_and_analyze(source, script_args, input_meta)
    compiled = CompiledProgram(
        block_program=block_program, input_meta=dict(input_meta or {})
    )
    compiled.reads = frozenset(
        hop.fname
        for block in compiled.last_level_blocks()
        for hop in H.iter_dag(block.hop_roots)
        if isinstance(hop, H.DataOp) and hop.fname
        and hop.kind is H.DataOpKind.PERSISTENT_READ
    )
    if resource is None:
        resource = ResourceConfig(cp_heap_mb=512.0, mr_heap_mb=512.0)
    compile_plans(compiled, resource)
    return compiled
