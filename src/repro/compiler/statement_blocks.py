"""Statement-block hierarchy construction.

DML programs compile into a hierarchy of program blocks defined by the
control structure (paper Section 2.1, Appendix B Figure 16(a)): runs of
straight-line statements form *generic* blocks; ``if``/``while``/``for``
statements form structured blocks whose predicates compile into small
DAGs and whose bodies are themselves block lists.

Each block records the variables it *reads* (live on entry) and
*updates* (assigned inside), which drives transient read/write insertion
during HOP construction and the scoping of dynamic recompilation.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace

from repro.dml import ast

_block_ids = itertools.count(1)


@dataclass
class BlockBase:
    """Common fields of all statement blocks."""

    block_id: int = field(default_factory=lambda: next(_block_ids))
    #: variables read before being assigned within this block (transitively
    #: including child blocks)
    read_vars: set = field(default_factory=set)
    #: variables assigned within this block (transitively)
    updated_vars: set = field(default_factory=set)
    line: int = 0

    def all_blocks(self):
        """Yield this block and all nested blocks, pre-order."""
        yield self

    def last_level_blocks(self):
        """Yield only last-level (generic) blocks, the recompilation and
        per-block MR-resource granularity of the paper."""
        for block in self.all_blocks():
            if isinstance(block, GenericBlock):
                yield block


@dataclass
class GenericBlock(BlockBase):
    """A run of straight-line statements; compiles to one HOP DAG."""

    statements: list = field(default_factory=list)
    # filled by the HOP builder:
    hop_roots: list = field(default_factory=list)
    requires_recompile: bool = False
    #: memory-budget divisor from enclosing parfor loops: k concurrent
    #: workers each hold their own intermediates (paper Section 6,
    #: "usually the degree of parallelism affects memory requirements")
    budget_divisor: int = 1
    #: ``hop_roots`` belong to a frozen master (see :func:`own_dag`)
    dag_shared: bool = False


@dataclass
class PredicateHolder:
    """Wraps a predicate expression and its compiled HOP root."""

    expr: object = None
    hop_root: object = None
    read_vars: set = field(default_factory=set)
    #: ``hop_root`` belongs to a frozen master (see :func:`own_dag`)
    dag_shared: bool = False


@dataclass
class IfBlock(BlockBase):
    predicate: PredicateHolder = None
    body: list = field(default_factory=list)
    else_body: list = field(default_factory=list)

    def all_blocks(self):
        yield self
        for child in itertools.chain(self.body, self.else_body):
            yield from child.all_blocks()


@dataclass
class WhileBlock(BlockBase):
    predicate: PredicateHolder = None
    body: list = field(default_factory=list)

    def all_blocks(self):
        yield self
        for child in self.body:
            yield from child.all_blocks()


@dataclass
class ForBlock(BlockBase):
    var: str = ""
    from_holder: PredicateHolder = None
    to_holder: PredicateHolder = None
    incr_holder: PredicateHolder = None
    body: list = field(default_factory=list)
    #: constant trip count when derivable at compile time, else None
    known_iterations: int = None
    #: task-parallel loop (parfor): iterations are independent
    parallel: bool = False

    def all_blocks(self):
        yield self
        for child in self.body:
            yield from child.all_blocks()


@dataclass
class FunctionProgram:
    """A user-defined function: parameter lists plus a block list."""

    name: str = ""
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    blocks: list = field(default_factory=list)

    def all_blocks(self):
        for block in self.blocks:
            yield from block.all_blocks()


@dataclass
class BlockProgram:
    """A full program: top-level blocks plus function programs."""

    blocks: list = field(default_factory=list)
    functions: dict = field(default_factory=dict)
    script_args: dict = field(default_factory=dict)
    source: str = ""

    def all_blocks(self, include_functions=True):
        for block in self.blocks:
            yield from block.all_blocks()
        if include_functions:
            for func in self.functions.values():
                yield from func.all_blocks()

    def num_blocks(self, include_functions=True):
        return sum(1 for _ in self.all_blocks(include_functions))

    def shell(self):
        """A per-run shell of this program: fresh block and holder
        objects (same ``block_id``s) over this program's HOP DAGs.  What
        a run rebinds — plans, ``requires_recompile``, the roots after
        :func:`own_dag` — lands on the shell, never on the original."""
        return replace(
            self,
            blocks=[_shell(block) for block in self.blocks],
            functions={
                name: replace(func, blocks=[_shell(b) for b in func.blocks])
                for name, func in self.functions.items()
            },
        )


def _shell(node):
    shell = copy.copy(node)  # keeps the generated ``plan``
    if isinstance(node, (GenericBlock, PredicateHolder)):
        shell.dag_shared = True
        return shell
    for name, value in vars(node).items():
        if isinstance(value, PredicateHolder):
            setattr(shell, name, _shell(value))
        elif name in ("body", "else_body"):
            setattr(shell, name, [_shell(child) for child in value])
    return shell


def predicate_holders(block):
    """The predicate holders of a structured block, in field order."""
    return [v for v in vars(block).values() if isinstance(v, PredicateHolder)]


def own_dag(holder):
    """Make ``holder``'s HOP DAG private to this run: the only place a
    DAG is ever copied.

    **Who may write a DAG.**  A program-cache handout shares its DAGs
    with a frozen master and every concurrent run of it, so whoever
    writes a hop field calls this on the owning block or predicate
    holder first.  A DAG a run-replay node keeps is shared likewise:
    recording an event marks what it wrote ``dag_shared`` again.  Three
    writers exist: operator selection
    (``recompile_block_plan``, ``_compile_predicate``), dynamic
    recompilation (``recompile_block``, ``recompile_predicate``) and
    size propagation's block walk (``Propagator.propagate_block``: the
    adapter's scope refresh, and function bodies reached from either).
    Everything else only reads.  Hops link only through ``inputs`` and
    name functions by string, so a holder's DAG is self-contained.
    """
    if holder.dag_shared:
        attr = "hop_roots" if isinstance(holder, GenericBlock) else "hop_root"
        setattr(holder, attr, copy.deepcopy(getattr(holder, attr)))
        holder.dag_shared = False


# -- variable read/update analysis -------------------------------------------


def _expr_reads(expr, reads, assigned):
    """Add variables read by ``expr`` (not yet assigned locally) to ``reads``."""
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.Identifier) and node.name not in assigned:
            reads.add(node.name)


def _analyze_statements(statements, reads, assigned):
    """Flow-sensitive read/update analysis over a statement list.

    ``reads`` collects variables read before assignment; ``assigned``
    collects assigned names.  Control-flow bodies are analyzed with a copy
    of ``assigned`` because assignments inside a branch/loop may not
    execute — reads after the construct of such variables remain
    conservative reads of the outer value.
    """
    for stmt in statements:
        if isinstance(stmt, ast.Assignment):
            _expr_reads(stmt.expr, reads, assigned)
            if stmt.is_left_indexing:
                # left indexing reads the current value of the target
                if stmt.target not in assigned:
                    reads.add(stmt.target)
                for rng in (stmt.row_range, stmt.col_range):
                    if rng is not None:
                        _expr_reads(rng.lower, reads, assigned)
                        _expr_reads(rng.upper, reads, assigned)
            assigned.add(stmt.target)
        elif isinstance(stmt, ast.MultiAssignment):
            _expr_reads(stmt.call, reads, assigned)
            assigned.update(stmt.targets)
        elif isinstance(stmt, ast.ExprStatement):
            _expr_reads(stmt.expr, reads, assigned)
        elif isinstance(stmt, ast.IfStatement):
            _expr_reads(stmt.predicate, reads, assigned)
            then_assigned = set(assigned)
            _analyze_statements(stmt.body, reads, then_assigned)
            else_assigned = set(assigned)
            _analyze_statements(stmt.else_body, reads, else_assigned)
            # conservatively treat possibly-assigned names as assigned; a
            # later read still registers as a block read via child analysis
            assigned.update(then_assigned | else_assigned)
        elif isinstance(stmt, ast.WhileStatement):
            _expr_reads(stmt.predicate, reads, assigned)
            body_assigned = set(assigned)
            # loop body may read its own updates from a prior iteration;
            # analyze with fresh "assigned" view to catch first-iteration reads
            _analyze_statements(stmt.body, reads, body_assigned)
            assigned.update(body_assigned)
        elif isinstance(stmt, ast.ForStatement):
            _expr_reads(stmt.from_expr, reads, assigned)
            _expr_reads(stmt.to_expr, reads, assigned)
            if stmt.increment is not None:
                _expr_reads(stmt.increment, reads, assigned)
            body_assigned = set(assigned) | {stmt.var}
            _analyze_statements(stmt.body, reads, body_assigned)
            assigned.update(body_assigned - {stmt.var})


def _analyze_block(block):
    """Fill read/updated var sets for ``block`` (recursively)."""
    reads = set()
    assigned = set()
    if isinstance(block, GenericBlock):
        _analyze_statements(block.statements, reads, assigned)
    elif isinstance(block, IfBlock):
        _expr_reads(block.predicate.expr, reads, assigned)
        block.predicate.read_vars = set(reads)
        for child in itertools.chain(block.body, block.else_body):
            _analyze_block(child)
            reads.update(child.read_vars - assigned)
            assigned.update(child.updated_vars)
    elif isinstance(block, WhileBlock):
        _expr_reads(block.predicate.expr, reads, assigned)
        block.predicate.read_vars = set(reads)
        for child in block.body:
            _analyze_block(child)
            reads.update(child.read_vars - assigned)
            assigned.update(child.updated_vars)
        # loop-carried: anything updated in the loop and read anywhere in
        # the loop (or its predicate) is also a read of the block
        again = set()
        for child in block.body:
            again.update(child.read_vars)
        again.update(block.predicate.read_vars)
        reads.update(again & assigned)
    elif isinstance(block, ForBlock):
        for holder in (block.from_holder, block.to_holder, block.incr_holder):
            if holder is not None:
                _expr_reads(holder.expr, reads, assigned)
                holder.read_vars = set(reads)
        assigned.add(block.var)
        for child in block.body:
            _analyze_block(child)
            reads.update(child.read_vars - assigned)
            assigned.update(child.updated_vars)
        again = set()
        for child in block.body:
            again.update(child.read_vars)
        reads.update(again & assigned)
        assigned.discard(block.var)
    block.read_vars = reads
    block.updated_vars = assigned


# -- construction ------------------------------------------------------------


def _build_blocks(statements):
    """Split a statement list into a list of statement blocks."""
    blocks = []
    pending = []

    def flush():
        if pending:
            blocks.append(
                GenericBlock(statements=list(pending), line=pending[0].line)
            )
            pending.clear()

    for stmt in statements:
        if isinstance(stmt, ast.IfStatement):
            flush()
            blocks.append(
                IfBlock(
                    predicate=PredicateHolder(expr=stmt.predicate),
                    body=_build_blocks(stmt.body),
                    else_body=_build_blocks(stmt.else_body),
                    line=stmt.line,
                )
            )
        elif isinstance(stmt, ast.WhileStatement):
            flush()
            blocks.append(
                WhileBlock(
                    predicate=PredicateHolder(expr=stmt.predicate),
                    body=_build_blocks(stmt.body),
                    line=stmt.line,
                )
            )
        elif isinstance(stmt, ast.ForStatement):
            flush()
            blocks.append(
                ForBlock(
                    var=stmt.var,
                    from_holder=PredicateHolder(expr=stmt.from_expr),
                    to_holder=PredicateHolder(expr=stmt.to_expr),
                    incr_holder=(
                        PredicateHolder(expr=stmt.increment)
                        if stmt.increment is not None
                        else None
                    ),
                    body=_build_blocks(stmt.body),
                    parallel=stmt.parallel,
                    line=stmt.line,
                )
            )
        else:
            pending.append(stmt)
    flush()
    return blocks


def build_program(program, script_args=None, source=""):
    """Build a :class:`BlockProgram` from a parsed :class:`ast.Program`."""
    block_program = BlockProgram(
        blocks=_build_blocks(program.statements),
        script_args=dict(script_args or {}),
        source=source,
    )
    for name, func in program.functions.items():
        block_program.functions[name] = FunctionProgram(
            name=name,
            inputs=func.inputs,
            outputs=func.outputs,
            blocks=_build_blocks(func.body),
        )
    for block in block_program.blocks:
        _analyze_block(block)
    for func in block_program.functions.values():
        for block in func.blocks:
            _analyze_block(block)
    return block_program
