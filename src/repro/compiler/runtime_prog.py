"""Executable runtime-program generation (instructions).

Lowers an annotated HOP DAG (after operator selection and piggybacking)
into a :class:`BlockPlan`: an ordered list of CP instructions and MR job
instructions.  Instructions reference symbol-table variables by name;
each operator output gets a temporary name ``_mVar<hop_id>`` and
transient writes bind temporaries to logical variable names.

MR job instructions embed their member operators as :class:`MRStep`
entries (semantic opcode + physical method + phase) so that

* the cost model can price map/shuffle/reduce phases from the step
  characteristics snapshots, and
* the runtime can execute the same semantic kernels on sample data while
  charging distributed-execution time.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common import DataType, ExecType, MatrixCharacteristics
from repro.compiler import hops as H
from repro.compiler.lops import Phase, method_spec
from repro.compiler.piggybacking import (
    _broadcast_input_hops,
    _effective_inputs,
    pack_jobs,
)
from repro.errors import CompilerError

# -- operands and instructions -----------------------------------------------


class Operand(NamedTuple):
    """An instruction operand: a variable reference or an inline literal,
    a ``(name, literal)`` pair the interpreter unpacks."""

    name: str = None
    literal: object = None

    @property
    def is_literal(self):
        return self.name is None

    def __str__(self):
        return self.name if self.name is not None else f"lit({self.literal!r})"


@dataclass
class CPInstruction:
    opcode: str
    inputs: list = field(default_factory=list)
    output: str = None
    attrs: dict = field(default_factory=dict)
    hop_id: int = 0
    out_mc: MatrixCharacteristics = field(
        default_factory=MatrixCharacteristics.unknown
    )
    in_mcs: list = field(default_factory=list)
    out_is_matrix: bool = False

    def __post_init__(self):
        #: what this instruction runs through, bound at construction
        self.bound = _bind(self.opcode)

    def __str__(self):
        ins = ", ".join(str(op) for op in self.inputs)
        return f"CP {self.opcode} [{ins}] -> {self.output}"


@dataclass
class MRStep:
    opcode: str
    method: str
    phase: Phase
    inputs: list = field(default_factory=list)
    output: str = None
    attrs: dict = field(default_factory=dict)
    hop_id: int = 0
    out_mc: MatrixCharacteristics = field(
        default_factory=MatrixCharacteristics.unknown
    )
    in_mcs: list = field(default_factory=list)
    broadcast_names: list = field(default_factory=list)


@dataclass
class MRJobInstruction:
    job_type: object = None  # lops.JobType
    steps: list = field(default_factory=list)
    input_vars: list = field(default_factory=list)
    broadcast_vars: list = field(default_factory=list)
    output_vars: list = field(default_factory=list)
    extra_job_latency: int = 0
    block_id: int = 0

    def __post_init__(self):
        self.bound = _bind("mr_job")

    def __str__(self):
        ops = "+".join(step.method for step in self.steps)
        return (
            f"MR-{self.job_type.value} [{ops}] in={self.input_vars} "
            f"out={self.output_vars}"
        )


#: monotonically increasing ids stamped on every generated plan; two
#: plans share a signature iff they are the same generation (the plan
#: cache returns one object for a whole budget bucket), which lets the
#: cost model memoize per-plan costs without structural hashing.  No
#: plan crosses a process (shard results ship without their compiled
#: program); the pid seed is cheap insurance that one generated in
#: another process could never collide with a local one
_plan_signatures = itertools.count(os.getpid() << 40)


@dataclass
class BlockPlan:
    """Compiled plan of one generic block under a resource configuration."""

    instructions: list = field(default_factory=list)
    num_mr_jobs: int = 0
    #: structural identity for plan-signature memoization (see above)
    signature: int = field(default_factory=lambda: next(_plan_signatures))

    def __post_init__(self):
        #: the temporaries this plan writes, dropped after it ran
        self.kill = kill_set(self.instructions)

    def mr_jobs(self):
        return [ins for ins in self.instructions if isinstance(ins, MRJobInstruction)]


@dataclass
class PredicatePlan:
    instructions: list = field(default_factory=list)
    result: Operand = None
    signature: int = field(default_factory=lambda: next(_plan_signatures))

    def __post_init__(self):
        self.kill = kill_set(self.instructions)


def kill_set(instructions):
    """The ``_mVar`` temporaries ``instructions`` write (CP, ``fcall``
    and MR step outputs); the interpreter drops them after the plan ran
    (rmvar)."""
    names = []
    for ins in instructions:
        if isinstance(ins, MRJobInstruction):
            names += [step.output for step in ins.steps]
        else:
            names += [ins.output, *ins.attrs.get("outputs", ())]
    return tuple(dict.fromkeys(
        name for name in names if name and name.startswith("_mVar")))


def _bind(opcode):
    from repro.runtime.interpreter import bind  # it imports this module

    return bind(opcode)


# -- opcode mapping ------------------------------------------------------

_AGG_SUFFIX = {
    H.OpCode.SUM: "+",
    H.OpCode.MEAN: "mean",
    H.OpCode.MIN: "min",
    H.OpCode.MAX: "max",
    H.OpCode.TRACE: "trace",
    H.OpCode.ROWINDEXMAX: "imax",
}

_AGG_PREFIX = {
    H.AggDirection.ALL: "ua",
    H.AggDirection.ROW: "uar",
    H.AggDirection.COL: "uac",
}


def semantic_opcode(hop):
    """Canonical semantic opcode string for an executable hop."""
    if isinstance(hop, H.UnaryOp):
        return hop.op.value
    if isinstance(hop, H.BinaryOp):
        return hop.op.value
    if isinstance(hop, H.AggUnaryOp):
        return _AGG_PREFIX[hop.direction] + _AGG_SUFFIX[hop.op]
    if isinstance(hop, H.AggBinaryOp):
        return "ba+*"
    if isinstance(hop, H.TernaryAggOp):
        return "tak+*"
    if isinstance(hop, H.ReorgOp):
        return "r'" if hop.op is H.OpCode.TRANSPOSE else "rdiag"
    if isinstance(hop, H.DataGenOp):
        return "seq" if hop.gen_method is H.OpCode.SEQ else "rand"
    if isinstance(hop, H.TernaryOp):
        return "ctable"
    if isinstance(hop, H.IndexingOp):
        return "rix"
    if isinstance(hop, H.LeftIndexingOp):
        return "lix"
    raise CompilerError(f"no opcode for {type(hop).__name__}")


def _temp_name(hop):
    return f"_mVar{hop.hop_id}"


def _hop_attrs(hop):
    attrs = {}
    if isinstance(hop, H.UnaryOp) and hop.op is H.OpCode.REMOVE_EMPTY:
        attrs["margin"] = getattr(hop, "margin", "rows")
    if isinstance(hop, H.DataGenOp):
        attrs["params"] = list(hop.params.keys())
        attrs["gen"] = hop.gen_method.value
        attrs["builtin"] = hop.builtin
    elif isinstance(hop, (H.IndexingOp, H.LeftIndexingOp)):
        attrs["all_rows"] = hop.all_rows
        attrs["all_cols"] = hop.all_cols
    elif isinstance(hop, H.AggBinaryOp) and hop.transpose_rewrite:
        attrs["transpose_left"] = True
    return attrs


class _PlanGenerator:
    """Generates the instruction list of one DAG."""

    def __init__(self, roots, cp_budget, mr_budget, block_id=0):
        self.roots = [r for r in roots if r is not None]
        self.cp_budget = cp_budget
        self.mr_budget = mr_budget
        self.block_id = block_id
        self.parents = H.build_parent_map(self.roots)

    # -- operand handling --------------------------------------------------

    def operand(self, hop):
        if isinstance(hop, H.LiteralOp):
            return Operand(literal=hop.value)
        if isinstance(hop, H.DataOp) and hop.kind is H.DataOpKind.TRANSIENT_READ:
            return Operand(name=hop.name)
        if isinstance(hop, H.FunctionOutput):
            return Operand(name=f"_mVar{hop.inputs[0].hop_id}_{hop.index}")
        return Operand(name=_temp_name(hop))

    # -- emission ----------------------------------------------------------

    def generate(self):
        jobs, skipped = pack_jobs(self.roots, self.mr_budget)
        job_of = {}
        for job in jobs:
            for member in job.members:
                job_of[member.hop_id] = job

        units = []  # emission units: ("cp", hop) or ("job", job)
        unit_of_hop = {}
        emitted_jobs = set()
        for hop in H.iter_dag(self.roots):
            if hop.hop_id in skipped:
                continue
            if isinstance(hop, H.LiteralOp):
                continue
            if (
                isinstance(hop, H.DataOp)
                and hop.kind is H.DataOpKind.TRANSIENT_READ
            ):
                continue
            if isinstance(hop, H.FunctionOutput):
                continue
            job = job_of.get(hop.hop_id)
            if job is not None:
                if id(job) not in emitted_jobs:
                    emitted_jobs.add(id(job))
                    units.append(("job", job))
                unit_of_hop[hop.hop_id] = job
            else:
                units.append(("cp", hop))
                unit_of_hop[hop.hop_id] = hop

        # order units by dependencies (Kahn over unit graph)
        ordered = self._order_units(units, unit_of_hop, skipped)
        instructions = []
        for kind, payload in ordered:
            if kind == "cp":
                instr = self._emit_cp(payload)
                if instr is not None:
                    instructions.append(instr)
            else:
                instructions.append(self._emit_job(payload, unit_of_hop, skipped))
        return instructions

    def _order_units(self, units, unit_of_hop, skipped):
        index = {id(payload): i for i, (kind, payload) in enumerate(units)}
        deps = {i: set() for i in range(len(units))}
        for i, (kind, payload) in enumerate(units):
            hops = payload.members if kind == "job" else [payload]
            for hop in hops:
                for inp in self._dependency_inputs(hop, skipped):
                    producer = self._producer_unit(inp, unit_of_hop, skipped)
                    if producer is None or id(producer) not in index:
                        continue
                    j = index[id(producer)]
                    if j != i:
                        deps[i].add(j)
        done = set()
        ordered = []
        # stable Kahn: repeatedly take the first unit with satisfied deps
        pending = list(range(len(units)))
        while pending:
            progress = False
            for i in list(pending):
                if deps[i] <= done:
                    ordered.append(units[i])
                    done.add(i)
                    pending.remove(i)
                    progress = True
            if not progress:
                raise CompilerError("cyclic dependency between plan units")
        return ordered

    def _dependency_inputs(self, hop, skipped):
        """All hops whose values this (possibly fused) hop consumes."""
        inputs = _effective_inputs(hop)
        # indexing bounds etc. are in raw inputs already
        raw = [inp for inp in hop.inputs if inp not in inputs]
        return inputs + raw

    def _producer_unit(self, hop, unit_of_hop, skipped):
        while hop.hop_id in skipped:
            # folded hops delegate to their data producer (scan target)
            hop = hop.inputs[0]
        if isinstance(hop, H.FunctionOutput):
            hop = hop.inputs[0]
        return unit_of_hop.get(hop.hop_id)

    # -- CP instruction emission ---------------------------------------------

    def _emit_cp(self, hop):
        if isinstance(hop, H.DataOp):
            return self._emit_dataop(hop)
        if isinstance(hop, H.FunctionOp):
            outputs = [f"_mVar{hop.hop_id}_{i}" for i in range(len(hop.output_names))]
            return CPInstruction(
                opcode="fcall",
                inputs=[self.operand(inp) for inp in hop.inputs],
                output=None,
                attrs={"func": hop.func_name, "outputs": outputs},
                hop_id=hop.hop_id,
                out_mc=hop.mc.copy(),
                in_mcs=[inp.mc.copy() for inp in hop.inputs],
            )
        if isinstance(hop, H.UnaryOp) and hop.op in (H.OpCode.PRINT, H.OpCode.STOP):
            return CPInstruction(
                opcode=hop.op.value,
                inputs=[self.operand(hop.inputs[0])],
                output=None,
                hop_id=hop.hop_id,
                in_mcs=[hop.inputs[0].mc.copy()],
            )
        opcode = semantic_opcode(hop)
        inputs = _effective_inputs(hop)
        attrs = _hop_attrs(hop)
        if isinstance(hop, H.AggBinaryOp) and hop.method == "tsmm":
            opcode = "tsmm"
        elif isinstance(hop, H.AggBinaryOp) and hop.method == "mapmmchain":
            opcode = "mapmmchain"
            attrs["chain"] = "XtwXv" if len(inputs) == 3 else "XtXv"
        return CPInstruction(
            opcode=opcode,
            inputs=[self.operand(inp) for inp in inputs],
            output=_temp_name(hop),
            attrs=attrs,
            hop_id=hop.hop_id,
            out_mc=hop.mc.copy(),
            in_mcs=[inp.mc.copy() for inp in inputs],
            out_is_matrix=hop.is_matrix,
        )

    def _emit_dataop(self, hop):
        if hop.kind is H.DataOpKind.PERSISTENT_READ:
            return CPInstruction(
                opcode="createvar",
                inputs=[],
                output=_temp_name(hop),
                attrs={"fname": hop.fname, "format": hop.fmt},
                hop_id=hop.hop_id,
                out_mc=hop.mc.copy(),
                out_is_matrix=hop.is_matrix,
            )
        if hop.kind is H.DataOpKind.TRANSIENT_WRITE:
            src = self.operand(hop.inputs[0])
            if src.name == hop.name:
                return None  # writing a variable back to itself
            return CPInstruction(
                opcode="mvvar",
                inputs=[src],
                output=hop.name,
                hop_id=hop.hop_id,
                out_mc=hop.mc.copy(),
                in_mcs=[hop.mc.copy()],
                out_is_matrix=hop.is_matrix,
            )
        if hop.kind is H.DataOpKind.PERSISTENT_WRITE:
            return CPInstruction(
                opcode="write",
                inputs=[self.operand(hop.inputs[0])],
                output=None,
                attrs={"fname": hop.fname, "format": hop.fmt},
                hop_id=hop.hop_id,
                out_mc=hop.mc.copy(),
                in_mcs=[hop.inputs[0].mc.copy()],
            )
        raise CompilerError(f"unexpected data op {hop.kind}")

    # -- MR job emission -------------------------------------------------

    def _emit_job(self, job, unit_of_hop, skipped):
        members = set(hop.hop_id for hop in job.members)
        steps = []
        input_vars = []
        broadcast_vars = []
        output_vars = []
        for hop in job.members:
            inputs = _effective_inputs(hop)
            broadcasts = _broadcast_input_hops(hop)
            broadcast_ids = {b.hop_id for b in broadcasts}
            operands = []
            in_mcs = []
            bc_names = []
            for inp in inputs:
                op = self.operand(inp)
                operands.append(op)
                in_mcs.append(inp.mc.copy())
                if op.name is None:
                    continue
                if inp.hop_id in members:
                    continue  # in-job temp, flows through the pipeline
                if inp.hop_id in broadcast_ids:
                    bc_names.append(op.name)
                    if op.name not in broadcast_vars:
                        broadcast_vars.append(op.name)
                elif inp.is_matrix:
                    if op.name not in input_vars:
                        input_vars.append(op.name)
            # extra scalar operands (indexing bounds) ride in the job
            # conf; folded matrix hops (fused transposes/chains) do not
            raw_extras = [
                i for i in hop.inputs if i not in inputs and i.is_scalar
            ]
            for extra in raw_extras:
                operands.append(self.operand(extra))
                in_mcs.append(extra.mc.copy())
            opcode = semantic_opcode(hop)
            attrs = _hop_attrs(hop)
            if hop.method == "mapmmchain":
                opcode = "mapmmchain"
                attrs["chain"] = "XtwXv" if len(inputs) == 3 else "XtXv"
            elif hop.method == "tsmm":
                opcode = "tsmm"
            steps.append(
                MRStep(
                    opcode=opcode,
                    method=hop.method,
                    phase=job.phase_of(hop),
                    inputs=operands,
                    output=_temp_name(hop),
                    attrs=attrs,
                    hop_id=hop.hop_id,
                    out_mc=hop.mc.copy(),
                    in_mcs=in_mcs,
                    broadcast_names=bc_names,
                )
            )
            # outputs consumed outside the job are materialized on HDFS
            consumers = self.parents.get(hop.hop_id, [])
            external = [
                c
                for c in consumers
                if c.hop_id not in members and c.hop_id not in skipped
            ]
            # folded consumers delegate to their fused root
            for c in consumers:
                if c.hop_id in skipped:
                    external.append(c)  # conservatively materialize
            if external or not consumers:
                output_vars.append(_temp_name(hop))
        return MRJobInstruction(
            job_type=job.job_type,
            steps=steps,
            input_vars=input_vars,
            broadcast_vars=broadcast_vars,
            output_vars=output_vars,
            extra_job_latency=job.extra_job_latency,
            block_id=self.block_id,
        )


def generate_block_plan(block, resource, cluster=None):
    """Generate the :class:`BlockPlan` of a generic block (operator
    selection must already have run for this resource configuration)."""
    gen = _PlanGenerator(
        block.hop_roots,
        resource.cp_budget_bytes,
        resource.mr_budget_bytes(block.block_id),
        block_id=block.block_id,
    )
    instructions = gen.generate()
    return BlockPlan(
        instructions=instructions,
        num_mr_jobs=sum(
            1 for ins in instructions if isinstance(ins, MRJobInstruction)
        ),
    )


def generate_predicate_plan(holder, resource):
    """Generate CP instructions evaluating a predicate DAG."""
    root = holder.hop_root
    gen = _PlanGenerator([root], resource.cp_budget_bytes, float("inf"))
    instructions = gen.generate()
    # all predicate work runs in CP: downgrade any job to CP instructions
    flat = []
    for ins in instructions:
        if isinstance(ins, MRJobInstruction):
            for step in ins.steps:
                flat.append(
                    CPInstruction(
                        opcode=step.opcode,
                        inputs=step.inputs,
                        output=step.output,
                        attrs=step.attrs,
                        hop_id=step.hop_id,
                        out_mc=step.out_mc,
                        out_is_matrix=True,
                    )
                )
        else:
            flat.append(ins)
    return PredicatePlan(instructions=flat, result=gen.operand(root))
