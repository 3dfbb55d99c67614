"""Intra- and inter-procedural size, sparsity, and scalar-constant
propagation over HOP DAGs.

The propagator walks the block hierarchy in program order, maintaining an
environment mapping each variable to a :class:`VarState` (matrix
characteristics + scalar constant, when compile-time known).  Per-operator
output rules mirror SystemML's:

* loops are handled with the *reset rule*: variables whose characteristics
  change across one trial pass of the body are reset to unknown before the
  final pass, so in-loop knowledge is a fixpoint;
* branches merge environments, keeping only facts valid on both paths;
* ``table()`` (ctable) output dimensions are unknown at compile time —
  the paper's canonical source of unknowns driving runtime adaptation;
* scalar constants fold through arithmetic, enabling branch removal and
  data-generator size inference (``matrix(0, rows=n, cols=1)``).

The same propagator is reused by dynamic recompilation: the runtime seeds
the environment with *actual* characteristics from the symbol table and
re-propagates a single block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common import (
    SCALAR_FAILURES,
    SCALAR_UNARY,
    DataType,
    MatrixCharacteristics,
    binary_nnz_estimate,
    mult_nnz_estimate,
    scalar_binary,
    seq_length,
)
from repro.compiler import hops as H
from repro.compiler import statement_blocks as SB
from repro.errors import CompilerError

#: default loop trip count assumed when unknown (paper Section 3.1: "a
#: constant which at least reflects that the body is executed multiple
#: times")
DEFAULT_LOOP_ITERATIONS = 10


@dataclass
class VarState:
    """Propagated knowledge about one variable."""

    data_type: DataType = DataType.MATRIX
    mc: MatrixCharacteristics = field(default_factory=MatrixCharacteristics.unknown)
    const: object = None  # scalar compile-time constant, None if unknown

    def copy(self):
        return VarState(self.data_type, self.mc.copy(), self.const)

    def equivalent(self, other):
        return (
            self.data_type is other.data_type
            and self.mc.rows == other.mc.rows
            and self.mc.cols == other.mc.cols
            and self.mc.nnz == other.mc.nnz
            and self.const == other.const
        )


class Env:
    """Variable environment for propagation."""

    def __init__(self, vars=None):
        self.vars = dict(vars or {})

    def get(self, name):
        return self.vars.get(name)

    def set(self, name, state):
        self.vars[name] = state

    def copy(self):
        return Env({k: v.copy() for k, v in self.vars.items()})

    def merge_with(self, other):
        """Keep only facts that hold in both environments (branch join)."""
        merged = {}
        for name, state in self.vars.items():
            other_state = other.vars.get(name)
            if other_state is None:
                # defined on one path only: keep but drop value knowledge
                merged[name] = VarState(
                    state.data_type, MatrixCharacteristics.unknown(), None
                )
                continue
            mc = MatrixCharacteristics(
                state.mc.rows if state.mc.rows == other_state.mc.rows else None,
                state.mc.cols if state.mc.cols == other_state.mc.cols else None,
                state.mc.nnz if state.mc.nnz == other_state.mc.nnz else None,
            )
            const = state.const if state.const == other_state.const else None
            merged[name] = VarState(state.data_type, mc, const)
        for name, state in other.vars.items():
            if name not in self.vars:
                merged[name] = VarState(
                    state.data_type, MatrixCharacteristics.unknown(), None
                )
        return Env(merged)

    def reset_changed(self, trial):
        """Loop reset rule: drop facts that changed in a trial body pass."""
        for name, state in self.vars.items():
            after = trial.vars.get(name)
            if after is None:
                continue
            if state.mc.rows != after.mc.rows:
                state.mc.rows = None
            if state.mc.cols != after.mc.cols:
                state.mc.cols = None
            if state.mc.nnz != after.mc.nnz:
                state.mc.nnz = None
            if state.const != after.const:
                state.const = None
        # variables first defined inside the loop: unknown at loop entry
        for name, after in trial.vars.items():
            if name not in self.vars:
                self.vars[name] = VarState(
                    after.data_type, MatrixCharacteristics.unknown(), None
                )


# -- scalar constant folding ---------------------------------------------


def fold_scalar(op, *args):
    """The value the runtime computes for scalar operator ``op`` on the
    constants ``args``, or None where it has none (the run would fail)."""
    try:
        if len(args) == 2:
            return scalar_binary(op.value, *args)
        return SCALAR_UNARY[op.value](*args)
    except (LookupError, *SCALAR_FAILURES):
        return None


def _as_int(value):
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


# -- per-operator output rules -----------------------------------------------


def _matrix_scalar_nnz(op, matrix_mc, scalar_const, scalar_on_left):
    """Output nnz for a matrix-scalar elementwise operation."""
    cells = matrix_mc.cells
    if cells is None:
        return None
    nnz = matrix_mc.nnz
    if op is H.OpCode.MULT:
        return nnz
    if op is H.OpCode.AND:
        return nnz
    if op is H.OpCode.DIV and not scalar_on_left:
        return nnz
    if scalar_const is None:
        return cells
    if op in (H.OpCode.PLUS, H.OpCode.MINUS, H.OpCode.OR):
        return nnz if scalar_const == 0 else cells
    if op is H.OpCode.POW:
        try:
            preserves = scalar_const > 0 and not scalar_on_left
        except TypeError:
            preserves = False
        return nnz if preserves else cells
    if op in (H.OpCode.GT, H.OpCode.LT, H.OpCode.NEQ):
        # comparisons against 0 keep the zero pattern (0>0 etc. is 0)
        return nnz if scalar_const == 0 else cells
    if op is H.OpCode.MIN and not scalar_on_left:
        try:
            return nnz if scalar_const >= 0 else cells
        except TypeError:
            return cells
    if op is H.OpCode.MAX and not scalar_on_left:
        try:
            return nnz if scalar_const <= 0 else cells
        except TypeError:
            return cells
    return cells


def _combine_broadcast_dim(a, b):
    """One output dimension of a broadcasting elementwise operation.

    With both sides known the output is the larger (vectors broadcast).
    With one side unknown: a known side > 1 pins the output (valid DML
    requires equal dims or a broadcast vector), while a known side of 1
    leaves it unknown (the other side may be any width).
    """
    if a is not None and b is not None:
        return max(a, b)
    known = a if a is not None else b
    if known is None or known <= 1:
        return None
    return known


def _broadcast_dims(left, right):
    """Output dims for elementwise matrix-matrix ops with vector
    broadcasting (column vector across columns, row vector across rows)."""
    return (
        _combine_broadcast_dim(left.rows, right.rows),
        _combine_broadcast_dim(left.cols, right.cols),
    )


class Propagator:
    """Size/constant propagation over a :class:`SB.BlockProgram`."""

    def __init__(self, block_program, input_meta=None):
        self.program = block_program
        #: filename -> MatrixCharacteristics for persistent reads
        self.input_meta = dict(input_meta or {})
        self._active_functions = set()

    # -- program walk ----------------------------------------------------

    def run(self):
        env = Env()
        self.propagate_blocks(self.program.blocks, env)
        return env

    def propagate_blocks(self, blocks, env):
        for block in blocks:
            self.propagate_block(block, env)

    def propagate_block(self, block, env):
        # sizes are written into every DAG walked; at runtime (adapter
        # scope refresh, function bodies) it may still be a master's
        if isinstance(block, SB.GenericBlock):
            SB.own_dag(block)
            self.propagate_dag(block.hop_roots, env, update_env=True)
        elif isinstance(block, SB.IfBlock):
            SB.own_dag(block.predicate)
            self.propagate_dag([block.predicate.hop_root], env, update_env=False)
            then_env = env.copy()
            self.propagate_blocks(block.body, then_env)
            else_env = env.copy()
            self.propagate_blocks(block.else_body, else_env)
            merged = then_env.merge_with(else_env)
            # the if may not execute at all only when there is no else; in
            # DML semantics the merge with the pre-state covers that, but
            # variables not updated in either branch keep their facts
            if not block.else_body:
                merged = merged.merge_with(env)
            env.vars = merged.vars
        elif isinstance(block, SB.WhileBlock):
            SB.own_dag(block.predicate)
            self._propagate_loop(block, env, loop_var=None)
        elif isinstance(block, SB.ForBlock):
            for holder in (block.from_holder, block.to_holder, block.incr_holder):
                if holder is not None:
                    SB.own_dag(holder)
                    self.propagate_dag([holder.hop_root], env, update_env=False)
            block.known_iterations = self._trip_count(block)
            self._propagate_loop(block, env, loop_var=block.var)
        else:
            raise TypeError(f"unknown block type {type(block).__name__}")

    def _trip_count(self, block):
        frm = block.from_holder.hop_root.const_value
        to = block.to_holder.hop_root.const_value
        incr = (
            block.incr_holder.hop_root.const_value
            if block.incr_holder is not None
            else 1
        )
        frm, to, incr = _as_int(frm), _as_int(to), _as_int(incr)
        if frm is None or to is None or incr in (None, 0):
            return None
        return max(0, (to - frm) // incr + 1)

    def _propagate_loop(self, block, env, loop_var):
        if loop_var is not None:
            env.set(loop_var, VarState(DataType.SCALAR,
                                       MatrixCharacteristics(0, 0, 0), None))
        # trial pass to discover loop-variant facts, then reset and redo;
        # bounded fixpoint iteration (size lattice has depth 2 per field)
        for _ in range(3):
            trial = env.copy()
            if isinstance(block, SB.WhileBlock):
                self.propagate_dag([block.predicate.hop_root], trial,
                                   update_env=False)
            self.propagate_blocks(block.body, trial)
            before = env.copy()
            env.reset_changed(trial)
            if all(
                env.get(name).equivalent(state)
                for name, state in before.vars.items()
            ):
                break
        # final pass with stable entry facts fills hop DAGs of the body
        if isinstance(block, SB.WhileBlock):
            self.propagate_dag([block.predicate.hop_root], env, update_env=False)
        self.propagate_blocks(block.body, env)

    # -- DAG propagation -------------------------------------------------

    def propagate_dag(self, roots, env, update_env):
        """Propagate through one HOP DAG; optionally commit transient
        writes back into ``env``."""
        roots = [r for r in roots if r is not None]
        for hop in H.iter_dag(roots):
            self._propagate_hop(hop, env)
        if update_env:
            for root in roots:
                if (
                    isinstance(root, H.DataOp)
                    and root.kind is H.DataOpKind.TRANSIENT_WRITE
                ):
                    src = root.inputs[0]
                    env.set(
                        root.name,
                        VarState(src.data_type, src.mc.copy(), src.const_value),
                    )

    def _propagate_hop(self, hop, env):
        # reset per-pass fields (idempotent re-propagation)
        if not isinstance(hop, H.LiteralOp):
            hop.const_value = None

        if isinstance(hop, H.LiteralOp):
            return
        if isinstance(hop, H.DataOp):
            self._propagate_dataop(hop, env)
            return
        if isinstance(hop, H.UnaryOp):
            self._propagate_unary(hop)
            return
        if isinstance(hop, H.BinaryOp):
            self._propagate_binary(hop)
            return
        if isinstance(hop, H.AggUnaryOp):
            self._propagate_agg_unary(hop)
            return
        if isinstance(hop, H.AggBinaryOp):
            left, right = hop.inputs[0].mc, hop.inputs[1].mc
            hop.mc = MatrixCharacteristics(
                left.rows, right.cols, mult_nnz_estimate(left, right)
            )
            return
        if isinstance(hop, H.TernaryAggOp):
            hop.mc = MatrixCharacteristics(0, 0, 0)
            return
        if isinstance(hop, H.ReorgOp):
            self._propagate_reorg(hop)
            return
        if isinstance(hop, H.DataGenOp):
            self._propagate_datagen(hop)
            return
        if isinstance(hop, H.TernaryOp):
            # ctable: output dimensions are data dependent -> unknown
            hop.mc = MatrixCharacteristics.unknown()
            return
        if isinstance(hop, H.IndexingOp):
            self._propagate_indexing(hop)
            return
        if isinstance(hop, H.LeftIndexingOp):
            target = hop.inputs[0].mc
            source = hop.inputs[1].mc
            nnz = None
            if target.nnz is not None and source.nnz is not None:
                nnz = target.nnz + source.nnz
                if target.cells is not None:
                    nnz = min(nnz, target.cells)
            hop.mc = MatrixCharacteristics(target.rows, target.cols, nnz)
            return
        if isinstance(hop, H.FunctionOp):
            self._propagate_function(hop, env)
            return
        if isinstance(hop, H.FunctionOutput):
            fop = hop.inputs[0]
            outs = getattr(fop, "output_mcs", None)
            if outs is not None and hop.index < len(outs):
                mc, const = outs[hop.index]
                hop.mc = mc.copy()
                hop.const_value = const
            else:
                hop.mc = MatrixCharacteristics.unknown()
            return
        raise TypeError(f"unknown hop type {type(hop).__name__}")

    # -- individual operator rules ---------------------------------------

    def _propagate_dataop(self, hop, env):
        if hop.kind is H.DataOpKind.PERSISTENT_READ:
            meta = self.input_meta.get(hop.fname)
            hop.mc = meta.copy() if meta is not None else MatrixCharacteristics.unknown()
        elif hop.kind is H.DataOpKind.TRANSIENT_READ:
            state = env.get(hop.name)
            if state is not None:
                hop.mc = state.mc.copy()
                hop.const_value = state.const
                hop.data_type = state.data_type
            else:
                hop.mc = MatrixCharacteristics.unknown()
        else:  # writes mirror their input
            src = hop.inputs[0]
            hop.mc = src.mc.copy()
            hop.const_value = src.const_value

    def _propagate_unary(self, hop):
        inp = hop.inputs[0]
        op = hop.op
        if op in (H.OpCode.NROW, H.OpCode.NCOL, H.OpCode.LENGTH):
            hop.mc = MatrixCharacteristics(0, 0, 0)
            mc = inp.mc
            if op is H.OpCode.NROW and mc.rows is not None:
                hop.const_value = mc.rows
            elif op is H.OpCode.NCOL and mc.cols is not None:
                hop.const_value = mc.cols
            elif op is H.OpCode.LENGTH and mc.cells is not None:
                hop.const_value = mc.cells
            return
        if op is H.OpCode.CAST_AS_SCALAR:
            hop.mc = MatrixCharacteristics(0, 0, 0)
            return
        if op is H.OpCode.CAST_AS_MATRIX:
            hop.mc = MatrixCharacteristics(1, 1, 1)
            return
        if hop.is_scalar:
            hop.mc = MatrixCharacteristics(0, 0, 0)
            if inp.const_value is not None:
                hop.const_value = fold_scalar(op, inp.const_value)
            return
        if op is H.OpCode.CUMSUM:
            mc = inp.mc
            hop.mc = MatrixCharacteristics(mc.rows, mc.cols, mc.cells)
            return
        if op is H.OpCode.REMOVE_EMPTY:
            # the compacted dimension is data dependent -> unknown
            mc = inp.mc
            if getattr(hop, "margin", "rows") == "rows":
                hop.mc = MatrixCharacteristics(None, mc.cols, mc.nnz)
            else:
                hop.mc = MatrixCharacteristics(mc.rows, None, mc.nnz)
            return
        # elementwise matrix math
        mc = inp.mc
        if op in H.ZERO_PRESERVING_UNARY:
            nnz = mc.nnz
        else:
            nnz = mc.cells
        hop.mc = MatrixCharacteristics(mc.rows, mc.cols, nnz)

    def _propagate_binary(self, hop):
        left, right = hop.inputs
        op = hop.op
        if hop.is_scalar:
            hop.mc = MatrixCharacteristics(0, 0, 0)
            if left.const_value is not None and right.const_value is not None:
                hop.const_value = fold_scalar(
                    op, left.const_value, right.const_value
                )
            return
        if op is H.OpCode.SOLVE:
            hop.mc = MatrixCharacteristics(
                left.mc.cols,
                right.mc.cols,
                (
                    left.mc.cols * right.mc.cols
                    if left.mc.cols is not None and right.mc.cols is not None
                    else None
                ),
            )
            return
        if op is H.OpCode.CBIND:
            rows = left.mc.rows if left.mc.rows is not None else right.mc.rows
            cols = (
                left.mc.cols + right.mc.cols
                if left.mc.cols is not None and right.mc.cols is not None
                else None
            )
            nnz = (
                left.mc.nnz + right.mc.nnz
                if left.mc.nnz is not None and right.mc.nnz is not None
                else None
            )
            hop.mc = MatrixCharacteristics(rows, cols, nnz)
            return
        if op is H.OpCode.RBIND:
            rows = (
                left.mc.rows + right.mc.rows
                if left.mc.rows is not None and right.mc.rows is not None
                else None
            )
            cols = left.mc.cols if left.mc.cols is not None else right.mc.cols
            nnz = (
                left.mc.nnz + right.mc.nnz
                if left.mc.nnz is not None and right.mc.nnz is not None
                else None
            )
            hop.mc = MatrixCharacteristics(rows, cols, nnz)
            return
        if left.is_matrix and right.is_matrix:
            rows, cols = _broadcast_dims(left.mc, right.mc)
            nnz = binary_nnz_estimate(
                op in H.ZERO_PRESERVING_BINARY, left.mc, right.mc
            )
            hop.mc = MatrixCharacteristics(rows, cols, nnz)
            return
        # matrix-scalar
        matrix, scalar = (left, right) if left.is_matrix else (right, left)
        scalar_on_left = scalar is left
        nnz = _matrix_scalar_nnz(op, matrix.mc, scalar.const_value, scalar_on_left)
        hop.mc = MatrixCharacteristics(matrix.mc.rows, matrix.mc.cols, nnz)

    def _propagate_agg_unary(self, hop):
        mc = hop.inputs[0].mc
        if hop.direction is H.AggDirection.ALL:
            hop.mc = MatrixCharacteristics(0, 0, 0)
            return
        if hop.direction is H.AggDirection.ROW:
            hop.mc = MatrixCharacteristics(mc.rows, 1, mc.rows)
            return
        hop.mc = MatrixCharacteristics(1, mc.cols, mc.cols)

    def _propagate_reorg(self, hop):
        mc = hop.inputs[0].mc
        if hop.op is H.OpCode.TRANSPOSE:
            hop.mc = MatrixCharacteristics(mc.cols, mc.rows, mc.nnz)
            return
        # diag: vector -> diagonal matrix; matrix -> diagonal extraction
        if mc.cols == 1 and mc.rows is not None:
            hop.mc = MatrixCharacteristics(mc.rows, mc.rows, mc.nnz)
        elif mc.dims_known:
            nnz = min(mc.rows, mc.nnz) if mc.nnz is not None else mc.rows
            hop.mc = MatrixCharacteristics(mc.rows, 1, nnz)
        else:
            hop.mc = MatrixCharacteristics.unknown()

    def _propagate_datagen(self, hop):
        if hop.gen_method is H.OpCode.SEQ:
            frm = hop.param("from")
            to = hop.param("to")
            incr = hop.param("incr")
            frm_v = frm.const_value if frm is not None else None
            to_v = to.const_value if to is not None else None
            incr_v = incr.const_value if incr is not None else 1
            rows = None
            if frm_v is not None and to_v is not None and incr_v not in (None, 0):
                try:
                    rows = seq_length(frm_v, to_v, incr_v)
                except SCALAR_FAILURES:
                    pass
            hop.mc = MatrixCharacteristics(rows, 1, rows)
            return
        rows_hop = hop.param("rows")
        cols_hop = hop.param("cols")
        rows = _as_int(rows_hop.const_value) if rows_hop is not None else None
        cols = _as_int(cols_hop.const_value) if cols_hop is not None else None
        for dim, value in (("rows", rows), ("cols", cols)):
            if value is not None and value < 0:
                raise CompilerError(
                    f"{hop.builtin}(): {dim} must be non-negative, got {value}"
                )
        min_hop = hop.param("min")
        max_hop = hop.param("max")
        sp_hop = hop.param("sparsity")
        min_v = min_hop.const_value if min_hop is not None else None
        max_v = max_hop.const_value if max_hop is not None else None
        if min_v == 0 and max_v == 0:
            sparsity = 0.0
        elif sp_hop is not None and sp_hop.const_value is not None:
            sparsity = float(sp_hop.const_value)
        elif min_v is not None and max_v is not None and min_v * max_v > 0:
            sparsity = 1.0  # range excludes zero
        elif min_v == max_v and min_v is not None:
            sparsity = 0.0 if min_v == 0 else 1.0
        else:
            sparsity = 1.0
        nnz = None
        if rows is not None and cols is not None:
            nnz = int(round(rows * cols * sparsity))
        hop.mc = MatrixCharacteristics(rows, cols, nnz)

    def _propagate_indexing(self, hop):
        inp, rl, ru, cl, cu = hop.inputs
        mc = inp.mc

        def span(lower, upper, full, is_all):
            if is_all:
                return full
            lo = _as_int(lower.const_value)
            hi = _as_int(upper.const_value)
            if lo is not None and hi is not None:
                return max(0, hi - lo + 1)
            return None

        rows = span(rl, ru, mc.rows, hop.all_rows)
        cols = span(cl, cu, mc.cols, hop.all_cols)
        nnz = None
        if (
            rows is not None
            and cols is not None
            and mc.cells not in (None, 0)
            and mc.nnz is not None
        ):
            fraction = (rows * cols) / mc.cells
            nnz = min(rows * cols, int(math.ceil(mc.nnz * fraction)))
        elif rows is not None and cols is not None and mc.cells == 0:
            nnz = 0
        hop.mc = MatrixCharacteristics(rows, cols, nnz)

    def _propagate_function(self, hop, env):
        """Inter-procedural propagation: push argument characteristics into
        the function body and pull output characteristics back."""
        func = self.program.functions.get(hop.func_name)
        hop.mc = MatrixCharacteristics.unknown()
        if func is None or hop.func_name in self._active_functions:
            hop.output_mcs = None
            return
        self._active_functions.add(hop.func_name)
        try:
            fenv = Env()
            for param, arg in zip(func.inputs, hop.inputs):
                dtype = (
                    DataType.MATRIX if param.data_type == "matrix" else DataType.SCALAR
                )
                fenv.set(
                    param.name,
                    VarState(dtype, arg.mc.copy(), arg.const_value),
                )
            self.propagate_blocks(func.blocks, fenv)
            outs = []
            for param in func.outputs:
                state = fenv.get(param.name)
                if state is None:
                    outs.append((MatrixCharacteristics.unknown(), None))
                else:
                    outs.append((state.mc.copy(), state.const))
            hop.output_mcs = outs
        finally:
            self._active_functions.discard(hop.func_name)


def propagate_sizes(block_program, input_meta=None):
    """Run size/constant propagation over the whole program in place."""
    return Propagator(block_program, input_meta).run()
