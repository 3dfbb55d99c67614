"""High-level operator (HOP) DAG node classes.

Each statement block compiles into a DAG of HOPs.  A HOP carries:

* its ``inputs`` (other HOPs),
* output :class:`~repro.common.MatrixCharacteristics` (``mc``), filled by
  size propagation,
* a memory estimate (``mem_estimate``), filled by memory estimation,
* execution decisions (``exec_type``, ``method``), filled by operator
  selection — these are the *only* fields that depend on the candidate
  resource configuration, so the resource optimizer can re-run operator
  selection cheaply without rebuilding DAGs.

Operator vocabulary follows SystemML: DataOp (persistent/transient
read/write), LiteralOp, UnaryOp, BinaryOp, AggUnaryOp, AggBinaryOp (matrix
multiplication), ReorgOp (transpose/diag), DataGenOp (rand/seq), TernaryOp
(ctable), TernaryAggOp (fused ``sum(v1*v2*v3)``), IndexingOp,
LeftIndexingOp, and FunctionOp (user-defined function calls).
"""

from __future__ import annotations

import enum
import itertools
import math

from repro.common import DataType, MatrixCharacteristics, ValueType

_hop_ids = itertools.count(1)


class OpCode(enum.Enum):
    """Operation codes shared by unary/binary/aggregate HOPs."""

    # binary arithmetic
    PLUS = "+"
    MINUS = "-"
    MULT = "*"
    DIV = "/"
    POW = "^"
    MOD = "%%"
    INTDIV = "%/%"
    MIN = "min"
    MAX = "max"
    SOLVE = "solve"
    CBIND = "cbind"
    RBIND = "rbind"
    # relational
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    # boolean
    AND = "&"
    OR = "|"
    NOT = "!"
    # unary math
    CUMSUM = "ucumk+"
    REMOVE_EMPTY = "rmempty"
    NEG = "u-"
    EXP = "exp"
    LOG = "log"
    SQRT = "sqrt"
    ABS = "abs"
    ROUND = "round"
    FLOOR = "floor"
    CEIL = "ceil"
    SIGN = "sign"
    # metadata / casts
    NROW = "nrow"
    NCOL = "ncol"
    LENGTH = "length"
    CAST_AS_SCALAR = "castdts"
    CAST_AS_MATRIX = "castdtm"
    CAST_AS_DOUBLE = "castvtd"
    CAST_AS_INT = "castvti"
    CAST_AS_BOOLEAN = "castvtb"
    PRINT = "print"
    STOP = "stop"
    # aggregates
    SUM = "sum"
    MEAN = "mean"
    TRACE = "trace"
    ROWINDEXMAX = "rowindexmax"
    # reorg
    TRANSPOSE = "t"
    DIAG = "diag"
    # datagen
    RAND = "rand"
    SEQ = "seq"
    # ternary
    CTABLE = "ctable"
    # matrix multiply
    MATMULT = "ba+*"
    # fused ternary aggregate sum(a*b*c)
    TAKPM = "tak+*"


class AggDirection(enum.Enum):
    ALL = "all"
    ROW = "row"  # rowSums etc: aggregate across columns, one value per row
    COL = "col"


class DataOpKind(enum.Enum):
    PERSISTENT_READ = "pread"
    PERSISTENT_WRITE = "pwrite"
    TRANSIENT_READ = "tread"
    TRANSIENT_WRITE = "twrite"


#: relational opcodes that came from ppred / comparisons producing 0/1
RELATIONAL_OPS = {OpCode.EQ, OpCode.NEQ, OpCode.LT, OpCode.LE, OpCode.GT, OpCode.GE}

#: binary opcodes whose result is zero wherever either input is zero
ZERO_PRESERVING_BINARY = {OpCode.MULT}

#: unary opcodes that map zero to zero (sparsity-safe)
ZERO_PRESERVING_UNARY = {
    OpCode.SQRT,
    OpCode.ABS,
    OpCode.ROUND,
    OpCode.FLOOR,
    OpCode.CEIL,
    OpCode.SIGN,
    OpCode.NEG,
}


class Hop:
    """Base class of all HOP DAG nodes."""

    def __init__(self, inputs=None, data_type=DataType.MATRIX,
                 value_type=ValueType.FP64, name=None):
        self.hop_id = next(_hop_ids)
        self.inputs = list(inputs or [])
        self.data_type = data_type
        self.value_type = value_type
        #: bound variable name for data ops, None otherwise
        self.name = name
        #: output characteristics (filled by size propagation)
        self.mc = MatrixCharacteristics.unknown()
        #: scalar constant value if compile-time known (scalars only)
        self.const_value = None
        #: total operation memory estimate in bytes (inputs + output +
        #: intermediates); math.inf when unknown
        self.mem_estimate = math.inf
        #: output memory estimate in bytes
        self.output_mem = math.inf
        # -- per-resource-configuration decisions (operator selection) --
        self.exec_type = None  # ExecType or None for metadata-only ops
        self.method = None  # physical method, e.g. "mapmm", "cpmm"
        #: marks DAGs containing this hop for dynamic recompilation
        self.requires_recompile = False

    # -- structural helpers ----------------------------------------------

    @property
    def is_matrix(self):
        return self.data_type is DataType.MATRIX

    @property
    def is_scalar(self):
        return self.data_type is DataType.SCALAR

    def replace_input(self, old, new):
        self.inputs = [new if inp is old else inp for inp in self.inputs]

    def opcode_str(self):
        return type(self).__name__

    def __repr__(self):
        return (
            f"{type(self).__name__}#{self.hop_id}({self.opcode_str()}, "
            f"{self.mc}, {self.data_type.value})"
        )


class LiteralOp(Hop):
    """A scalar literal."""

    def __init__(self, value, value_type=None):
        if value_type is None:
            if isinstance(value, bool):
                value_type = ValueType.BOOLEAN
            elif isinstance(value, int):
                value_type = ValueType.INT64
            elif isinstance(value, float):
                value_type = ValueType.FP64
            else:
                value_type = ValueType.STRING
        super().__init__(data_type=DataType.SCALAR, value_type=value_type)
        self.value = value
        self.const_value = value
        self.mc = MatrixCharacteristics(0, 0, 0)

    def opcode_str(self):
        return f"lit:{self.value!r}"


class DataOp(Hop):
    """Persistent/transient read or write of a variable or file."""

    def __init__(self, kind, name, inputs=None, data_type=DataType.MATRIX,
                 value_type=ValueType.FP64, fname=None, fmt=None):
        super().__init__(inputs, data_type, value_type, name=name)
        self.kind = kind
        self.fname = fname
        self.fmt = fmt

    @property
    def is_read(self):
        return self.kind in (DataOpKind.PERSISTENT_READ, DataOpKind.TRANSIENT_READ)

    @property
    def is_write(self):
        return not self.is_read

    def opcode_str(self):
        return f"{self.kind.value}:{self.name}"


class UnaryOp(Hop):
    def __init__(self, op, inp, data_type=None, value_type=ValueType.FP64):
        if data_type is None:
            data_type = inp.data_type
        super().__init__([inp], data_type, value_type)
        self.op = op

    def opcode_str(self):
        return self.op.value


class BinaryOp(Hop):
    def __init__(self, op, left, right, data_type=None, value_type=ValueType.FP64):
        if data_type is None:
            if DataType.MATRIX in (left.data_type, right.data_type):
                data_type = DataType.MATRIX
            else:
                data_type = DataType.SCALAR
        super().__init__([left, right], data_type, value_type)
        self.op = op

    @property
    def is_matrix_matrix(self):
        return self.inputs[0].is_matrix and self.inputs[1].is_matrix

    @property
    def is_matrix_scalar(self):
        return self.is_matrix and not self.is_matrix_matrix

    def opcode_str(self):
        return self.op.value


class AggUnaryOp(Hop):
    """Full / row / column aggregate (sum, mean, min, max, trace)."""

    def __init__(self, op, direction, inp):
        data_type = DataType.SCALAR if direction is AggDirection.ALL else DataType.MATRIX
        super().__init__([inp], data_type)
        self.op = op
        self.direction = direction

    def opcode_str(self):
        prefix = {AggDirection.ALL: "ua", AggDirection.ROW: "uar", AggDirection.COL: "uac"}
        return prefix[self.direction] + self.op.value


class AggBinaryOp(Hop):
    """Matrix multiplication ``X %*% Y``."""

    def __init__(self, left, right):
        super().__init__([left, right], DataType.MATRIX)
        self.op = OpCode.MATMULT
        #: set by operator selection when the transpose-mm rewrite
        #: t(X) %*% v -> t(t(v) %*% X) is applied
        self.transpose_rewrite = False

    def opcode_str(self):
        return "ba(+*)"


class TernaryAggOp(Hop):
    """Fused ternary aggregate ``sum(a * b * c)`` (tak+*)."""

    def __init__(self, a, b, c):
        super().__init__([a, b, c], DataType.SCALAR)
        self.op = OpCode.TAKPM

    def opcode_str(self):
        return "tak+*"


class ReorgOp(Hop):
    """Transpose or diag."""

    def __init__(self, op, inp):
        super().__init__([inp], DataType.MATRIX)
        self.op = op

    def opcode_str(self):
        return "r(" + self.op.value + ")"


class DataGenOp(Hop):
    """Data generation: rand/matrix-constructor (RAND) or seq (SEQ).

    ``params`` maps parameter names (rows, cols, min, max, sparsity, seq
    from/to/incr) to input HOPs; the HOPs are also listed in ``inputs``.
    """

    def __init__(self, method, params, builtin=None):
        super().__init__(list(params.values()), DataType.MATRIX)
        self.gen_method = method
        self.params = dict(params)
        #: the DML builtin this came from, for error messages
        self.builtin = builtin or method.value

    def param(self, key):
        return self.params.get(key)

    def opcode_str(self):
        return f"datagen:{self.gen_method.value}"


class TernaryOp(Hop):
    """Contingency table ``table(A, B)`` (ctable)."""

    def __init__(self, op, inputs):
        super().__init__(inputs, DataType.MATRIX)
        self.op = op

    def opcode_str(self):
        return self.op.value


class IndexingOp(Hop):
    """Right indexing X[rl:ru, cl:cu].

    ``inputs`` = [X, rl, ru, cl, cu] where bound HOPs are scalar
    expressions; missing bounds are represented by literal 0 placeholders
    with ``is_all_rows`` / ``is_all_cols`` flags set.
    """

    def __init__(self, inp, row_lower, row_upper, col_lower, col_upper,
                 all_rows=False, all_cols=False):
        super().__init__([inp, row_lower, row_upper, col_lower, col_upper],
                         DataType.MATRIX)
        self.all_rows = all_rows
        self.all_cols = all_cols

    def opcode_str(self):
        return "rix"


class LeftIndexingOp(Hop):
    """Left indexing X[rl:ru, cl:cu] = Y.

    ``inputs`` = [X, Y, rl, ru, cl, cu].
    """

    def __init__(self, target, source, row_lower, row_upper, col_lower,
                 col_upper, all_rows=False, all_cols=False):
        super().__init__([target, source, row_lower, row_upper, col_lower,
                          col_upper], DataType.MATRIX)
        self.all_rows = all_rows
        self.all_cols = all_cols

    def opcode_str(self):
        return "lix"


class FunctionOp(Hop):
    """A call to a user-defined function.

    Function calls are opaque to block-local optimization: outputs get
    their characteristics from inter-procedural size propagation (or stay
    unknown).  ``output_names`` lists the caller-side target variables.
    """

    def __init__(self, func_name, inputs, output_names):
        super().__init__(inputs, DataType.MATRIX)
        self.func_name = func_name
        self.output_names = list(output_names)

    def opcode_str(self):
        return f"fcall:{self.func_name}"


class FunctionOutput(Hop):
    """Selects the ``index``-th output value of a :class:`FunctionOp`."""

    def __init__(self, fop, index, data_type=DataType.MATRIX,
                 value_type=ValueType.FP64):
        super().__init__([fop], data_type, value_type)
        self.index = index

    def opcode_str(self):
        return f"fout:{self.index}"


# -- DAG traversal helpers ---------------------------------------------------


def iter_dag(roots):
    """Yield each HOP reachable from ``roots`` exactly once, post-order
    (inputs before consumers)."""
    seen = set()
    stack = [(root, False) for root in reversed(list(roots))]
    order = []
    while stack:
        hop, expanded = stack.pop()
        if hop.hop_id in seen and not expanded:
            continue
        if expanded:
            order.append(hop)
            continue
        seen.add(hop.hop_id)
        stack.append((hop, True))
        for inp in reversed(hop.inputs):
            if inp.hop_id not in seen:
                stack.append((inp, False))
    return order


def count_operators(roots, predicate=None):
    """Count DAG operators, optionally filtered by ``predicate(hop)``."""
    hops = iter_dag(roots)
    if predicate is None:
        return len(hops)
    return sum(1 for hop in hops if predicate(hop))


def build_parent_map(roots):
    """Return {hop_id: [parent hops]} for the DAG under ``roots``."""
    parents = {}
    for hop in iter_dag(roots):
        parents.setdefault(hop.hop_id, [])
        for inp in hop.inputs:
            parents.setdefault(inp.hop_id, []).append(hop)
    return parents


def explain(roots, indent=0):
    """Render a human-readable multi-line description of a HOP DAG."""
    lines = []
    for hop in iter_dag(roots):
        ins = ",".join(str(i.hop_id) for i in hop.inputs)
        et = hop.exec_type.value if hop.exec_type else "-"
        mem = "inf" if math.isinf(hop.mem_estimate) else f"{hop.mem_estimate / (1024 * 1024):.1f}MB"
        lines.append(
            " " * indent
            + f"({hop.hop_id}) {hop.opcode_str()} [{ins}] {hop.mc} "
            + f"mem={mem} exec={et}"
            + (f" method={hop.method}" if hop.method else "")
        )
    return "\n".join(lines)
