"""Shared core types: data/value types, scalar operator semantics, matrix
characteristics, and the in-memory / serialized size model.

These are used across the compiler (size propagation, constant folding,
memory estimates), the cost model, and the runtime, so they live at
package root to avoid circular imports.

The size model follows SystemML's conventions:

* dense blocks store one ``double`` (8 bytes) per cell plus a small header;
* sparse blocks use an MCSR-like layout costing roughly 16 bytes per
  non-zero value (value + column index + amortized row overhead);
* a matrix is kept in sparse representation if its sparsity is below
  :data:`SPARSE_THRESHOLD` and it has more than one column.

Unknown dimensions or sparsity are represented with ``None``.  Any memory
estimate involving an unknown dimension is ``math.inf``, which makes the
operator-selection heuristic fall back to distributed (MR) execution —
exactly the behaviour the paper relies on for its "pruning blocks of
unknowns" technique and for runtime plan adaptation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# -- size model constants ----------------------------------------------------

#: bytes per dense cell (double precision)
DOUBLE_SIZE = 8
#: fixed per-matrix-object header overhead in bytes
MATRIX_HEADER_SIZE = 44
#: bytes per non-zero in the sparse (MCSR-like) representation:
#: 8 B value + 4 B column index + 4 B amortized row-pointer overhead
SPARSE_CELL_SIZE = 16
#: sparsity below which the sparse representation is used
SPARSE_THRESHOLD = 0.4
#: HDFS binary-block serialized size factor relative to in-memory dense
BINARY_CELL_SIZE = 8

#: conventional scale units
KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class DataType(enum.Enum):
    """Top-level data type of a DML expression or variable."""

    MATRIX = "matrix"
    SCALAR = "scalar"


class ValueType(enum.Enum):
    """Cell/scalar value type."""

    FP64 = "double"
    INT64 = "int"
    BOOLEAN = "boolean"
    STRING = "string"


class ExecType(enum.Enum):
    """Execution location of a physical operator."""

    CP = "CP"
    MR = "MR"


class FileFormat(enum.Enum):
    """On-(simulated-)disk matrix formats."""

    BINARY_BLOCK = "binary"
    TEXT_CELL = "text"
    CSV = "csv"


# -- scalar operator semantics -------------------------------------------
#
# The one definition of every scalar operator.  The runtime's kernels call
# it with their opcode; the compiler's constant folder calls it with the
# HOP opcode's value (the same string), so a folded constant is what the
# interpreter would have computed.

#: what a scalar operator raises on operands for which it has no value
SCALAR_FAILURES = (ArithmeticError, TypeError, ValueError)


def display(value):
    """DML-style rendering of a scalar for print() and string concat."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def scalar_binary(opcode, a, b):
    """Binary scalar operator ``opcode`` applied to ``a`` and ``b``."""
    if opcode == "+":
        if isinstance(a, str) or isinstance(b, str):
            return display(a) + display(b)
        return a + b
    if opcode == "-":
        return a - b
    if opcode == "*":
        return a * b
    if opcode == "/":
        return a / b
    if opcode == "^":
        return a**b
    if opcode == "%%":
        return a % b
    if opcode == "%/%":
        return a // b
    if opcode == "min":
        return min(a, b)
    if opcode == "max":
        return max(a, b)
    if opcode == "==":
        return a == b
    if opcode == "!=":
        return a != b
    if opcode == "<":
        return a < b
    if opcode == "<=":
        return a <= b
    if opcode == ">":
        return a > b
    if opcode == ">=":
        return a >= b
    if opcode == "&":
        return bool(a) and bool(b)
    if opcode == "|":
        return bool(a) or bool(b)
    raise ValueError(f"unknown scalar binary opcode {opcode!r}")


#: unary scalar operators (math, negation, casts) by opcode
SCALAR_UNARY = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "round": round,
    "floor": math.floor,
    "ceil": math.ceil,
    "sign": lambda v: (v > 0) - (v < 0),
    "u-": lambda v: -v,
    "!": lambda v: not bool(v),
    "castvtd": float,
    "castvti": int,
    "castvtb": bool,
}


def seq_length(frm, to, incr):
    """Number of elements of ``seq(frm, to, incr)``."""
    return int(max(0, math.floor((float(to) - float(frm)) / float(incr)) + 1))


def is_sparse_representation(sparsity, cols):
    """Return True if a matrix with the given sparsity/columns would be
    held in the sparse in-memory representation.

    Unknown sparsity (``None``) conservatively selects dense.
    """
    if sparsity is None:
        return False
    return sparsity < SPARSE_THRESHOLD and cols is not None and cols > 1


def estimate_matrix_memory(rows, cols, sparsity=1.0):
    """Estimated in-memory size in bytes of a (rows x cols) matrix.

    Returns ``math.inf`` when any dimension is unknown; callers use that to
    classify operations as "unknown" for operator selection and pruning.
    """
    if rows is None or cols is None:
        return math.inf
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix dimensions: {rows} x {cols}")
    if sparsity is None:
        sparsity = 1.0
    if is_sparse_representation(sparsity, cols):
        nnz = rows * cols * sparsity
        return MATRIX_HEADER_SIZE + nnz * SPARSE_CELL_SIZE + rows * 4
    return MATRIX_HEADER_SIZE + rows * cols * DOUBLE_SIZE


def estimate_serialized_size(rows, cols, sparsity=1.0, fmt=FileFormat.BINARY_BLOCK):
    """Estimated serialized (HDFS) size in bytes of a matrix.

    Binary block stores dense blocks densely and sparse blocks as
    (row, col, value) triples; text/CSV cost ~2.5x the binary bytes to
    model parse overheads on the bandwidth side.
    """
    if rows is None or cols is None:
        return math.inf
    if sparsity is None:
        sparsity = 1.0
    if is_sparse_representation(sparsity, cols):
        base = rows * cols * sparsity * SPARSE_CELL_SIZE
    else:
        base = rows * cols * BINARY_CELL_SIZE
    if fmt is not FileFormat.BINARY_BLOCK:
        base *= 2.5
    return base


@dataclass
class MatrixCharacteristics:
    """Dimensions and sparsity metadata of a matrix, possibly unknown.

    ``rows``/``cols`` are ``None`` when unknown; ``nnz`` is ``None`` when
    the number of non-zeros is unknown (dimensions may still be known).
    """

    rows: int | None = None
    cols: int | None = None
    nnz: int | None = None

    # -- predicates ----------------------------------------------------------

    @property
    def dims_known(self):
        """True iff both dimensions are known."""
        return self.rows is not None and self.cols is not None

    @property
    def nnz_known(self):
        return self.nnz is not None

    # -- derived quantities --------------------------------------------------

    @property
    def cells(self):
        """Total number of cells, or ``None`` if unknown."""
        if not self.dims_known:
            return None
        return self.rows * self.cols

    @property
    def sparsity(self):
        """nnz / cells, or ``None`` when either is unknown.

        An empty matrix (0 cells) reports sparsity 1.0 by convention.
        """
        cells = self.cells
        if cells is None or self.nnz is None:
            return None
        if cells == 0:
            return 1.0
        return min(1.0, self.nnz / cells)

    def sparsity_or_default(self, default=1.0):
        sp = self.sparsity
        return default if sp is None else sp

    # -- size estimates ------------------------------------------------------

    def memory_estimate(self):
        """In-memory size estimate in bytes (inf when dims unknown)."""
        return estimate_matrix_memory(self.rows, self.cols, self.sparsity_or_default())

    def serialized_estimate(self, fmt=FileFormat.BINARY_BLOCK):
        """Serialized (HDFS) size estimate in bytes."""
        return estimate_serialized_size(
            self.rows, self.cols, self.sparsity_or_default(), fmt
        )

    # -- constructors / combinators ------------------------------------------

    @classmethod
    def unknown(cls):
        return cls(None, None, None)

    @classmethod
    def dense(cls, rows, cols):
        return cls(rows, cols, rows * cols)

    def copy(self):
        return MatrixCharacteristics(self.rows, self.cols, self.nnz)

    def same_dims(self, other):
        """True iff dimensions are known and equal on both sides."""
        return (
            self.dims_known
            and other.dims_known
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __str__(self):
        def fmt(v):
            return "?" if v is None else str(v)

        return f"[{fmt(self.rows)} x {fmt(self.cols)}, nnz={fmt(self.nnz)}]"


def mult_nnz_estimate(left, right):
    """Worst-case-bounded nnz estimate for a matrix product left %*% right.

    Uses the standard independence assumption on sparsity:
    sp_out = 1 - (1 - sp_l * sp_r)^common_dim, bounded by the dense count.
    Returns ``None`` when inputs are insufficiently known.
    """
    if not (left.dims_known and right.dims_known):
        return None
    sp_l, sp_r = left.sparsity, right.sparsity
    out_cells = left.rows * right.cols
    if sp_l is None or sp_r is None:
        return out_cells
    common = left.cols
    if common == 0:
        return 0
    sp_out = 1.0 - (1.0 - sp_l * sp_r) ** common
    return int(math.ceil(sp_out * out_cells))


def binary_nnz_estimate(op_preserves_zeros, left, right):
    """nnz estimate for an elementwise binary operation.

    ``op_preserves_zeros`` distinguishes multiplication-like ops (result is
    zero where either input is zero) from addition-like ops (result may be
    non-zero where either input is).
    """
    if not (left.dims_known and right.dims_known):
        return None
    sp_l = left.sparsity
    sp_r = right.sparsity
    cells = max(left.cells, right.cells)
    if sp_l is None or sp_r is None:
        return cells
    if op_preserves_zeros:
        sp = min(sp_l, sp_r)
    else:
        sp = min(1.0, sp_l + sp_r)
    return int(math.ceil(sp * cells))


class RunningTotal:
    """Mixin: a running sum of byte sizes that knows how far it may be
    from the same sizes summed afresh.

    The cost walk's working set (:class:`repro.cost.model.CostState`)
    and the runtime's :class:`~repro.runtime.bufferpool.BufferPool` both
    evict when ``S + needed > budget``, S being their resident sizes
    re-summed in container order.  Each keeps ``total`` current through
    :meth:`_count` instead and re-sums only when :meth:`fits` cannot
    rule out that S would come out over budget; the re-sum hands its
    result back through :meth:`anchor`.  A user declares the slots
    ``total``, ``ops`` and ``peak`` (a mixin beside ``dict`` cannot) and
    a ``__len__`` counting the sizes a re-sum would add.
    """

    __slots__ = ()

    def anchor(self, total, ops, peak):
        """``total`` was summed from zero over the resident set in
        ``ops`` operations whose largest result was ``peak``."""
        self.total = total
        self.ops = ops
        self.peak = peak

    def _count(self, size):
        """A size enters (positive) or leaves (negative) the set."""
        if math.isfinite(size):
            self.total = total = self.total + size
            self.ops += 1
            if total > self.peak:
                self.peak = total

    def slack(self):
        """Upper bound on ``|total - S|``, where S is the sum a fresh
        pass would compute now (from zero, over the resident finite
        sizes, in container order).

        Both are sums of the same sizes f_i >= 0 (negative dimensions
        are rejected), with real sum T.  Let u = 2**-53 and n =
        len(self).  A size is a float, or an int when its matrix is
        dense; ``total`` and S are Python numbers accordingly, int while
        only ints were added since an int start.  Every byte count
        compared here is taken to be below 2**53 (8 PiB), so an int, a
        sum of ints, or an int converted for a mixed operation is its
        own float: int arithmetic adds no error and no second rounding.
        A float addition or subtraction errs by at most u times its
        result, so ``total`` — reached from zero in ``ops`` operations
        whose results never exceeded ``peak`` — has |total - T| <=
        ops*u*peak.  The peak, not what is resident now, sets the
        error: a terabyte added and subtracted again leaves the rounding
        its addition made.  S is at most n additions with results rising
        to S, so |S - T| <= n*u*S (``sum()`` is compensated from Python
        3.12 on, which only tightens this; a ``+=`` loop and 3.11's
        ``sum()`` are the naive case) and S <= peak*(1 + (ops + n)*u).
        Hence |total - S| <= (ops + n)*u*peak*(1 + e), e < 2**-12 while
        ops + n < 2**40.  Returned is four times (ops + n)*u*peak: one
        for the bound, one for e and this product's two roundings, one
        for the rounding of ``total + slack()`` in :meth:`fits`
        (<= 1.001*u*peak), one spare.
        """
        return (self.ops + len(self)) * 2.0 ** -51 * self.peak

    def fits(self, budget, needed=0.0):
        """True only if ``S + needed <= budget`` as Python evaluates it
        for the re-summed S: never true where ``S + needed > budget``.

        By :meth:`slack`, W = ``total + slack()`` is a float >= S.
        Rounding is monotone, so ``W + needed`` rounds to no less than
        ``S + needed`` does — whether S is a float, an int converted to
        add a float ``needed``, or an int added to an int exactly (below
        2**53 that sum is its own float).  The order matters: ``needed``
        may dwarf ``peak``, so its rounding has to be the same rounding
        on both sides rather than something ``slack()`` covers.
        """
        return self.total + self.slack() + needed <= budget
