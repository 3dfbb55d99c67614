"""Builtin function registry for the DML subset.

Each builtin is described by a :class:`BuiltinSpec` giving its arity, the
accepted named arguments, and how to derive the output data type from the
argument data types.  The validator uses this table to type-check calls;
the HOP builder uses it to select operator classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common import DataType, ValueType

# output-type derivation rules
SCALAR = "scalar"  # always scalar
MATRIX = "matrix"  # always matrix
SAME = "same"  # same data type as the first argument
AGG = "agg"  # matrix arg -> scalar; scalar args -> scalar


@dataclass
class BuiltinSpec:
    name: str
    min_args: int
    max_args: int  # -1 for unbounded
    output: str  # one of SCALAR / MATRIX / SAME / AGG
    value_type: ValueType = ValueType.FP64
    named_args: tuple = field(default_factory=tuple)
    #: True for statement-style builtins with no value (print, write, stop)
    is_void: bool = False


_SPECS = [
    # -- IO --
    BuiltinSpec("read", 1, 1, MATRIX,
                named_args=("rows", "cols", "format", "value_type", "nnz")),
    BuiltinSpec("write", 2, 3, SCALAR, named_args=("format",), is_void=True),
    BuiltinSpec("print", 1, 1, SCALAR, is_void=True),
    BuiltinSpec("stop", 1, 1, SCALAR, is_void=True),
    # -- metadata --
    BuiltinSpec("nrow", 1, 1, SCALAR, ValueType.INT64),
    BuiltinSpec("ncol", 1, 1, SCALAR, ValueType.INT64),
    BuiltinSpec("length", 1, 1, SCALAR, ValueType.INT64),
    # -- full aggregates (matrix -> scalar) or scalar binary min/max --
    BuiltinSpec("sum", 1, 1, SCALAR),
    BuiltinSpec("mean", 1, 1, SCALAR),
    BuiltinSpec("min", 1, 2, AGG),
    BuiltinSpec("max", 1, 2, AGG),
    BuiltinSpec("trace", 1, 1, SCALAR),
    # -- row/col aggregates --
    BuiltinSpec("rowSums", 1, 1, MATRIX),
    BuiltinSpec("colSums", 1, 1, MATRIX),
    BuiltinSpec("rowMeans", 1, 1, MATRIX),
    BuiltinSpec("colMeans", 1, 1, MATRIX),
    BuiltinSpec("rowMaxs", 1, 1, MATRIX),
    BuiltinSpec("colMaxs", 1, 1, MATRIX),
    BuiltinSpec("rowMins", 1, 1, MATRIX),
    BuiltinSpec("colMins", 1, 1, MATRIX),
    BuiltinSpec("rowIndexMax", 1, 1, MATRIX),
    # -- reorganizations --
    BuiltinSpec("t", 1, 1, MATRIX),
    BuiltinSpec("diag", 1, 1, MATRIX),
    BuiltinSpec("cumsum", 1, 1, MATRIX),
    BuiltinSpec("removeEmpty", 0, 1, MATRIX,
                named_args=("target", "margin")),
    # -- data generation --
    BuiltinSpec("matrix", 1, 3, MATRIX, named_args=("rows", "cols")),
    BuiltinSpec("seq", 2, 3, MATRIX),
    BuiltinSpec("rand", 0, 0, MATRIX,
                named_args=("rows", "cols", "min", "max", "sparsity", "pdf", "seed")),
    # -- linear solvers --
    BuiltinSpec("solve", 2, 2, MATRIX),
    # -- elementwise unary (SAME: matrix->matrix, scalar->scalar) --
    BuiltinSpec("exp", 1, 1, SAME),
    BuiltinSpec("log", 1, 2, SAME),
    BuiltinSpec("sqrt", 1, 1, SAME),
    BuiltinSpec("abs", 1, 1, SAME),
    BuiltinSpec("round", 1, 1, SAME),
    BuiltinSpec("floor", 1, 1, SAME),
    BuiltinSpec("ceil", 1, 1, SAME),
    BuiltinSpec("sign", 1, 1, SAME),
    # -- comparisons / ternary --
    BuiltinSpec("ppred", 3, 3, MATRIX),
    BuiltinSpec("table", 2, 3, MATRIX),
    # -- append / binds --
    BuiltinSpec("append", 2, 2, MATRIX),
    BuiltinSpec("cbind", 2, 2, MATRIX),
    BuiltinSpec("rbind", 2, 2, MATRIX),
    # -- casts --
    BuiltinSpec("as.scalar", 1, 1, SCALAR),
    BuiltinSpec("as.matrix", 1, 1, MATRIX),
    BuiltinSpec("as.double", 1, 1, SCALAR, ValueType.FP64),
    BuiltinSpec("as.integer", 1, 1, SCALAR, ValueType.INT64),
    BuiltinSpec("as.logical", 1, 1, SCALAR, ValueType.BOOLEAN),
    # -- conditional default for command-line args --
    BuiltinSpec("ifdef", 2, 2, SCALAR),
]

BUILTINS = {spec.name: spec for spec in _SPECS}

def infer_output_data_type(spec, arg_data_types):
    """Derive the output :class:`DataType` of a builtin call.

    ``arg_data_types`` is a list of :class:`DataType` for positional args.
    """
    if spec.output == SCALAR:
        return DataType.SCALAR
    if spec.output == MATRIX:
        return DataType.MATRIX
    if spec.output == SAME:
        if arg_data_types and arg_data_types[0] is DataType.MATRIX:
            return DataType.MATRIX
        return DataType.SCALAR
    if spec.output == AGG:
        # min/max: single matrix arg aggregates; any scalar combination is
        # scalar; matrix-scalar min/max yields a matrix (elementwise)
        if len(arg_data_types) == 1:
            return DataType.SCALAR
        if any(dt is DataType.MATRIX for dt in arg_data_types):
            return DataType.MATRIX
        return DataType.SCALAR
    raise ValueError(f"unknown output rule {spec.output!r}")
