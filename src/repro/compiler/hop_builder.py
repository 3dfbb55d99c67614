"""HOP DAG construction from statement blocks.

For each generic block we maintain a variable -> HOP map.  Variables read
before being assigned in the block become transient reads; every variable
assigned in the block yields a transient write root at the block end.
Side-effecting operations (``print``, ``write``) are additional roots.

Command-line arguments (``$name``) and ``ifdef`` are resolved at build
time from the script arguments, matching SystemML, where script arguments
are bound before compilation.  ``ppred(X, v, ">")`` is lowered to a
relational :class:`~repro.compiler.hops.BinaryOp` as in SystemML.
"""

from __future__ import annotations

from repro.common import DataType, ValueType
from repro.compiler import hops as H
from repro.compiler import statement_blocks as SB
from repro.dml import ast
from repro.errors import CompilerError

_UNARY_MATH = {
    "exp": H.OpCode.EXP,
    "sqrt": H.OpCode.SQRT,
    "abs": H.OpCode.ABS,
    "round": H.OpCode.ROUND,
    "floor": H.OpCode.FLOOR,
    "ceil": H.OpCode.CEIL,
    "sign": H.OpCode.SIGN,
}

_BINARY_OPS = {
    "+": H.OpCode.PLUS,
    "-": H.OpCode.MINUS,
    "*": H.OpCode.MULT,
    "/": H.OpCode.DIV,
    "^": H.OpCode.POW,
    "%%": H.OpCode.MOD,
    "%/%": H.OpCode.INTDIV,
    "==": H.OpCode.EQ,
    "!=": H.OpCode.NEQ,
    "<": H.OpCode.LT,
    "<=": H.OpCode.LE,
    ">": H.OpCode.GT,
    ">=": H.OpCode.GE,
    "&": H.OpCode.AND,
    "|": H.OpCode.OR,
}

_PPRED_OPS = {
    "==": H.OpCode.EQ,
    "!=": H.OpCode.NEQ,
    "<": H.OpCode.LT,
    "<=": H.OpCode.LE,
    ">": H.OpCode.GT,
    ">=": H.OpCode.GE,
}

_ROWCOL_AGGS = {
    "rowSums": (H.OpCode.SUM, H.AggDirection.ROW),
    "colSums": (H.OpCode.SUM, H.AggDirection.COL),
    "rowMeans": (H.OpCode.MEAN, H.AggDirection.ROW),
    "colMeans": (H.OpCode.MEAN, H.AggDirection.COL),
    "rowMaxs": (H.OpCode.MAX, H.AggDirection.ROW),
    "colMaxs": (H.OpCode.MAX, H.AggDirection.COL),
    "rowMins": (H.OpCode.MIN, H.AggDirection.ROW),
    "colMins": (H.OpCode.MIN, H.AggDirection.COL),
    "rowIndexMax": (H.OpCode.ROWINDEXMAX, H.AggDirection.ROW),
}

_CASTS = {
    "as.scalar": (H.OpCode.CAST_AS_SCALAR, DataType.SCALAR, ValueType.FP64),
    "as.matrix": (H.OpCode.CAST_AS_MATRIX, DataType.MATRIX, ValueType.FP64),
    "as.double": (H.OpCode.CAST_AS_DOUBLE, DataType.SCALAR, ValueType.FP64),
    "as.integer": (H.OpCode.CAST_AS_INT, DataType.SCALAR, ValueType.INT64),
    "as.logical": (H.OpCode.CAST_AS_BOOLEAN, DataType.SCALAR, ValueType.BOOLEAN),
}


def _numeric_value_type(left_vt, right_vt, op):
    if ValueType.STRING in (left_vt, right_vt):
        return ValueType.STRING
    if op in (H.OpCode.DIV, H.OpCode.POW):
        return ValueType.FP64
    if op in H.RELATIONAL_OPS or op in (H.OpCode.AND, H.OpCode.OR):
        return ValueType.BOOLEAN
    if left_vt is ValueType.INT64 and right_vt is ValueType.INT64:
        return ValueType.INT64
    return ValueType.FP64


class HopBuilder:
    """Builds HOP DAGs for every block of a :class:`BlockProgram`."""

    def __init__(self, block_program, function_types=None):
        self.program = block_program
        self.args = block_program.script_args
        #: name -> FunctionProgram, for UDF output typing
        self.functions = block_program.functions
        #: variable -> DataType as inferred so far (across blocks)
        self.var_types = dict(function_types or {})

    # -- program level -------------------------------------------------------

    def build(self, build_functions=True):
        for block in self.program.blocks:
            self._build_block(block)
        if build_functions:
            for func in self.program.functions.values():
                builder = HopBuilder(
                    SB.BlockProgram(
                        blocks=func.blocks,
                        functions=self.functions,
                        script_args=self.args,
                    ),
                    function_types={
                        p.name: (
                            DataType.MATRIX
                            if p.data_type == "matrix"
                            else DataType.SCALAR
                        )
                        for p in func.inputs
                    },
                )
                builder.build(build_functions=False)
        return self.program

    def _build_block(self, block):
        if isinstance(block, SB.GenericBlock):
            self._build_generic(block)
        elif isinstance(block, SB.IfBlock):
            self._build_predicate(block.predicate)
            for child in block.body:
                self._build_block(child)
            for child in block.else_body:
                self._build_block(child)
        elif isinstance(block, SB.WhileBlock):
            self._build_predicate(block.predicate)
            for child in block.body:
                self._build_block(child)
        elif isinstance(block, SB.ForBlock):
            self.var_types[block.var] = DataType.SCALAR
            for holder in (block.from_holder, block.to_holder, block.incr_holder):
                if holder is not None:
                    self._build_predicate(holder)
            for child in block.body:
                self._build_block(child)
        else:
            raise CompilerError(f"unknown block type {type(block).__name__}")

    def _build_predicate(self, holder):
        var_map = {}
        holder.hop_root = self._build_expr(holder.expr, var_map)

    def _build_generic(self, block):
        var_map = {}
        roots = []
        assigned = []
        for stmt in block.statements:
            if isinstance(stmt, ast.Assignment):
                if stmt.is_left_indexing:
                    hop = self._build_left_indexing(stmt, var_map)
                else:
                    hop = self._build_expr(stmt.expr, var_map)
                var_map[stmt.target] = hop
                self.var_types[stmt.target] = hop.data_type
                if stmt.target not in assigned:
                    assigned.append(stmt.target)
            elif isinstance(stmt, ast.MultiAssignment):
                fop = self._build_function_call(stmt.call, var_map)
                func = self.functions[stmt.call.name]
                for idx, target in enumerate(stmt.targets):
                    out_param = func.outputs[idx]
                    dtype = (
                        DataType.MATRIX
                        if out_param.data_type == "matrix"
                        else DataType.SCALAR
                    )
                    out = H.FunctionOutput(fop, idx, data_type=dtype)
                    var_map[target] = out
                    self.var_types[target] = dtype
                    if target not in assigned:
                        assigned.append(target)
            elif isinstance(stmt, ast.ExprStatement):
                root = self._build_statement_call(stmt.expr, var_map)
                if root is not None:
                    roots.append(root)
            else:
                raise CompilerError(
                    f"statement type {type(stmt).__name__} inside generic block"
                )
        # transient writes for all assigned variables
        for name in assigned:
            hop = var_map[name]
            roots.append(
                H.DataOp(
                    H.DataOpKind.TRANSIENT_WRITE,
                    name,
                    inputs=[hop],
                    data_type=hop.data_type,
                    value_type=hop.value_type,
                )
            )
        block.hop_roots = roots

    # -- statements ----------------------------------------------------------

    def _build_statement_call(self, call, var_map):
        if call.name == "print":
            arg = self._build_expr(call.args[0], var_map)
            return H.UnaryOp(H.OpCode.PRINT, arg, data_type=DataType.SCALAR)
        if call.name == "stop":
            arg = self._build_expr(call.args[0], var_map)
            return H.UnaryOp(H.OpCode.STOP, arg, data_type=DataType.SCALAR)
        if call.name == "write":
            data = self._build_expr(call.args[0], var_map)
            fname = self._resolve_filename(call.args[1], var_map)
            fmt = None
            if "format" in call.named_args:
                fmt_hop = self._build_expr(call.named_args["format"], var_map)
                fmt = getattr(fmt_hop, "value", None)
            return H.DataOp(
                H.DataOpKind.PERSISTENT_WRITE,
                name=fname,
                inputs=[data],
                data_type=data.data_type,
                value_type=data.value_type,
                fname=fname,
                fmt=fmt,
            )
        if call.name in self.functions:
            return self._build_function_call(call, var_map)
        raise CompilerError(
            f"call statement to {call.name!r} has no effect (line {call.line})"
        )

    def _build_left_indexing(self, stmt, var_map):
        target = self._read_var(stmt.target, var_map, stmt.line)
        source = self._build_expr(stmt.expr, var_map)
        bounds, all_rows, all_cols = self._build_index_bounds(
            stmt.row_range, stmt.col_range, target, var_map
        )
        return H.LeftIndexingOp(
            target, source, *bounds, all_rows=all_rows, all_cols=all_cols
        )

    # -- expressions -----------------------------------------------------

    def _read_var(self, name, var_map, line=0):
        if name in var_map:
            return var_map[name]
        dtype = self.var_types.get(name, DataType.MATRIX)
        hop = H.DataOp(H.DataOpKind.TRANSIENT_READ, name, data_type=dtype)
        var_map[name] = hop
        return hop

    def _build_expr(self, expr, var_map):
        if isinstance(expr, ast.Literal):
            vt = {
                "int": ValueType.INT64,
                "double": ValueType.FP64,
                "boolean": ValueType.BOOLEAN,
                "string": ValueType.STRING,
            }[expr.vtype]
            return H.LiteralOp(expr.value, vt)
        if isinstance(expr, ast.CommandLineArg):
            return self._resolve_arg(expr.name, expr.line)
        if isinstance(expr, ast.Identifier):
            return self._read_var(expr.name, var_map, expr.line)
        if isinstance(expr, ast.UnaryExpr):
            operand = self._build_expr(expr.operand, var_map)
            if expr.op == "!":
                return H.UnaryOp(
                    H.OpCode.NOT, operand, value_type=ValueType.BOOLEAN
                )
            if expr.op == "-":
                return H.UnaryOp(H.OpCode.NEG, operand,
                                 value_type=operand.value_type)
            raise CompilerError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.BinaryExpr):
            left = self._build_expr(expr.left, var_map)
            right = self._build_expr(expr.right, var_map)
            if expr.op == "%*%":
                return H.AggBinaryOp(left, right)
            op = _BINARY_OPS.get(expr.op)
            if op is None:
                raise CompilerError(f"unknown binary operator {expr.op!r}")
            vt = _numeric_value_type(left.value_type, right.value_type, op)
            return H.BinaryOp(op, left, right, value_type=vt)
        if isinstance(expr, ast.IndexingExpr):
            target = self._build_expr(expr.target, var_map)
            bounds, all_rows, all_cols = self._build_index_bounds(
                expr.row_range, expr.col_range, target, var_map
            )
            return H.IndexingOp(
                target, *bounds, all_rows=all_rows, all_cols=all_cols
            )
        if isinstance(expr, ast.FunctionCall):
            return self._build_call_expr(expr, var_map)
        raise CompilerError(f"unknown expression type {type(expr).__name__}")

    def _build_index_bounds(self, row_range, col_range, target, var_map):
        """Build the four bound HOPs of an indexing op.

        Missing bounds default to 1 / nrow / ncol of the target; fully
        absent dimensions set the all_rows/all_cols flags so downstream
        phases can treat them as full-width accesses.
        """

        def bound(rng, is_row):
            if rng is None or rng.is_all:
                one = H.LiteralOp(1)
                end = H.UnaryOp(
                    H.OpCode.NROW if is_row else H.OpCode.NCOL,
                    target,
                    data_type=DataType.SCALAR,
                    value_type=ValueType.INT64,
                )
                return one, end, True
            lower = (
                self._build_expr(rng.lower, var_map)
                if rng.lower is not None
                else H.LiteralOp(1)
            )
            if not rng.is_range:
                return lower, lower, False
            if rng.upper is not None:
                upper = self._build_expr(rng.upper, var_map)
            else:
                upper = H.UnaryOp(
                    H.OpCode.NROW if is_row else H.OpCode.NCOL,
                    target,
                    data_type=DataType.SCALAR,
                    value_type=ValueType.INT64,
                )
            return lower, upper, False

        rl, ru, all_rows = bound(row_range, True)
        cl, cu, all_cols = bound(col_range, False)
        return (rl, ru, cl, cu), all_rows, all_cols

    def _build_call_expr(self, call, var_map):
        name = call.name
        if name in self.functions:
            fop = self._build_function_call(call, var_map)
            func = self.functions[name]
            out_param = func.outputs[0]
            dtype = (
                DataType.MATRIX if out_param.data_type == "matrix" else DataType.SCALAR
            )
            return H.FunctionOutput(fop, 0, data_type=dtype)
        if name == "read":
            return self._build_read(call, var_map)
        if name == "ifdef":
            arg = call.args[0]
            if arg.name in self.args:
                return self._resolve_arg(arg.name, call.line)
            return self._build_expr(call.args[1], var_map)
        if name in _UNARY_MATH:
            inp = self._build_expr(call.args[0], var_map)
            return H.UnaryOp(_UNARY_MATH[name], inp)
        if name == "log":
            inp = self._build_expr(call.args[0], var_map)
            if len(call.args) == 1:
                return H.UnaryOp(H.OpCode.LOG, inp)
            base = self._build_expr(call.args[1], var_map)
            return H.BinaryOp(
                H.OpCode.DIV,
                H.UnaryOp(H.OpCode.LOG, inp),
                H.UnaryOp(H.OpCode.LOG, base),
            )
        if name in ("nrow", "ncol", "length"):
            inp = self._build_expr(call.args[0], var_map)
            op = {
                "nrow": H.OpCode.NROW,
                "ncol": H.OpCode.NCOL,
                "length": H.OpCode.LENGTH,
            }[name]
            return H.UnaryOp(
                op, inp, data_type=DataType.SCALAR, value_type=ValueType.INT64
            )
        if name in ("sum", "mean", "trace"):
            inp = self._build_expr(call.args[0], var_map)
            op = {
                "sum": H.OpCode.SUM,
                "mean": H.OpCode.MEAN,
                "trace": H.OpCode.TRACE,
            }[name]
            return H.AggUnaryOp(op, H.AggDirection.ALL, inp)
        if name in ("min", "max"):
            op = H.OpCode.MIN if name == "min" else H.OpCode.MAX
            if len(call.args) == 1:
                inp = self._build_expr(call.args[0], var_map)
                return H.AggUnaryOp(op, H.AggDirection.ALL, inp)
            left = self._build_expr(call.args[0], var_map)
            right = self._build_expr(call.args[1], var_map)
            return H.BinaryOp(op, left, right)
        if name in _ROWCOL_AGGS:
            inp = self._build_expr(call.args[0], var_map)
            op, direction = _ROWCOL_AGGS[name]
            return H.AggUnaryOp(op, direction, inp)
        if name == "t":
            inp = self._build_expr(call.args[0], var_map)
            return H.ReorgOp(H.OpCode.TRANSPOSE, inp)
        if name == "diag":
            inp = self._build_expr(call.args[0], var_map)
            return H.ReorgOp(H.OpCode.DIAG, inp)
        if name == "cumsum":
            inp = self._build_expr(call.args[0], var_map)
            return H.UnaryOp(H.OpCode.CUMSUM, inp)
        if name == "removeEmpty":
            target_expr = call.named_args.get("target")
            if target_expr is None and call.args:
                target_expr = call.args[0]
            if target_expr is None:
                raise CompilerError(
                    f"removeEmpty() requires target= (line {call.line})"
                )
            inp = self._build_expr(target_expr, var_map)
            margin = "rows"
            margin_expr = call.named_args.get("margin")
            if margin_expr is not None:
                margin_hop = self._build_expr(margin_expr, var_map)
                margin = getattr(margin_hop, "value", "rows")
            if margin not in ("rows", "cols"):
                raise CompilerError(
                    f"removeEmpty() margin must be 'rows' or 'cols' "
                    f"(line {call.line})"
                )
            hop = H.UnaryOp(H.OpCode.REMOVE_EMPTY, inp)
            hop.margin = margin
            return hop
        if name == "matrix":
            value = self._build_expr(call.args[0], var_map)
            rows = self._named_or_positional(call, "rows", 1, var_map)
            cols = self._named_or_positional(call, "cols", 2, var_map)
            return H.DataGenOp(
                H.OpCode.RAND,
                {"min": value, "max": value, "rows": rows, "cols": cols},
                builtin="matrix",
            )
        if name == "rand":
            params = {}
            for key in ("rows", "cols", "min", "max", "sparsity", "seed"):
                if key in call.named_args:
                    params[key] = self._build_expr(call.named_args[key], var_map)
            params.setdefault("min", H.LiteralOp(0.0))
            params.setdefault("max", H.LiteralOp(1.0))
            params.setdefault("sparsity", H.LiteralOp(1.0))
            return H.DataGenOp(H.OpCode.RAND, params)
        if name == "seq":
            frm = self._build_expr(call.args[0], var_map)
            to = self._build_expr(call.args[1], var_map)
            params = {"from": frm, "to": to}
            if len(call.args) > 2:
                params["incr"] = self._build_expr(call.args[2], var_map)
            return H.DataGenOp(H.OpCode.SEQ, params)
        if name == "solve":
            a = self._build_expr(call.args[0], var_map)
            b = self._build_expr(call.args[1], var_map)
            return H.BinaryOp(H.OpCode.SOLVE, a, b, data_type=DataType.MATRIX)
        if name == "ppred":
            left = self._build_expr(call.args[0], var_map)
            right = self._build_expr(call.args[1], var_map)
            op_lit = call.args[2]
            if not isinstance(op_lit, ast.Literal) or op_lit.value not in _PPRED_OPS:
                raise CompilerError(
                    f"ppred operator must be a comparison string literal "
                    f"(line {call.line})"
                )
            return H.BinaryOp(
                _PPRED_OPS[op_lit.value], left, right, data_type=DataType.MATRIX
            )
        if name == "table":
            ins = [self._build_expr(arg, var_map) for arg in call.args]
            return H.TernaryOp(H.OpCode.CTABLE, ins)
        if name in ("append", "cbind"):
            left = self._build_expr(call.args[0], var_map)
            right = self._build_expr(call.args[1], var_map)
            return H.BinaryOp(H.OpCode.CBIND, left, right,
                              data_type=DataType.MATRIX)
        if name == "rbind":
            left = self._build_expr(call.args[0], var_map)
            right = self._build_expr(call.args[1], var_map)
            return H.BinaryOp(H.OpCode.RBIND, left, right,
                              data_type=DataType.MATRIX)
        if name in _CASTS:
            op, dtype, vtype = _CASTS[name]
            inp = self._build_expr(call.args[0], var_map)
            return H.UnaryOp(op, inp, data_type=dtype, value_type=vtype)
        raise CompilerError(f"unsupported builtin {name!r} (line {call.line})")

    def _build_function_call(self, call, var_map):
        func = self.functions[call.name]
        bound = {}
        for param, arg in zip(func.inputs, call.args):
            bound[param.name] = self._build_expr(arg, var_map)
        for key, arg in call.named_args.items():
            bound[key] = self._build_expr(arg, var_map)
        ordered = []
        for param in func.inputs:
            if param.name in bound:
                ordered.append(bound[param.name])
            elif param.default is not None:
                ordered.append(self._build_expr(param.default, var_map))
            else:
                raise CompilerError(
                    f"missing argument {param.name!r} in call to "
                    f"{call.name!r} (line {call.line})"
                )
        return H.FunctionOp(call.name, ordered, [p.name for p in func.outputs])

    def _named_or_positional(self, call, key, pos, var_map):
        if key in call.named_args:
            return self._build_expr(call.named_args[key], var_map)
        if len(call.args) > pos:
            return self._build_expr(call.args[pos], var_map)
        raise CompilerError(
            f"matrix() requires {key!r} (line {call.line})"
        )

    # -- argument resolution ---------------------------------------------

    def _resolve_arg(self, name, line):
        if name not in self.args:
            raise CompilerError(
                f"script argument ${name} not provided (line {line})"
            )
        value = self.args[name]
        if isinstance(value, bool):
            return H.LiteralOp(value, ValueType.BOOLEAN)
        if isinstance(value, int):
            return H.LiteralOp(value, ValueType.INT64)
        if isinstance(value, float):
            return H.LiteralOp(value, ValueType.FP64)
        return H.LiteralOp(str(value), ValueType.STRING)

    def _resolve_filename(self, expr, var_map):
        hop = self._build_expr(expr, var_map)
        if isinstance(hop, H.LiteralOp):
            return str(hop.value)
        raise CompilerError("write() target filename must be a constant")

    def _build_read(self, call, var_map):
        fname = self._resolve_filename(call.args[0], var_map)
        fmt = None
        if "format" in call.named_args:
            fmt_hop = self._build_expr(call.named_args["format"], var_map)
            fmt = getattr(fmt_hop, "value", None)
        return H.DataOp(
            H.DataOpKind.PERSISTENT_READ,
            name=fname,
            data_type=DataType.MATRIX,
            fname=fname,
            fmt=fmt,
        )


def build_hops(block_program):
    """Construct HOP DAGs for every block of ``block_program`` in place."""
    return HopBuilder(block_program).build()
