"""Semantic operator kernels.

Each kernel computes the *sample* result with numpy and the *logical*
output characteristics from the logical input characteristics (dims) and
the sample's measured density (nnz).  Kernels are shared between CP
instruction execution and MR step execution — only the time accounting
differs (done by the interpreter, not here).

Scalar results are exact over the sample; aggregates over row-sampled
matrices behave like the same algorithm on a smaller dataset, which
preserves convergence behaviour (documented in DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common import (
    SCALAR_FAILURES,
    SCALAR_UNARY,
    MatrixCharacteristics,
    display,
    scalar_binary,
    seq_length,
)
from repro.errors import ExecutionError
from repro.runtime.matrix import MatrixObject, measure_nnz, sample_rows

# -- kernel result helpers -----------------------------------------------


def _matrix_result(data, rows, cols):
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    mc = MatrixCharacteristics(
        int(rows), int(cols), measure_nnz(data, int(rows) * int(cols))
    )
    return ("matrix", data, mc)


def _scalar_result(value):
    return ("scalar", value, None)


def no_value(opcode, args, exc):
    """The typed error of a scalar operator without a value for ``args``."""
    shown = ", ".join(display(value) for value in args)
    return ExecutionError(f"{opcode}({shown}) has no value: {exc}")


def _is_matrix(value):
    return isinstance(value, MatrixObject)


def _zero_nonfinite(out):
    """``np.nan_to_num(out, copy=False, posinf=0.0, neginf=0.0)`` for an
    elementwise result: nan and +-inf become 0.0 in place, every finite
    value (-0.0 and denormals included) keeps its bits.  A sample is
    almost always all finite, which one ``isfinite`` pass finds out at a
    sixth of ``nan_to_num``'s Python-level overhead."""
    if type(out) is np.ndarray and out.dtype == np.float64:
        finite = np.isfinite(out)
        if not finite.all():
            out[~finite] = 0.0
        return out
    return np.nan_to_num(out, copy=False, posinf=0.0, neginf=0.0)


# -- elementwise binary ----------------------------------------------------

_BINARY_NUMPY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "%%": np.mod,
    "%/%": np.floor_divide,
    "min": np.minimum,
    "max": np.maximum,
}

_RELATIONAL_NUMPY = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _align_elementwise(sa, sb):
    """Truncate two samples to a numpy-broadcastable common shape.

    For each axis where both sides exceed 1 but differ (a sampling
    artifact of appends/binds), both are truncated to the shorter side;
    singleton axes broadcast as usual.
    """
    ra, ca = sa.shape
    rb, cb = sb.shape
    if ra != rb and min(ra, rb) > 1:
        k = min(ra, rb)
        sa, sb = sa[:k, :], sb[:k, :]
    if ca != cb and min(ca, cb) > 1:
        k = min(ca, cb)
        sa, sb = sa[:, :k], sb[:, :k]
    return sa, sb


def _binary(opcode, inputs, attrs, *_):
    a, b = inputs
    if not _is_matrix(a) and not _is_matrix(b):
        try:
            return _scalar_result(scalar_binary(opcode, a, b))
        except SCALAR_FAILURES as exc:
            raise no_value(opcode, inputs, exc) from exc
    if not _is_matrix(b):
        sa, sb = a.data, b
        rows, cols = a.mc.rows, a.mc.cols
    elif not _is_matrix(a):
        sa, sb = a, b.data
        rows, cols = b.mc.rows, b.mc.cols
    else:
        sa, sb = a.data, b.data
        rows, cols = max(a.mc.rows, b.mc.rows), max(a.mc.cols, b.mc.cols)
        if sa.shape != sb.shape:
            sa, sb = _align_elementwise(sa, sb)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if opcode in _BINARY_NUMPY:
            out = _zero_nonfinite(_BINARY_NUMPY[opcode](sa, sb))
        elif opcode in _RELATIONAL_NUMPY:
            out = _RELATIONAL_NUMPY[opcode](sa, sb).astype(np.float64)
        elif opcode == "&":
            out = ((np.asarray(sa) != 0) & (np.asarray(sb) != 0)).astype(float)
        elif opcode == "|":
            out = ((np.asarray(sa) != 0) | (np.asarray(sb) != 0)).astype(float)
        else:
            raise ExecutionError(f"unknown binary opcode {opcode!r}")
    return _matrix_result(out, rows, cols)


# -- elementwise unary -------------------------------------------------------

_UNARY_NUMPY = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "round": np.round,
    "floor": np.floor,
    "ceil": np.ceil,
    "sign": np.sign,
    "u-": np.negative,
}

def _cumsum(opcode, inputs, attrs, *_):
    (a,) = inputs
    out = np.cumsum(a.data, axis=0)
    return _matrix_result(out, a.mc.rows, a.mc.cols)


def _remove_empty(opcode, inputs, attrs, *_):
    (a,) = inputs
    data = a.data
    if attrs.get("margin", "rows") == "rows":
        keep = np.any(data != 0, axis=1)
        out = data[keep, :]
        if out.shape[0] == 0:
            out = np.zeros((1, data.shape[1]))
        fraction = keep.mean() if keep.size else 0.0
        rows = max(1, int(round(fraction * a.mc.rows)))
        return _matrix_result(out, rows, a.mc.cols)
    keep = np.any(data != 0, axis=0)
    out = data[:, keep]
    if out.shape[1] == 0:
        out = np.zeros((data.shape[0], 1))
    fraction = keep.mean() if keep.size else 0.0
    cols = max(1, int(round(fraction * a.mc.cols)))
    return _matrix_result(out, a.mc.rows, cols)


def _unary(opcode, inputs, attrs, *_):
    (a,) = inputs
    if not _is_matrix(a):
        try:
            return _scalar_result(SCALAR_UNARY[opcode](a))
        except SCALAR_FAILURES as exc:
            raise no_value(opcode, inputs, exc) from exc
    if opcode == "!":
        return _matrix_result(
            (np.asarray(a.data) == 0).astype(float), a.mc.rows, a.mc.cols
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _zero_nonfinite(_UNARY_NUMPY[opcode](a.data))
    return _matrix_result(out, a.mc.rows, a.mc.cols)


# -- aggregates --------------------------------------------------------------


def _row_factor(a):
    """Logical-to-sample scale factor of the row dimension."""
    srows = a.data.shape[0]
    return (a.mc.rows / srows) if srows else 1.0


def _col_factor(a):
    srows = a.data.shape[1]
    return (a.mc.cols / srows) if srows else 1.0


def _agg_unary(opcode, inputs, attrs, *_):
    """Aggregates.

    Sum-like aggregates (sum, colSums, rowSums, trace) scale by the
    logical/sample factor of the reduced dimension(s) so that their
    values approximate full-scale magnitudes — means, R2, and accuracy
    statistics derived from them come out right, and ratios used in
    convergence tests are unaffected.  Min/max/mean need no scaling.
    """
    (a,) = inputs
    data = a.data
    if opcode.startswith("uar"):
        suffix = opcode[3:]
        if suffix == "+":
            out = data.sum(axis=1) * _col_factor(a)
        elif suffix == "mean":
            out = data.mean(axis=1)
        elif suffix == "max":
            out = data.max(axis=1)
        elif suffix == "min":
            out = data.min(axis=1)
        elif suffix == "imax":
            out = data.argmax(axis=1) + 1.0
        else:
            raise ExecutionError(f"unknown row aggregate {opcode!r}")
        return _matrix_result(out.reshape(-1, 1), a.mc.rows, 1)
    if opcode.startswith("uac"):
        suffix = opcode[3:]
        if suffix == "+":
            out = data.sum(axis=0) * _row_factor(a)
        elif suffix == "mean":
            out = data.mean(axis=0)
        elif suffix == "max":
            out = data.max(axis=0)
        elif suffix == "min":
            out = data.min(axis=0)
        else:
            raise ExecutionError(f"unknown column aggregate {opcode!r}")
        return _matrix_result(out.reshape(1, -1), 1, a.mc.cols)
    suffix = opcode[2:]
    if suffix == "+":
        value = float(data.sum()) * _row_factor(a) * _col_factor(a)
    elif suffix == "mean":
        value = float(data.mean()) if data.size else 0.0
    elif suffix == "max":
        value = float(data.max()) if data.size else 0.0
    elif suffix == "min":
        value = float(data.min()) if data.size else 0.0
    elif suffix == "trace":
        value = float(np.trace(data)) * _row_factor(a)
    else:
        raise ExecutionError(f"unknown aggregate {opcode!r}")
    return _scalar_result(value)


# -- matrix multiplication -----------------------------------------------


def _align_inner(left, right, l_logical, r_logical, context):
    """Align the inner dimension of a matrix product.

    Samples cap every logical dimension at the sample cap, but appends
    and similar shape perturbations can leave the two sides a few
    elements apart; the product is computed over the common prefix.
    A mismatch of *logical* dimensions is a real error.
    """
    if l_logical != r_logical:
        raise ExecutionError(
            f"{context}: non-conformable logical dims "
            f"{l_logical} x {r_logical}"
        )
    k = min(left.shape[1], right.shape[0])
    return left[:, :k], right[:k, :]


def _matmult(opcode, inputs, attrs, *_):
    a, b = inputs[0], inputs[1]
    if attrs.get("transpose_left"):
        # semantic t(X) %*% v computed without materializing t(X)
        left, right = _align_inner(
            a.data.T, b.data, a.mc.rows, b.mc.rows, "t(X) %*% v"
        )
        out = left @ right
        return _matrix_result(out, a.mc.cols, b.mc.cols)
    left, right = _align_inner(
        a.data, b.data, a.mc.cols, b.mc.rows, "X %*% Y"
    )
    out = left @ right
    return _matrix_result(out, a.mc.rows, b.mc.cols)


def _tsmm(opcode, inputs, attrs, *_):
    (x,) = inputs[:1]
    out = x.data.T @ x.data
    return _matrix_result(out, x.mc.cols, x.mc.cols)


def _mapmmchain(opcode, inputs, attrs, *_):
    x = inputs[0]
    v = inputs[1]
    left, right = _align_inner(
        x.data, v.data, x.mc.cols, v.mc.rows, "mapmmchain"
    )
    if attrs.get("chain") == "XtwXv":
        w = inputs[2]
        inner = _align_elementwise(w.data, left @ right)[0] * (left @ right)
    else:
        inner = left @ right
    out = left.T @ inner
    return _matrix_result(out, x.mc.cols, v.mc.cols)


def _takpm(opcode, inputs, attrs, *_):
    a, b, c = inputs
    value = float(np.sum(a.data * b.data * c.data))
    return _scalar_result(value * _row_factor(a) * _col_factor(a))


# -- reorg / indexing ---------------------------------------------------


def _transpose(opcode, inputs, attrs, *_):
    (a,) = inputs
    return _matrix_result(a.data.T.copy(), a.mc.cols, a.mc.rows)


def _diag(opcode, inputs, attrs, *_):
    (a,) = inputs
    if a.mc.cols == 1:
        out = np.diagflat(a.data.ravel())
        return _matrix_result(out, a.mc.rows, a.mc.rows)
    out = np.diag(a.data).reshape(-1, 1).copy()
    return _matrix_result(out, a.mc.rows, 1)


def _as_index(value):
    """A runtime index or size as an int; nan and +-inf have none."""
    index = float(value)
    if not math.isfinite(index):
        raise ExecutionError(f"index or size {display(value)} is not finite")
    return int(round(index))


def _rix(opcode, inputs, attrs, *_):
    target = inputs[0]
    rl, ru, cl, cu = (inputs[1], inputs[2], inputs[3], inputs[4])
    srows, scols = target.data.shape
    if attrs.get("all_rows"):
        r0, r1 = 0, srows
        out_rows = target.mc.rows
    else:
        lo, hi = _as_index(rl), _as_index(ru)
        out_rows = max(0, hi - lo + 1)
        r0 = min(max(lo - 1, 0), srows)
        r1 = min(hi, srows)
        if r1 <= r0:  # range beyond the sample: clamp to its tail
            span = min(out_rows, srows)
            r0, r1 = srows - span, srows
    if attrs.get("all_cols"):
        c0, c1 = 0, scols
        out_cols = target.mc.cols
    else:
        lo, hi = _as_index(cl), _as_index(cu)
        out_cols = max(0, hi - lo + 1)
        c0 = min(max(lo - 1, 0), scols)
        c1 = min(hi, scols)
        if c1 <= c0:
            span = min(out_cols, scols)
            c0, c1 = scols - span, scols
    out = target.data[r0:r1, c0:c1].copy()
    return _matrix_result(out, out_rows, out_cols)


def _lix(opcode, inputs, attrs, *_):
    target, source = inputs[0], inputs[1]
    rl, ru, cl, cu = (inputs[2], inputs[3], inputs[4], inputs[5])
    out = target.data.copy()
    srows, scols = out.shape
    if attrs.get("all_rows"):
        r0, r1 = 0, srows
    else:
        r0 = min(max(_as_index(rl) - 1, 0), srows)
        r1 = min(_as_index(ru), srows)
    if attrs.get("all_cols"):
        c0, c1 = 0, scols
    else:
        c0 = min(max(_as_index(cl) - 1, 0), scols)
        c1 = min(_as_index(cu), scols)
    src = source.data
    rows = min(r1 - r0, src.shape[0])
    cols = min(c1 - c0, src.shape[1])
    if rows > 0 and cols > 0:
        out[r0:r0 + rows, c0:c0 + cols] = src[:rows, :cols]
    return _matrix_result(out, target.mc.rows, target.mc.cols)


# -- data generation -----------------------------------------------------


def _rand(opcode, inputs, attrs, rng, sample_cap):
    if rng is None:
        rng = np.random.default_rng(0)
    params = attrs.get("params", [])
    values = dict(zip(params, inputs))
    rows = _as_index(values.get("rows", 1))
    cols = _as_index(values.get("cols", 1))
    for dim, value in (("rows", rows), ("cols", cols)):
        if value < 0:
            raise ExecutionError(
                f"{attrs.get('builtin', opcode)}(): {dim} must be "
                f"non-negative, got {value}"
            )
    min_v = float(values.get("min", 0.0))
    max_v = float(values.get("max", 1.0))
    sparsity = float(values.get("sparsity", 1.0))
    srows = sample_rows(rows, sample_cap)
    scols = sample_rows(cols, sample_cap)
    if min_v == max_v:
        data = np.full((srows, scols), min_v)
    else:
        data = rng.uniform(min_v, max_v, size=(srows, scols))
        if sparsity < 1.0:
            mask = rng.random((srows, scols)) < sparsity
            data = np.where(mask, data, 0.0)
    return _matrix_result(data, rows, cols)


def _seq(opcode, inputs, attrs, rng, sample_cap):
    params = attrs.get("params", [])
    values = dict(zip(params, inputs))
    frm = values.get("from", 1)
    to = values.get("to", 1)
    incr = values.get("incr", 1)
    if incr == 0:
        raise ExecutionError("seq() increment must be non-zero")
    try:
        n = seq_length(frm, to, incr)
    except SCALAR_FAILURES as exc:
        raise no_value(opcode, (frm, to, incr), exc) from exc
    srows = sample_rows(n, sample_cap)
    data = (float(frm) + float(incr) * np.arange(srows)).reshape(-1, 1)
    return _matrix_result(data, n, 1)


def _ctable(opcode, inputs, attrs, *_):
    a, b = inputs[0], inputs[1]
    av = a.data.ravel()
    bv = b.data.ravel()
    k_common = min(av.shape[0], bv.shape[0])
    av, bv = av[:k_common], bv[:k_common]
    if k_common == 0:
        raise ExecutionError("table(): empty input vectors")
    k = int(max(1, bv.max())) if bv.size else 1
    # the common pattern table(seq(1,n), y): one row per observation
    out = np.zeros((av.shape[0], k))
    cols = np.clip(bv.astype(int) - 1, 0, k - 1)
    out[np.arange(av.shape[0]), cols] = 1.0
    return _matrix_result(out, a.mc.rows, k)


# -- binds, solve, casts -------------------------------------------------


def _cbind(opcode, inputs, attrs, *_):
    a, b = inputs
    rows = min(a.data.shape[0], b.data.shape[0])
    out = np.hstack([a.data[:rows], b.data[:rows]])
    return _matrix_result(out, a.mc.rows, a.mc.cols + b.mc.cols)


def _rbind(opcode, inputs, attrs, rng, sample_cap):
    a, b = inputs
    cols = min(a.data.shape[1], b.data.shape[1])
    out = np.vstack([a.data[:, :cols], b.data[:, :cols]])
    rows = a.mc.rows + b.mc.rows
    cap = sample_rows(rows, sample_cap)
    if out.shape[0] > cap:
        out = out[:cap, :]
    return _matrix_result(out, rows, a.mc.cols)


def _solve(opcode, inputs, attrs, *_):
    a, b = inputs
    try:
        from scipy import linalg as scipy_linalg

        out = scipy_linalg.solve(a.data, b.data, assume_a="gen")
    except Exception:
        out, *_ = np.linalg.lstsq(a.data, b.data, rcond=None)
    return _matrix_result(out, a.mc.cols, b.mc.cols)


def _cast(opcode, inputs, attrs, *_):
    (a,) = inputs
    if opcode == "castdts":
        value = a.data if _is_matrix(a) else a
        return _scalar_result(float(np.asarray(value).ravel()[0]))
    try:
        if opcode == "castdtm":
            return _matrix_result(np.array([[float(a)]]), 1, 1)
        return _scalar_result(SCALAR_UNARY[opcode](a))
    except SCALAR_FAILURES as exc:
        raise no_value(opcode, inputs, exc) from exc


def _metadata(opcode, inputs, attrs, *_):
    (a,) = inputs
    if opcode == "nrow":
        return _scalar_result(a.mc.rows)
    if opcode == "ncol":
        return _scalar_result(a.mc.cols)
    if opcode == "length":
        return _scalar_result(a.mc.cells)
    raise ExecutionError(f"unknown metadata opcode {opcode!r}")


# -- dispatch ------------------------------------------------------------

#: the opcodes of the elementwise binary kernel (``scalar_binary``'s on
#: scalar operands)
ELEMENTWISE_BINARY = (*_BINARY_NUMPY, *_RELATIONAL_NUMPY, "&", "|")


def _no_kernel(opcode, *_):
    raise ExecutionError(f"no kernel for opcode {opcode!r}")


#: the one opcode -> kernel table; every kernel is called as
#: ``kernel(opcode, inputs, attrs, rng, sample_cap)``
KERNELS = dict.fromkeys(ELEMENTWISE_BINARY, _binary)
KERNELS.update(dict.fromkeys((*_UNARY_NUMPY, "!"), _unary))
KERNELS.update(
    {
        "ba+*": _matmult,
        "ucumk+": _cumsum,
        "rmempty": _remove_empty,
        "tsmm": _tsmm,
        "mapmmchain": _mapmmchain,
        "tak+*": _takpm,
        "r'": _transpose,
        "rdiag": _diag,
        "rix": _rix,
        "lix": _lix,
        "rand": _rand,
        "seq": _seq,
        "ctable": _ctable,
        "cbind": _cbind,
        "rbind": _rbind,
        "solve": _solve,
    }
)
KERNELS.update(dict.fromkeys(
    ("castdts", "castdtm", "castvtd", "castvti", "castvtb"), _cast
))
KERNELS.update(dict.fromkeys(("nrow", "ncol", "length"), _metadata))
KERNELS.update(dict.fromkeys(
    ("ua+", "uamean", "uamax", "uamin", "uatrace",
     "uar+", "uarmean", "uarmax", "uarmin", "uarimax",
     "uac+", "uacmean", "uacmax", "uacmin"),
    _agg_unary,
))


def execute_kernel(opcode, inputs, attrs=None, rng=None, sample_cap=2048):
    """Execute one semantic operator.

    ``inputs`` contains resolved values: :class:`MatrixObject` or python
    scalars.  Returns ``("matrix", sample, mc)`` or ``("scalar", value,
    None)``.
    """
    kernel = KERNELS.get(opcode, _no_kernel)
    return kernel(opcode, inputs, attrs or {}, rng, sample_cap)
