"""Unit tests for the semantic operator kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ExecutionError
from repro.runtime.kernels import _zero_nonfinite, display, execute_kernel
from repro.runtime.matrix import MatrixObject


def mat(data, logical_rows=None):
    return MatrixObject.from_sample(
        np.asarray(data, dtype=float), logical_rows=logical_rows
    )


def run(opcode, *inputs, attrs=None, rng=None, sample_cap=2048):
    return execute_kernel(opcode, list(inputs), attrs, rng, sample_cap)


class TestElementwise:
    def test_matrix_addition(self):
        kind, data, mc = run("+", mat([[1, 2]]), mat([[3, 4]]))
        assert kind == "matrix"
        assert data.tolist() == [[4, 6]]

    def test_scalar_arithmetic(self):
        assert run("*", 3, 4)[1] == 12
        assert run("^", 2, 10)[1] == 1024
        assert run("%/%", 7, 2)[1] == 3

    def test_string_concat_display(self):
        assert run("+", "x=", True)[1] == "x=TRUE"

    def test_matrix_scalar_broadcast(self):
        _, data, _ = run("-", mat([[5, 6]]), 1)
        assert data.tolist() == [[4, 5]]

    def test_column_vector_broadcast(self):
        X = mat([[1, 2], [3, 4]])
        v = mat([[10], [20]])
        _, data, _ = run("*", X, v)
        assert data.tolist() == [[10, 20], [60, 80]]

    def test_division_by_zero_sanitized(self):
        _, data, _ = run("/", mat([[1.0]]), mat([[0.0]]))
        assert np.isfinite(data).all()

    def test_relational_produces_indicator(self):
        _, data, _ = run(">", mat([[-1, 2]]), 0)
        assert data.tolist() == [[0.0, 1.0]]

    def test_boolean_ops(self):
        _, data, _ = run("&", mat([[1, 0]]), mat([[1, 1]]))
        assert data.tolist() == [[1.0, 0.0]]
        assert run("|", False, True)[1] is True

    def test_unary_math(self):
        _, data, _ = run("sqrt", mat([[4.0, 9.0]]))
        assert data.tolist() == [[2.0, 3.0]]
        assert run("exp", 0.0)[1] == 1.0

    def test_not_on_matrix(self):
        _, data, _ = run("!", mat([[0.0, 2.0]]))
        assert data.tolist() == [[1.0, 0.0]]

    def test_logical_dims_broadcast(self):
        X = MatrixObject.generate(10**5, 4, sample_cap=16)
        v = MatrixObject.generate(10**5, 1, sample_cap=16)
        _, _, mc = run("+", X, v)
        assert (mc.rows, mc.cols) == (10**5, 4)


def _nan_to_num(out):
    """The epilogue ``_binary`` / ``_unary`` used to run."""
    return np.nan_to_num(out, copy=False, posinf=0.0, neginf=0.0)


class TestZeroNonfinite:
    """``_zero_nonfinite`` is ``np.nan_to_num(..., posinf=0.0,
    neginf=0.0)`` byte for byte, in place."""

    SPECIALS = [
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310,
        2.2250738585072014e-308, 1.797e308, -1.797e308,
    ]
    shapes = st.one_of(
        st.tuples(st.integers(1, 8), st.integers(2, 8)),  # (n, k)
        st.tuples(st.integers(1, 8), st.just(1)),  # (n, 1)
        st.just((1, 1)),
        st.tuples(st.just(0), st.integers(1, 8)),  # (0, k)
    )

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(arrays(
        np.float64, shapes,
        elements=st.one_of(st.sampled_from(SPECIALS), st.floats(width=64)),
    ))
    def test_same_bytes_same_object(self, array):
        expected = _nan_to_num(array.copy())
        assert _zero_nonfinite(array) is array
        assert array.tobytes() == expected.tobytes()

    def test_every_special_value(self):
        array = np.array([self.SPECIALS])
        _zero_nonfinite(array)
        assert array[0, :3].tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(array[0, :3]).any()
        assert array[0, 3:].tobytes() == np.array(self.SPECIALS[3:]).tobytes()

    @pytest.mark.parametrize("value", [
        np.array([[np.nan, 1.5, -np.inf]], dtype=np.float32),
        np.array([[1, 2]]),
        np.array([[np.nan, 1.5, np.inf]]).view(np.recarray),
    ], ids=lambda value: type(value).__name__ + str(value.dtype))
    def test_anything_else_falls_back_to_nan_to_num(self, value):
        expected = _nan_to_num(value.copy())
        out = _zero_nonfinite(value)
        assert out is value and type(out) is type(expected)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_kernels_zero_what_they_used_to(self):
        _, data, mc = run("/", mat([[1, 0, -1, 4]]), mat([[0, 0, 0, 2]]))
        assert data.tolist() == [[0.0, 0.0, 0.0, 2.0]] and mc.nnz == 1
        _, data, _ = run("log", mat([[0.0, 1.0, -1.0]]))
        assert data.tolist() == [[0.0, 0.0, 0.0]]
        _, data, _ = run("*", mat([[-1.0, 2.0]]), 0.0)
        assert np.signbit(data).tolist() == [[True, False]]  # -0.0 stays


class TestAggregates:
    def test_sum_scales_to_logical(self):
        obj = mat(np.ones((10, 2)), logical_rows=1000)
        assert run("ua+", obj)[1] == pytest.approx(2000.0)

    def test_mean_not_scaled(self):
        obj = mat(np.full((10, 2), 5.0), logical_rows=1000)
        assert run("uamean", obj)[1] == pytest.approx(5.0)

    def test_min_max(self):
        obj = mat([[1, -2], [7, 0]])
        assert run("uamax", obj)[1] == 7
        assert run("uamin", obj)[1] == -2

    def test_rowsums_shape(self):
        obj = mat([[1, 2], [3, 4]])
        _, data, mc = run("uar+", obj)
        assert data.tolist() == [[3], [7]]
        assert (mc.rows, mc.cols) == (2, 1)

    def test_colsums_scaled(self):
        obj = mat(np.ones((10, 3)), logical_rows=100)
        _, data, mc = run("uac+", obj)
        assert data.tolist() == [[100.0, 100.0, 100.0]]
        assert (mc.rows, mc.cols) == (1, 3)

    def test_rowindexmax_one_based(self):
        obj = mat([[1, 9, 2], [8, 0, 1]])
        _, data, _ = run("uarimax", obj)
        assert data.ravel().tolist() == [2.0, 1.0]

    def test_trace(self):
        obj = mat(np.diag([1.0, 2.0, 3.0]))
        assert run("uatrace", obj)[1] == pytest.approx(6.0)

    def test_ternary_aggregate(self):
        a = mat([[1], [2]])
        b = mat([[3], [4]])
        c = mat([[5], [6]])
        assert run("tak+*", a, b, c)[1] == pytest.approx(1 * 3 * 5 + 2 * 4 * 6)


class TestMatMult:
    def test_basic_product(self):
        A = mat([[1, 2], [3, 4]])
        B = mat([[1], [1]])
        _, data, mc = run("ba+*", A, B)
        assert data.ravel().tolist() == [3.0, 7.0]
        assert (mc.rows, mc.cols) == (2, 1)

    def test_transpose_left_attr(self):
        X = mat([[1, 2], [3, 4]])
        v = mat([[1], [1]])
        _, data, _ = run("ba+*", X, v, attrs={"transpose_left": True})
        assert data.ravel().tolist() == [4.0, 6.0]

    def test_nonconformable_raises(self):
        with pytest.raises(ExecutionError):
            run("ba+*", mat([[1, 2]]), mat([[1, 2]]))

    def test_tsmm(self):
        X = mat([[1, 2], [3, 4]])
        _, data, mc = run("tsmm", X)
        expected = np.array([[10, 14], [14, 20]])
        assert np.allclose(data, expected)
        assert (mc.rows, mc.cols) == (2, 2)

    def test_mapmmchain_plain(self):
        X = mat([[1.0, 0.0], [0.0, 2.0]])
        v = mat([[3.0], [4.0]])
        _, data, _ = run("mapmmchain", X, v, attrs={"chain": "XtXv"})
        assert np.allclose(data, X.data.T @ (X.data @ v.data))

    def test_mapmmchain_weighted(self):
        X = mat([[1.0, 0.0], [0.0, 2.0]])
        v = mat([[3.0], [4.0]])
        w = mat([[0.5], [0.25]])
        _, data, _ = run("mapmmchain", X, v, w, attrs={"chain": "XtwXv"})
        assert np.allclose(data, X.data.T @ (w.data * (X.data @ v.data)))


class TestReorgIndexingData:
    def test_transpose(self):
        _, data, mc = run("r'", mat([[1, 2, 3]]))
        assert data.shape == (3, 1)
        assert (mc.rows, mc.cols) == (3, 1)

    def test_diag_vector_to_matrix(self):
        _, data, mc = run("rdiag", mat([[2], [3]]))
        assert np.allclose(data, np.diag([2.0, 3.0]))

    def test_diag_matrix_to_vector(self):
        _, data, mc = run("rdiag", mat([[1, 9], [8, 4]]))
        assert data.ravel().tolist() == [1.0, 4.0]
        assert mc.cols == 1

    def test_rix_columns(self):
        X = mat([[1, 2, 3], [4, 5, 6]])
        _, data, mc = run(
            "rix", X, 0, 0, 2, 3,
            attrs={"all_rows": True, "all_cols": False},
        )
        assert data.tolist() == [[2, 3], [5, 6]]
        assert (mc.rows, mc.cols) == (2, 2)

    def test_rix_single_row(self):
        X = mat([[1, 2], [3, 4]])
        _, data, _ = run(
            "rix", X, 2, 2, 0, 0,
            attrs={"all_rows": False, "all_cols": True},
        )
        assert data.tolist() == [[3, 4]]

    def test_lix_region_update(self):
        X = mat(np.zeros((3, 3)))
        Y = mat(np.ones((2, 3)))
        _, data, _ = run(
            "lix", X, Y, 1, 2, 0, 0,
            attrs={"all_rows": False, "all_cols": True},
        )
        assert data[:2].sum() == 6.0
        assert data[2].sum() == 0.0

    def test_rand_constant(self):
        _, data, mc = run(
            "rand", 5.0, 5.0, 4, 2,
            attrs={"params": ["min", "max", "rows", "cols"]},
        )
        assert data.shape == (4, 2)
        assert np.all(data == 5.0)

    def test_rand_capped_sample(self):
        _, data, mc = run(
            "rand", 0.0, 1.0, 10**6, 3,
            attrs={"params": ["min", "max", "rows", "cols"]},
            rng=np.random.default_rng(0), sample_cap=32,
        )
        assert data.shape == (32, 3)
        assert mc.rows == 10**6

    def test_seq_values(self):
        _, data, mc = run(
            "seq", 2, 10, 2, attrs={"params": ["from", "to", "incr"]}
        )
        assert data.ravel().tolist() == [2, 4, 6, 8, 10]

    def test_seq_zero_increment_raises(self):
        with pytest.raises(ExecutionError):
            run("seq", 1, 5, 0, attrs={"params": ["from", "to", "incr"]})

    def test_ctable_indicator(self):
        idx = mat([[1], [2], [3]])
        labels = mat([[2], [1], [2]])
        _, data, mc = run("ctable", idx, labels)
        assert data.tolist() == [[0, 1], [1, 0], [0, 1]]
        assert mc.cols == 2

    def test_ctable_logical_rows_from_input(self):
        idx = MatrixObject.generate(10**5, 1, min_value=1, max_value=1,
                                    sample_cap=8)
        labels = mat(np.ones((8, 1)))
        _, _, mc = run("ctable", idx, labels)
        assert mc.rows == 10**5

    def test_cbind(self):
        _, data, mc = run("cbind", mat([[1], [2]]), mat([[3], [4]]))
        assert data.tolist() == [[1, 3], [2, 4]]
        assert mc.cols == 2

    def test_rbind_caps_sample(self):
        a = mat(np.ones((30, 1)))
        b = mat(np.ones((30, 1)))
        _, data, mc = run("rbind", a, b, sample_cap=40)
        assert data.shape[0] == 40
        assert mc.rows == 60

    def test_solve_exact(self):
        A = mat([[2.0, 0.0], [0.0, 4.0]])
        b = mat([[2.0], [8.0]])
        _, data, _ = run("solve", A, b)
        assert np.allclose(data.ravel(), [1.0, 2.0])

    def test_solve_singular_falls_back(self):
        A = mat([[1.0, 1.0], [1.0, 1.0]])
        b = mat([[2.0], [2.0]])
        _, data, _ = run("solve", A, b)
        assert np.isfinite(data).all()


class TestCastsAndMeta:
    def test_cast_matrix_to_scalar(self):
        assert run("castdts", mat([[7.5]]))[1] == 7.5

    def test_cast_scalar_to_matrix(self):
        _, data, mc = run("castdtm", 3.0)
        assert data.tolist() == [[3.0]]

    def test_value_casts(self):
        assert run("castvti", 3.9)[1] == 3
        assert run("castvtd", 2)[1] == 2.0
        assert run("castvtb", 0)[1] is False

    def test_metadata_uses_logical(self):
        obj = MatrixObject.generate(10**6, 10, sample_cap=16)
        assert run("nrow", obj)[1] == 10**6
        assert run("ncol", obj)[1] == 10
        assert run("length", obj)[1] == 10**7

    def test_unknown_opcode_raises(self):
        with pytest.raises(ExecutionError):
            run("no_such_op", 1)

    def test_display_formats(self):
        assert display(True) == "TRUE"
        assert display(1.5) == "1.5"
        assert display("x") == "x"
