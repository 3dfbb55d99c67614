"""Unit tests for size/sparsity/constant propagation."""

from repro.common import MatrixCharacteristics
from repro.compiler.hop_builder import build_hops
from repro.compiler.size_propagation import (
    DEFAULT_LOOP_ITERATIONS,
    Propagator,
    propagate_sizes,
)
from repro.compiler.statement_blocks import build_program
from repro.dml import parse


def propagate(source, input_meta=None, args=None):
    program = build_program(parse(source), args or {})
    build_hops(program)
    env = propagate_sizes(program, input_meta)
    return program, env


def var_mc(env, name):
    return env.get(name).mc


META = {"X": MatrixCharacteristics(1000, 20, 20000),
        "y": MatrixCharacteristics(1000, 1, 1000)}
ARGS = {"X": "X", "y": "y"}


class TestOperatorRules:
    def test_read_gets_input_meta(self):
        _, env = propagate("X = read($X)", META, ARGS)
        assert var_mc(env, "X").rows == 1000
        assert var_mc(env, "X").cols == 20

    def test_matmult_dims(self):
        _, env = propagate("X = read($X)\ny = read($y)\nb = t(X) %*% y",
                           META, ARGS)
        assert (var_mc(env, "b").rows, var_mc(env, "b").cols) == (20, 1)

    def test_transpose_swaps(self):
        _, env = propagate("X = read($X)\nZ = t(X)", META, ARGS)
        assert (var_mc(env, "Z").rows, var_mc(env, "Z").cols) == (20, 1000)

    def test_elementwise_broadcast_column_vector(self):
        _, env = propagate(
            "X = read($X)\ny = read($y)\nZ = X * y", META, ARGS
        )
        assert (var_mc(env, "Z").rows, var_mc(env, "Z").cols) == (1000, 20)

    def test_unknown_broadcast_with_vector_stays_unknown(self):
        src = """
X = read($X)
Y = table(seq(1, nrow(X)), y)
Z = Y - rowSums(Y)
"""
        _, env = propagate(src, META, ARGS)
        assert var_mc(env, "Z").cols is None
        assert var_mc(env, "Z").rows is None

    def test_row_and_col_aggregates(self):
        _, env = propagate(
            "X = read($X)\nr = rowSums(X)\nc = colSums(X)", META, ARGS
        )
        assert (var_mc(env, "r").rows, var_mc(env, "r").cols) == (1000, 1)
        assert (var_mc(env, "c").rows, var_mc(env, "c").cols) == (1, 20)

    def test_datagen_from_constants(self):
        _, env = propagate("Z = matrix(0, rows=8, cols=3)")
        mc = var_mc(env, "Z")
        assert (mc.rows, mc.cols, mc.nnz) == (8, 3, 0)

    def test_datagen_nonzero_constant_dense(self):
        _, env = propagate("Z = matrix(2, rows=8, cols=3)")
        assert var_mc(env, "Z").nnz == 24

    def test_seq_length(self):
        _, env = propagate("s = seq(1, 10, 2)")
        assert var_mc(env, "s").rows == 5

    def test_ctable_output_unknown(self):
        _, env = propagate(
            "X = read($X)\ny = read($y)\nY = table(seq(1, nrow(X)), y)",
            META, ARGS,
        )
        assert not var_mc(env, "Y").dims_known

    def test_cbind_adds_columns(self):
        _, env = propagate(
            "X = read($X)\nones = matrix(1, rows=nrow(X), cols=1)\n"
            "Z = append(X, ones)",
            META, ARGS,
        )
        assert var_mc(env, "Z").cols == 21

    def test_indexing_constant_bounds(self):
        _, env = propagate("X = read($X)\nQ = X[, 2:4]", META, ARGS)
        assert (var_mc(env, "Q").rows, var_mc(env, "Q").cols) == (1000, 3)

    def test_indexing_unknown_bound(self):
        src = """
X = read($X)
Y = table(seq(1, nrow(X)), y)
k = ncol(Y)
Q = X[, 1:k]
"""
        _, env = propagate(src, META, ARGS)
        assert var_mc(env, "Q").cols is None

    def test_diag_vector_to_matrix(self):
        _, env = propagate("y = read($y)\nD = diag(y)", META, ARGS)
        assert (var_mc(env, "D").rows, var_mc(env, "D").cols) == (1000, 1000)

    def test_solve_dims(self):
        src = """
X = read($X)
y = read($y)
A = t(X) %*% X
b = t(X) %*% y
beta = solve(A, b)
"""
        _, env = propagate(src, META, ARGS)
        assert (var_mc(env, "beta").rows, var_mc(env, "beta").cols) == (20, 1)


class TestSparsityRules:
    def test_mult_preserves_zeros(self):
        meta = {"X": MatrixCharacteristics(100, 100, 500)}
        _, env = propagate("X = read($X)\nZ = X * 3", meta, {"X": "X"})
        assert var_mc(env, "Z").nnz == 500

    def test_plus_nonzero_scalar_densifies(self):
        meta = {"X": MatrixCharacteristics(100, 100, 500)}
        _, env = propagate("X = read($X)\nZ = X + 1", meta, {"X": "X"})
        assert var_mc(env, "Z").nnz == 10000

    def test_compare_with_zero_keeps_pattern(self):
        meta = {"X": MatrixCharacteristics(100, 100, 500)}
        _, env = propagate('X = read($X)\nZ = ppred(X, 0, ">")',
                           meta, {"X": "X"})
        assert var_mc(env, "Z").nnz == 500

    def test_exp_densifies(self):
        meta = {"X": MatrixCharacteristics(100, 100, 500)}
        _, env = propagate("X = read($X)\nZ = exp(X)", meta, {"X": "X"})
        assert var_mc(env, "Z").nnz == 10000

    def test_elementwise_mult_takes_min_sparsity(self):
        meta = {
            "X": MatrixCharacteristics(100, 100, 500),
            "y": MatrixCharacteristics(100, 100, 8000),
        }
        _, env = propagate(
            "X = read($X)\ny = read($y)\nZ = X * y", meta, ARGS
        )
        assert var_mc(env, "Z").nnz == 500


class TestScalarConstants:
    def test_arithmetic_chain_folds(self):
        _, env = propagate("a = 2\nb = a * 3 + 4")
        assert env.get("b").const == 10

    def test_nrow_constant_from_meta(self):
        _, env = propagate("X = read($X)\nn = nrow(X)", META, ARGS)
        assert env.get("n").const == 1000

    def test_string_concat_folds(self):
        _, env = propagate('s = "n=" + 5')
        assert env.get("s").const == "n=5"

    def test_division_by_zero_yields_unknown(self):
        _, env = propagate("a = 0\nb = 1 / a")
        assert env.get("b").const is None


class TestControlFlow:
    def test_if_merge_equal_dims_kept(self):
        src = """
X = read($X)
if (flag > 0) { Z = X * 2 } else { Z = X + 1 }
W = Z
"""
        meta = dict(META)
        _, env = propagate("flag = 1 - 1\n" + src, meta, ARGS)
        # predicate is constant but sizes agree either way
        assert var_mc(env, "W").rows == 1000

    def test_if_merge_conflicting_dims_unknown(self):
        src = """
X = read($X)
flag = nrow(X)
if (flag > 10) { Z = X } else { Z = t(X) }
"""
        _, env = propagate(src, META, ARGS)
        assert var_mc(env, "Z").rows is None

    def test_if_merge_conflicting_consts_dropped(self):
        src = """
a = 1
if (b > 0) { a = 2 }
"""
        meta = {}
        program = build_program(parse(src), {})
        build_hops(program)
        env = Propagator(program).run()
        assert env.get("a").const is None

    def test_loop_variant_scalar_reset(self):
        _, env = propagate("i = 0\nwhile (i < 5) { i = i + 1 }")
        assert env.get("i").const is None

    def test_loop_invariant_size_kept(self):
        src = """
X = read($X)
w = matrix(0, rows=ncol(X), cols=1)
i = 0
while (i < 5) {
  w = w + t(X) %*% (X %*% w)
  i = i + 1
}
"""
        _, env = propagate(src, META, ARGS)
        assert (var_mc(env, "w").rows, var_mc(env, "w").cols) == (20, 1)

    def test_loop_growing_matrix_reset(self):
        src = """
X = read($X)
i = 0
while (i < 3) {
  X = append(X, matrix(0, rows=nrow(X), cols=1))
  i = i + 1
}
"""
        _, env = propagate(src, META, ARGS)
        assert var_mc(env, "X").cols is None

    def test_for_trip_count_constant(self):
        program, _ = propagate("s = 0\nfor (i in 1:7) { s = s + i }")
        loop = program.blocks[1]
        assert loop.known_iterations == 7

    def test_for_trip_count_seq(self):
        program, _ = propagate("s = 0\nfor (i in seq(2, 10, 2)) { s = s + i }")
        loop = program.blocks[1]
        assert loop.known_iterations == 5

    def test_default_loop_iterations_positive(self):
        assert DEFAULT_LOOP_ITERATIONS >= 2


class TestFunctionPropagation:
    def test_sizes_flow_through_function(self):
        src = """
double_it = function(Matrix[double] A) return (Matrix[double] B) {
  B = A * 2
}
X = read($X)
Y = double_it(X)
"""
        _, env = propagate(src, META, ARGS)
        assert (var_mc(env, "Y").rows, var_mc(env, "Y").cols) == (1000, 20)

    def test_scalar_const_flows_through_function(self):
        src = """
add1 = function(double a) return (double b) { b = a + 1 }
x = add1(4)
"""
        _, env = propagate(src)
        assert env.get("x").const == 5

    def test_recursive_function_outputs_unknown(self):
        src = """
rec = function(Matrix[double] A) return (Matrix[double] B) {
  B = rec(A)
}
X = read($X)
Y = rec(X)
"""
        _, env = propagate(src, META, ARGS)
        assert not var_mc(env, "Y").dims_known
