"""Failure-injection tests: malformed inputs, infeasible configurations,
and mid-run error conditions must fail loudly and precisely."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ResourceConfig, paper_cluster, small_cluster
from repro.common import MatrixCharacteristics
from repro.compiler import compile_program
from repro.errors import (
    ClusterError,
    CompilerError,
    DMLSyntaxError,
    ExecutionError,
    ReproError,
    ValidationError,
)
from repro.optimizer import ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS
from repro.runtime.matrix import MatrixObject


def make_hdfs(**matrices):
    hdfs = SimulatedHDFS(sample_cap=32)
    for name, data in matrices.items():
        obj = MatrixObject.from_sample(np.asarray(data, dtype=float))
        hdfs.put(name, obj.mc, obj.data)
    return hdfs


class TestCompileTimeFailures:
    def test_all_errors_share_base_class(self):
        for exc in (DMLSyntaxError, ValidationError, CompilerError,
                    ExecutionError, ClusterError):
            assert issubclass(exc, ReproError)

    def test_syntax_error_surfaces(self):
        with pytest.raises(DMLSyntaxError):
            compile_program("x = = 1", {}, {})

    def test_validation_error_surfaces(self):
        with pytest.raises(ValidationError):
            compile_program("y = undefined_var + 1", {}, {})

    def test_missing_script_argument(self):
        with pytest.raises(CompilerError):
            compile_program("X = read($X)", {}, {})

    def test_write_target_must_be_constant(self):
        # a data-dependent filename cannot be resolved at compile time
        source = 'X = read($X)\nname = "out" + sum(X)\nwrite(X, name)'
        with pytest.raises((CompilerError, ValidationError)):
            compile_program(source, {"X": "f"}, {})

    def test_constant_filename_via_local_is_fine(self):
        # a string constant bound to a local resolves through the block
        source = 'X = read($X)\nname = "out"\nwrite(X, name)'
        compiled = compile_program(
            source, {"X": "f"}, {"f": MatrixCharacteristics(2, 2, 4)}
        )
        assert compiled is not None


class TestRuntimeFailures:
    def test_missing_hdfs_file(self):
        hdfs = make_hdfs()
        compiled = compile_program(
            "X = read($X)\nprint(sum(X))", {"X": "ghost"},
            {"ghost": MatrixCharacteristics(4, 4, 16)},
            ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        with pytest.raises(ExecutionError, match="ghost"):
            interp.run(compiled, ResourceConfig(512, 512))

    def test_stop_statement_aborts(self):
        hdfs = make_hdfs(X=np.ones((4, 4)))
        source = """
X = read($X)
if (sum(X) > 0) {
  stop("negative determinant")
}
"""
        compiled = compile_program(source, {"X": "X"}, hdfs.input_meta(),
                                   ResourceConfig(512, 512))
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        with pytest.raises(ExecutionError, match="negative determinant"):
            interp.run(compiled, ResourceConfig(512, 512))

    def test_logical_dim_mismatch_detected(self):
        # X (4x4) %*% y (3x1): invalid logical shapes must raise
        hdfs = make_hdfs(X=np.ones((4, 4)), y=np.ones((3, 1)))
        compiled = compile_program(
            "X = read($X)\ny = read($y)\nprint(sum(X %*% y))",
            {"X": "X", "y": "y"}, hdfs.input_meta(),
            ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        with pytest.raises(ExecutionError, match="non-conformable"):
            interp.run(compiled, ResourceConfig(512, 512))

    def test_infinite_loop_guard(self):
        hdfs = make_hdfs()
        compiled = compile_program(
            "flag = TRUE\nwhile (flag) { x = 1 }", {}, {},
            ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        with pytest.raises(ExecutionError, match="iterations"):
            interp.run(compiled, ResourceConfig(512, 512))


class TestClusterFailures:
    def test_container_request_above_maximum(self):
        cluster = small_cluster(node_memory_mb=2048)
        with pytest.raises(ClusterError):
            cluster.validate_heap_request(10**6)

    def test_optimizer_respects_tiny_cluster(self):
        # a cluster whose max allocation cannot hold the data: the
        # optimizer still returns the best feasible configuration
        cluster = small_cluster(num_nodes=2, node_memory_mb=1024)
        hdfs = SimulatedHDFS(sample_cap=32)
        hdfs.create_dense_input("X", 10**6, 100)  # 800 MB input
        compiled = compile_program(
            "X = read($X)\nprint(sum(X %*% matrix(1, rows=ncol(X), cols=1)))",
            {"X": "X"}, hdfs.input_meta(),
        )
        result = ResourceOptimizer(cluster).optimize(compiled)
        assert result.resource is not None
        assert result.resource.cp_heap_mb <= cluster.max_heap_mb

    def test_invalid_cluster_config(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_nodes=-1)


class TestNumericalRobustness:
    def test_division_by_zero_matrix_does_not_crash(self, tmp_path):
        hdfs = make_hdfs(X=np.zeros((4, 4)))
        compiled = compile_program(
            "X = read($X)\nZ = 1 / X\nprint(sum(Z))",
            {"X": "X"}, hdfs.input_meta(), ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        result = interp.run(compiled, ResourceConfig(512, 512))
        value = float(result.prints[0])
        assert np.isfinite(value)

    def test_log_of_zero_sanitized(self):
        hdfs = make_hdfs(X=np.zeros((3, 3)))
        compiled = compile_program(
            "X = read($X)\nZ = log(X + 0)\nprint(sum(Z))",
            {"X": "X"}, hdfs.input_meta(), ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        result = interp.run(compiled, ResourceConfig(512, 512))
        assert np.isfinite(float(result.prints[0]))

    def test_huge_exponent_overflow_sanitized(self):
        hdfs = make_hdfs(X=np.full((3, 3), 1000.0))
        compiled = compile_program(
            "X = read($X)\nZ = exp(X)\nprint(sum(Z))",
            {"X": "X"}, hdfs.input_meta(), ResourceConfig(512, 512),
        )
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        result = interp.run(compiled, ResourceConfig(512, 512))
        assert np.isfinite(float(result.prints[0]))


#: (script, typed error, the builtin and value its message must name)
NEGATIVE_DIMENSIONS = [
    ("X = rand(rows=-5, cols=3)\nprint(sum(X))",
     CompilerError, r"rand\(\): rows .* -5"),
    ("X = matrix(0, rows=-2, cols=2)\nprint(sum(X))",
     CompilerError, r"matrix\(\): rows .* -2"),
    ("n = -3; X = rand(rows=n, cols=3)\nprint(sum(X))",
     CompilerError, r"rand\(\): rows .* -3"),
    # only known once sum(A) has run
    ("A = matrix(1, rows=4, cols=4)\nn = as.integer(sum(A)) - 20\n"
     "X = matrix(1, rows=2, cols=n)\nprint(sum(X))",
     ExecutionError, r"matrix\(\): cols .* -4"),
]
NEGATIVE_IDS = ["rand", "matrix", "constant", "runtime"]


class TestNegativeDimensions:
    """A negative rows/cols of a data-generating builtin is a typed
    error naming the builtin and the value, never the bare ValueError
    of the size model."""

    @pytest.mark.parametrize(
        "source,error,message", NEGATIVE_DIMENSIONS, ids=NEGATIVE_IDS
    )
    def test_session_raises(self, source, error, message):
        from repro import ElasticMLSession

        with pytest.raises(error, match=message):
            ElasticMLSession(sample_cap=32).run(source, {})

    @pytest.mark.parametrize(
        "source,error,message", NEGATIVE_DIMENSIONS, ids=NEGATIVE_IDS
    )
    def test_server_fails(self, source, error, message):
        from repro import ElasticMLServer, Submission

        server = ElasticMLServer(sample_cap=32)
        try:
            server.submit(Submission(tenant="t", script=source, args={}))
            (result,) = server.drain()
        finally:
            server.shutdown()
        assert result.status == "failed"
        assert result.error.startswith(error.__name__ + ": ")

    def test_size_model_guard_stays(self):
        from repro.common import estimate_matrix_memory

        with pytest.raises(ValueError, match="negative matrix dimensions"):
            estimate_matrix_memory(-5, 3)


#: (script, message): a scalar operator with no value for its operands,
#: computed at run time or folded at compile time
NO_VALUE_SCALARS = [
    ("X = matrix(0, rows=2, cols=2)\nx = sum(X)\nprint(1 / x)",
     r"/\(1, 0\.0\) has no value: float division by zero"),
    ("X = matrix(0, rows=2, cols=2)\nx = sum(X)\nprint(log(x))",
     r"log\(0\.0\) has no value: math domain error"),
    ("x = 10.0 ^ 400\nprint(x)", r"\^\(10\.0, 400\) has no value"),
]
NO_VALUE_IDS = ["divide", "log", "folded-overflow"]


class TestScalarWithoutValue:
    """A scalar operator without a value is an ExecutionError in every
    front end, never Python's own ZeroDivisionError, ValueError or
    OverflowError; the constant folder leaves it to the run."""

    def test_folder_leaves_overflow_to_the_run(self):
        compiled = compile_program("x = 10.0 ^ 400\nprint(x)", {}, {})
        assert compiled.blocks

    @pytest.mark.parametrize("source,message", NO_VALUE_SCALARS,
                             ids=NO_VALUE_IDS)
    def test_session_raises(self, source, message):
        from repro import ElasticMLSession

        with pytest.raises(ExecutionError, match=message):
            ElasticMLSession(sample_cap=32).run(source, {})

    @pytest.mark.parametrize("source,message", NO_VALUE_SCALARS,
                             ids=NO_VALUE_IDS)
    def test_server_fails_and_next_tenant_completes(self, source, message):
        from repro import ElasticMLServer, Submission

        server = ElasticMLServer(sample_cap=32)
        try:
            server.submit(Submission(tenant="bad", script=source, args={}))
            server.submit(Submission(tenant="good", script="print(2 * 3)",
                                     args={}))
            bad, good = server.drain()
        finally:
            server.shutdown()
        assert bad.status == "failed"
        assert bad.error.startswith("ExecutionError: ")
        assert good.status == "completed"
        assert good.outcome.prints == ["6"]

    def test_cli_exits_2_with_one_error_line(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        script = tmp_path / "f.dml"
        script.write_text(NO_VALUE_SCALARS[0][0] + "\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(script)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: /(1, 0.0) has no value: float division by zero"
        ]
