"""Unit tests for runtime resource adaptation (Section 4)."""

import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.compiler.pipeline import compile_program
from repro.optimizer import ResourceAdapter, ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS

MLOGREG_LIKE = """
X = read($X)
y = read($y)
Y = table(seq(1, nrow(X)), y)
B = matrix(0, rows=ncol(X), cols=ncol(Y))
i = 0
while (i < 3) {
  P = exp(X %*% B)
  P = P / rowSums(P)
  B = B - 0.1 * (t(X) %*% (P - Y))
  i = i + 1
}
write(B, $B, format="binary")
"""


@pytest.fixture
def cluster():
    return paper_cluster()


def run_with_adaptation(cluster, resource, adapt=True, rows=10**6,
                        cols=1000):
    hdfs = SimulatedHDFS(sample_cap=64)
    hdfs.create_dense_input("X", rows, cols, seed=1)
    hdfs.create_label_input("y", rows, num_classes=3, seed=2)
    args = {"X": "X", "y": "y", "B": "B"}
    compiled = compile_program(MLOGREG_LIKE, args, hdfs.input_meta())
    adapter = (
        ResourceAdapter(ResourceOptimizer(cluster)) if adapt else None
    )
    interp = Interpreter(cluster, hdfs=hdfs, sample_cap=64, adapter=adapter)
    return interp.run(compiled, resource)


class TestAdaptation:
    def test_migration_extends_cp_memory(self, cluster):
        start = ResourceConfig(512, 512)
        result = run_with_adaptation(cluster, start)
        assert result.migrations >= 1
        assert result.final_resource.cp_heap_mb > 512

    def test_adaptation_improves_over_static(self, cluster):
        start = ResourceConfig(512, 512)
        static = run_with_adaptation(cluster, start, adapt=False)
        adapted = run_with_adaptation(cluster, start, adapt=True)
        assert adapted.total_time < static.total_time

    def test_migration_cost_charged(self, cluster):
        result = run_with_adaptation(cluster, ResourceConfig(512, 512))
        if result.migrations:
            assert result.breakdown.get("migration", 0) > 0

    def test_few_migrations_suffice(self, cluster):
        """The paper: 'only up to two migrations were necessary'."""
        result = run_with_adaptation(cluster, ResourceConfig(512, 512))
        assert result.migrations <= 2

    def test_no_adaptation_when_well_provisioned(self, cluster):
        result = run_with_adaptation(cluster, ResourceConfig(30000, 4096))
        assert result.migrations == 0

    def test_small_data_no_migration_needed(self, cluster):
        # everything fits even a small CP: adaptation may update MR
        # configs but should not migrate
        result = run_with_adaptation(
            cluster, ResourceConfig(2048, 512), rows=10**4, cols=100
        )
        assert result.migrations == 0


FUNCTION_MIGRATES = """
train = function(matrix[double] X, matrix[double] y) return (matrix[double] B) {
  Y = table(seq(1, nrow(X)), y)
  B = matrix(0, rows=ncol(X), cols=ncol(Y))
  i = 0
  while (i < 3) {
    P = exp(X %*% B)
    P = P / rowSums(P)
    B = B - 0.1 * (t(X) %*% (P - Y))
    i = i + 1
  }
}
X = read($X)
y = read($y)
Z = rand(rows=nrow(X), cols=20, min=1, max=2)
if (as.scalar(Z[1,1]) > 0) { print("the caller's Z is live and dirty") }
B = train(X, y)
if (as.scalar(B[1,1]) != 0) { print("trained") }
print(sum(Z))
write(B, $B, format="binary")
"""


class TestMigrationMovesTheWholeFrameStack:
    """A CP migration moves the process, not the innermost call: every
    frame's dirty matrices are exported (and charged, and weighed in
    the decision), every frame's matrices are re-read afterwards."""

    def two_frame_interp(self, cluster):
        """An interpreter stopped inside a call: one dirty in-memory
        10^6 x 1000 matrix per frame, and a parameter aliasing the
        caller's clean input."""
        from repro.runtime.matrix import MatrixObject
        import numpy as np

        hdfs = SimulatedHDFS(sample_cap=64)
        hdfs.create_dense_input("X", 100, 10, seed=1)
        interp = Interpreter(cluster, hdfs=hdfs, sample_cap=64)
        interp.run(
            compile_program("X = read($X)\nprint(sum(X))", {"X": "X"},
                            hdfs.input_meta()),
            ResourceConfig(512, 512),
        )

        def dirty():
            obj = MatrixObject.from_sample(
                np.ones((8, 8)), logical_rows=10**6, logical_cols=1000
            )
            interp.pool.put(obj)
            return obj

        shared = MatrixObject.from_sample(np.ones((8, 8)))
        shared.dirty, shared.hdfs_path = False, "X"
        interp._frames = [
            {"Z": dirty(), "A": shared, "n": 3},
            {"X": dirty(), "P": shared},
        ]
        return interp

    def test_cost_counts_every_frame_and_each_object_once(self, cluster):
        from repro.cost import io_model

        interp = self.two_frame_interp(cluster)
        caller, callee = interp._frames
        one = io_model.hdfs_write_time(caller["Z"].mc, interp.params)
        latency = (
            interp.params.container_alloc_latency
            + interp.params.am_startup_latency
        )
        cost = ResourceAdapter(None)._migration_cost(interp)
        assert cost == one + one + latency
        # the alias is not dirty here; make it so: still exported once
        caller["A"].dirty = True
        extra = io_model.hdfs_write_time(caller["A"].mc, interp.params)
        assert ResourceAdapter(None)._migration_cost(interp) == (
            one + one + extra + latency
        )

    def test_migration_exports_and_unpins_the_callers_matrices(self, cluster):
        interp = self.two_frame_interp(cluster)
        caller, callee = interp._frames
        assert ResourceAdapter(None)._migrate(interp, migration_cost=1.0)
        for obj in (caller["Z"], callee["X"]):
            assert (obj.in_memory, obj.dirty) == (False, False)
            assert obj.hdfs_path.startswith("scratch/migrate_")
        assert caller["Z"].hdfs_path != callee["X"].hdfs_path
        assert caller["A"].hdfs_path == "X"  # clean: not rewritten
        # the new container starts empty: the caller's Z pays its read
        clock = interp.clock
        interp.pool.pin(caller["Z"])
        assert interp.clock > clock

    def test_function_that_migrates_charges_the_callers_dirty_state(
            self, cluster):
        from repro.common import MatrixCharacteristics
        from repro.cost import io_model

        hdfs = SimulatedHDFS(sample_cap=64)
        hdfs.create_dense_input("X", 10**6, 1000, seed=1)
        hdfs.create_label_input("y", 10**6, num_classes=3, seed=2)
        args = {"X": "X", "y": "y", "B": "B"}

        compiled = compile_program(FUNCTION_MIGRATES, args, hdfs.input_meta())
        interp = Interpreter(
            cluster, hdfs=hdfs, sample_cap=64,
            adapter=ResourceAdapter(ResourceOptimizer(cluster)),
        )
        result = interp.run(compiled, ResourceConfig(512, 512))
        assert result.migrations == 1
        z_mc = MatrixCharacteristics(10**6, 20, 2 * 10**7)
        latency = (
            interp.params.container_alloc_latency
            + interp.params.am_startup_latency
        )
        assert result.breakdown["migration"] == (
            io_model.hdfs_write_time(z_mc, interp.params) + latency
        )
        # ... and Z, like the callee's X, is read back by the new
        # container (left in memory, print(sum(Z)) would read nothing)
        x_mc = hdfs.input_meta()["X"]
        assert result.breakdown["read"] >= (
            io_model.hdfs_read_time(x_mc, interp.params)
            + io_model.hdfs_read_time(z_mc, interp.params)
        )
