"""Unit tests for the core resource optimizer (Algorithm 1)."""

import pytest

from repro.cluster import paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler.pipeline import compile_program
from repro.optimizer import ResourceOptimizer
from repro.optimizer.pruning import prune_program_blocks

BIG = {
    "X": MatrixCharacteristics(10**6, 1000, 10**9),
    "y": MatrixCharacteristics(10**6, 1, 10**6),
}
TINY = {
    "X": MatrixCharacteristics(10**4, 100, 10**6),
    "y": MatrixCharacteristics(10**4, 1, 10**4),
}
ARGS = {"X": "X", "y": "y", "B": "B"}

CG_STYLE = """
X = read($X)
y = read($y)
p = t(X) %*% y
i = 0
while (i < 5) {
  p = t(X) %*% (X %*% p) * 0.0001
  i = i + 1
}
write(p, $B, format="binary")
"""

DS_STYLE = """
X = read($X)
y = read($y)
beta = solve(t(X) %*% X, t(X) %*% y)
write(beta, $B, format="binary")
"""


@pytest.fixture
def cluster():
    return paper_cluster()


def optimize(cluster, source, meta=BIG, **kwargs):
    compiled = compile_program(source, ARGS, meta)
    optimizer = ResourceOptimizer(cluster, **kwargs)
    return optimizer.optimize(compiled), compiled


class TestOptimization:
    def test_iterative_prefers_large_cp(self, cluster):
        result, _ = optimize(cluster, CG_STYLE)
        # X is 8 GB: CG needs ~12 GB heap to hold it in the CP budget
        assert result.resource.cp_heap_mb >= 8 * 1024

    def test_compute_bound_prefers_small_cp(self, cluster):
        result, _ = optimize(cluster, DS_STYLE)
        assert result.resource.cp_heap_mb <= 2 * 1024

    def test_small_data_minimal_resources(self, cluster):
        result, _ = optimize(cluster, DS_STYLE, meta=TINY)
        assert result.resource.cp_heap_mb <= 2048
        assert result.resource.max_mr_heap_mb == cluster.min_heap_mb

    def test_cost_is_positive_and_finite(self, cluster):
        result, _ = optimize(cluster, CG_STYLE)
        assert 0 < result.cost < float("inf")

    def test_profile_covers_all_cp_points(self, cluster):
        result, _ = optimize(cluster, DS_STYLE)
        assert len(result.points) == result.stats.cp_points

    def test_chosen_cost_is_profile_minimum(self, cluster):
        result, _ = optimize(cluster, CG_STYLE)
        assert result.cost == pytest.approx(
            min(point.cost for point in result.points)
        )

    def test_stats_counters_populated(self, cluster):
        result, _ = optimize(cluster, CG_STYLE)
        assert result.stats.block_compilations > 0
        assert result.stats.cost_invocations > 0
        assert result.stats.optimization_time > 0

    def test_fixed_cp_restricts_dimension(self, cluster):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        optimizer = ResourceOptimizer(cluster)
        result = optimizer.optimize(compiled, fixed_cp_mb=1024)
        assert result.resource.cp_heap_mb == 1024
        assert result.stats.cp_points == 1

    def test_grid_choice_changes_point_counts(self, cluster):
        _, compiled = optimize(cluster, DS_STYLE)
        equi = ResourceOptimizer(cluster, grid_cp="equi", grid_mr="equi",
                                 m=15).optimize(compiled)
        exp = ResourceOptimizer(cluster, grid_cp="exp", grid_mr="exp",
                                m=15).optimize(compiled)
        assert equi.stats.cp_points == 15
        assert exp.stats.cp_points < 15

    def test_time_budget_respected(self, cluster):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        optimizer = ResourceOptimizer(cluster, time_budget=0.0)
        result = optimizer.optimize(compiled)
        # budget exhausts after the first CP point but still returns a
        # valid configuration
        assert result.resource is not None
        assert len(result.points) == 1
        assert result.stats.budget_exhausted

    def test_unconstrained_run_reports_no_exhaustion(self, cluster):
        result, _ = optimize(cluster, DS_STYLE)
        assert not result.stats.budget_exhausted
        assert len(result.points) == result.stats.cp_points


class _NearTieCostModel:
    """Stub: the first CP point's program cost exceeds the second's by
    float noise only (1 part in 10^12)."""

    def __init__(self):
        self.invocations = 0
        self.memo_hits = 0
        self.program_calls = 0

    def estimate_block(self, compiled, block, resource, use_memo=False):
        self.invocations += 1
        return 1.0

    def estimate_program(self, compiled, resource, use_memo=False):
        self.invocations += 1
        self.program_calls += 1
        return 1.0 + 1e-12 if self.program_calls == 1 else 1.0


class TestBugfixes:
    def test_near_tie_prefers_smaller_footprint(self, cluster):
        """A cost difference below float precision is a tie, and ties go
        to the minimal configuration (Definition 1) — exact equality
        used to send them to whichever point enumerated first."""
        compiled = compile_program(DS_STYLE, ARGS, BIG)
        optimizer = ResourceOptimizer(
            cluster, grid_cp="equi", grid_mr="equi", m=2,
            cost_model=_NearTieCostModel(), enable_plan_cache=False,
        )
        result = optimizer.optimize(compiled)
        grid_points = [point.rc for point in result.points]
        assert len(grid_points) == 2
        assert result.resource.cp_heap_mb == min(grid_points)
        assert result.cost == 1.0

    def test_program_left_compiled_under_returned_config(self, cluster):
        """_optimize used to leave plans compiled at the *last* grid
        point; consumers of ``compiled`` saw plans that disagree with
        the returned configuration."""
        from repro.compiler.pipeline import recompile_block_plan

        compiled = compile_program(DS_STYLE, ARGS, BIG)
        result = ResourceOptimizer(cluster).optimize(compiled)
        assert compiled.resource == result.resource
        blocks = list(compiled.last_level_blocks())
        left = {
            b.block_id: [str(i) for i in b.plan.instructions]
            for b in blocks
        }
        for block in blocks:
            recompile_block_plan(compiled, block, result.resource)
            fresh = [str(i) for i in block.plan.instructions]
            assert left[block.block_id] == fresh, block.block_id


class TestPruning:
    def test_cp_only_blocks_pruned(self, cluster):
        compiled = compile_program(
            DS_STYLE, ARGS, TINY,
        )
        from repro.cluster import ResourceConfig
        from repro.compiler.pipeline import compile_plans

        compile_plans(compiled, ResourceConfig(54613, 512))
        blocks = list(compiled.last_level_blocks())
        remaining, small, unknown = prune_program_blocks(blocks)
        assert not remaining
        assert len(small) == len(blocks)

    def test_unknown_blocks_pruned(self, cluster):
        source = """
X = read($X)
y = read($y)
Y = table(seq(1, nrow(X)), y)
Z = Y * 2
s = sum(Z)
print(s)
"""
        from repro.cluster import ResourceConfig
        from repro.compiler.pipeline import compile_plans

        compiled = compile_program(source, ARGS, BIG)
        compile_plans(compiled, ResourceConfig(512, 512))
        blocks = list(compiled.last_level_blocks())
        remaining, small, unknown = prune_program_blocks(blocks)
        assert unknown  # the all-unknown ctable block is pruned

    def test_pruning_reduces_optimization_work(self, cluster):
        small_result, _ = optimize(cluster, DS_STYLE, meta=TINY)
        large_result, _ = optimize(cluster, DS_STYLE, meta=BIG)
        assert (
            small_result.stats.remaining_blocks
            <= large_result.stats.remaining_blocks
        )
        assert (
            small_result.stats.cost_invocations
            < large_result.stats.cost_invocations
        )


class TestPerBlockConfigurations:
    def test_mr_entries_reference_real_blocks(self, cluster):
        result, compiled = optimize(cluster, CG_STYLE)
        block_ids = {b.block_id for b in compiled.last_level_blocks()}
        assert set(result.resource.mr_heap_per_block) <= block_ids

    def test_per_block_sizes_apply_during_execution(self, cluster):
        """Executing with the optimizer's per-block map must produce the
        same plans the optimizer costed (no block-id mismatch)."""
        from repro.runtime import Interpreter, SimulatedHDFS
        from repro.workloads import prepare_inputs, scenario

        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, "LinregDS", scenario("M"))
        from repro.compiler import compile_program
        from repro.scripts import load_script

        compiled = compile_program(
            load_script("LinregDS"), args, hdfs.input_meta()
        )
        result = ResourceOptimizer(cluster).optimize(compiled)
        interp = Interpreter(cluster, hdfs=hdfs, sample_cap=64)
        run = interp.run(compiled, result.resource)
        # estimate and actual stay within the usual tolerance, which
        # fails loudly if per-block entries were silently dropped
        assert run.total_time == pytest.approx(
            result.cost + run.breakdown.get("startup", 0.0), rel=0.4
        )
