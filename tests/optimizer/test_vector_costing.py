"""Vectorized grid costing: bitwise parity, memo-key soundness under
batching, and scalar fallback triggers.

`CostModel.estimate_grid` promises per-point costs *bit-identical* to
per-point `estimate_block` (the optimizer's selection rule compares
floats with strict ``<``, so "close" is not good enough) and memo keys
computed per point, never per batch.  The fallback triggers matter for
correctness: plans calling functions, granted resources, and
per-component accounting are structurally resource-dependent and must
decline the batch so the caller runs the scalar loop.
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceConfig, paper_cluster
from repro.cluster.resources import GrantedResource
from repro.compiler import compile_program
from repro.cost import CostModel
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.optimizer import ResourceOptimizer
from repro.optimizer.enumerate import OptimizerOptions
from repro.runtime import SimulatedHDFS

SETTINGS = settings(deadline=None, derandomize=True, max_examples=25)

_SRC = """
X = read($X)
s = sum(X)
Y = X * 2 + s
z = sum(t(Y) %*% Y)
print(z)
"""

#: compiled tight (512 MB CP) so the plan contains MR jobs — the
#: interesting case for MR-grid batching
_TIGHT_CP_MB = 512


def _compile_mr_plan():
    hdfs = SimulatedHDFS(sample_cap=64)
    hdfs.create_dense_input("data/X", 400000, 500)  # ~1.6 GB dense
    return compile_program(
        _SRC, {"X": "data/X"}, hdfs.input_meta(),
        ResourceConfig(_TIGHT_CP_MB, 1024),
    )


_FIXED = {}


def fixed_plan():
    """Module-cached compiled program + an MR-bearing block."""
    if "compiled" not in _FIXED:
        compiled = _compile_mr_plan()
        mr_blocks = [
            b for b in compiled.last_level_blocks()
            if b.plan is not None and b.plan.num_mr_jobs
        ]
        assert mr_blocks, "fixture plan lost its MR jobs"
        _FIXED["compiled"] = compiled
        _FIXED["block"] = mr_blocks[0]
    return _FIXED["compiled"], _FIXED["block"]


def _candidates(block_id, mr_heaps, cp_mb=_TIGHT_CP_MB):
    return [
        ResourceConfig(
            cp_heap_mb=cp_mb, mr_heap_mb=1024,
            mr_heap_per_block={block_id: ri},
        )
        for ri in mr_heaps
    ]


def _model():
    return CostModel(paper_cluster(), DEFAULT_PARAMETERS)


class TestGridEqualsScalar:
    def test_exact_equality_on_fixture_plan(self):
        compiled, block = fixed_plan()
        heaps = [512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0]
        resources = _candidates(block.block_id, heaps)
        grid = _model().estimate_grid(compiled, block, resources)
        assert grid is not None
        scalar_model = _model()
        scalar = [
            scalar_model.estimate_block(compiled, block, r)
            for r in resources
        ]
        assert grid == scalar  # bitwise, not approx

    def test_costs_actually_vary_across_points(self):
        """Guards the fixture: if every point cost the same, the parity
        assertions above would be vacuous."""
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, [512.0, 16384.0])
        grid = _model().estimate_grid(compiled, block, resources)
        assert grid[0] != grid[1]

    def test_returns_plain_floats(self):
        """numpy scalars must not leak into the optimizer's arithmetic
        (they pickle bigger and compare slower)."""
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, [1024.0, 4096.0])
        for cost in _model().estimate_grid(compiled, block, resources):
            assert type(cost) is float

    @given(
        heaps=st.lists(
            st.floats(min_value=512, max_value=28000),
            min_size=1, max_size=8,
        )
    )
    @SETTINGS
    def test_property_grid_equals_per_point_estimate_block(self, heaps):
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, heaps)
        grid = _model().estimate_grid(compiled, block, resources)
        scalar_model = _model()
        scalar = [
            scalar_model.estimate_block(compiled, block, r)
            for r in resources
        ]
        assert grid == scalar


class TestBatchedMemoKeys:
    """The satellite bugfix: memo keys stay per-point under batching.

    A batch-level key (one entry for the whole grid call) would hand
    point B point A's cost whenever their MR cost signatures differ —
    the crafted collision below would then read back the wrong float.
    """

    def test_crafted_collision_distinct_points_distinct_entries(self):
        compiled, block = fixed_plan()
        # 512 MB thrashes and gets high task parallelism; 16 GB neither:
        # different mr_cost_signature, same plan, same batch
        resources = _candidates(block.block_id, [512.0, 16384.0])
        model = _model()
        k1 = model._block_memo_key(block, resources[0])
        k2 = model._block_memo_key(block, resources[1])
        assert k1 != k2
        grid = model.estimate_grid(
            compiled, block, resources, use_memo=True
        )
        # one walk, one interval, an entry per signature: each point
        # reads back its own float and neither reads the other's
        (lo1, hi1, cost1), = model._memo[k1]
        (lo2, hi2, cost2), = model._memo[k2]
        assert (lo1, hi1) == (lo2, hi2)
        assert lo1 <= resources[0].cp_budget_bytes < hi1
        assert (cost1, cost2) == (grid[0], grid[1])
        assert grid[0] != grid[1]
        for resource, expected in zip(resources, grid):
            assert model._recall(
                model._block_memo_key(block, resource), resource
            ) == expected

    def test_scalar_readback_after_batched_store(self):
        """estimate_block must answer from the batch-stored memo with
        the identical float (and count the hit)."""
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, [1024.0, 8192.0])
        model = _model()
        grid = model.estimate_grid(
            compiled, block, resources, use_memo=True
        )
        hits0 = model.memo_hits
        for r, expected in zip(resources, grid):
            assert model.estimate_block(
                compiled, block, r, use_memo=True
            ) == expected
        assert model.memo_hits == hits0 + len(resources)

    def test_duplicate_points_share_one_entry(self):
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, [2048.0, 2048.0])
        model = _model()
        grid = model.estimate_grid(
            compiled, block, resources, use_memo=True
        )
        assert grid[0] == grid[1]

    def test_second_batch_answers_from_memo(self):
        compiled, block = fixed_plan()
        resources = _candidates(block.block_id, [1024.0, 4096.0])
        model = _model()
        first = model.estimate_grid(
            compiled, block, resources, use_memo=True
        )
        inv0, hits0 = model.invocations, model.memo_hits
        second = model.estimate_grid(
            compiled, block, resources, use_memo=True
        )
        assert second == first
        assert model.invocations == inv0  # fully memoized: no new walk
        assert model.memo_hits == hits0 + len(resources)


class TestScalarFallback:
    def test_granted_resources_decline_the_batch(self):
        compiled, block = fixed_plan()
        ideal = ResourceConfig(
            cp_heap_mb=_TIGHT_CP_MB, mr_heap_mb=1024,
            mr_heap_per_block={block.block_id: 4096.0},
        )
        grant = GrantedResource.of(ideal, 0.5)
        plain = _candidates(block.block_id, [1024.0])
        assert _model().estimate_grid(
            compiled, block, plain + [grant]
        ) is None

    def test_component_accounting_declines_the_batch(self):
        compiled, block = fixed_plan()
        model = _model()
        model.component_totals = {}
        try:
            assert model.estimate_grid(
                compiled, block, _candidates(block.block_id, [1024.0])
            ) is None
        finally:
            model.component_totals = None

    def test_fcall_plans_decline_the_batch(self):
        compiled, block = fixed_plan()
        fake = types.SimpleNamespace(opcode="fcall")
        block.plan.instructions.append(fake)
        try:
            assert _model().estimate_grid(
                compiled, block, _candidates(block.block_id, [1024.0])
            ) is None
        finally:
            block.plan.instructions.remove(fake)


class TestOptimizerIntegration:
    def test_vector_on_off_choose_identically(self):
        cluster = paper_cluster()
        results = {}
        for vec in (True, False):
            compiled = _compile_mr_plan()
            result = ResourceOptimizer(
                cluster, m=7, enable_vector_costing=vec
            ).optimize(compiled)
            index_of = {
                b.block_id: i
                for i, b in enumerate(compiled.last_level_blocks())
            }
            vector = tuple(sorted(
                (index_of[bid], ri)
                for bid, ri in result.resource.mr_heap_per_block.items()
            ))
            results[vec] = (
                result.resource.cp_heap_mb, result.resource.mr_heap_mb,
                vector, result.cost, tuple(result.cp_profile),
            )
        assert results[True] == results[False]

    def test_batched_counter_reports_vector_work(self):
        cluster = paper_cluster()
        on = ResourceOptimizer(
            cluster, m=7, enable_vector_costing=True
        ).optimize(_compile_mr_plan())
        off = ResourceOptimizer(
            cluster, m=7, enable_vector_costing=False
        ).optimize(_compile_mr_plan())
        assert on.stats.mr_points_batched > 0
        assert off.stats.mr_points_batched == 0

    def test_cache_ablation_forces_scalar_path(self):
        """No plan cache -> no bucket grouping -> scalar loop, even with
        the switch on (the vector path needs the cache's buckets)."""
        cluster = paper_cluster()
        result = ResourceOptimizer(
            cluster, m=7, enable_vector_costing=True,
            enable_plan_cache=False,
        ).optimize(_compile_mr_plan())
        assert result.stats.mr_points_batched == 0

    def test_decision_signature_includes_the_switch(self):
        on = OptimizerOptions(enable_vector_costing=True)
        off = OptimizerOptions(enable_vector_costing=False)
        assert on.decision_signature() != off.decision_signature()
