"""Unit tests for the memoizing plan-recompilation cache.

Covers the exactness contract (a cache hit returns exactly the plan a
recompilation would regenerate), bucketing, invalidation on dynamic
recompilation, the cost-model memo, and the acceptance criterion:
cache on/off choose the identical configuration on LinregCG (m = 15)
while compilations and cost invocations drop at least 2x.
"""

import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import DataType, MatrixCharacteristics
from repro.compiler.pipeline import compile_program, recompile_block_plan
from repro.compiler.plan_cache import PlanCache, block_thresholds
from repro.compiler.recompile import make_env_from_states, recompile_block
from repro.cost import CostModel
from repro.optimizer import ResourceOptimizer

BIG = {
    "X": MatrixCharacteristics(10**6, 1000, 10**9),
    "y": MatrixCharacteristics(10**6, 1, 10**6),
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


@pytest.fixture
def cluster():
    return paper_cluster()


def _fingerprint(plan):
    return [str(ins) for ins in plan.instructions]


def _mr_block(compiled):
    """A block whose plan actually reacts to the budgets."""
    for block in compiled.last_level_blocks():
        if block.plan.num_mr_jobs:
            return block
    raise AssertionError("expected an MR block")


class TestBucketing:
    def test_thresholds_are_sorted_and_finite(self):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        cp_th, mr_th = block_thresholds(block)
        assert cp_th == tuple(sorted(cp_th))
        assert mr_th == tuple(sorted(mr_th))
        assert all(0 < v < float("inf") for v in cp_th + mr_th)

    def test_repeat_budget_hits_without_recompiling(self):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        cache = PlanCache()
        resource = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512)
        before = compiled.stats.block_compilations
        first = recompile_block_plan(compiled, block, resource, cache=cache)
        again = recompile_block_plan(compiled, block, resource, cache=cache)
        assert again is first
        assert cache.misses == 1
        assert cache.hits == 1
        assert compiled.stats.block_compilations == before + 1

    def test_bucket_boundary_recompiles(self):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        cache = PlanCache()
        small = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512)
        # X is ~8 GB: a 54 GB CP budget sits past its fits-thresholds
        large = ResourceConfig(cp_heap_mb=54613, mr_heap_mb=512)
        assert cache.key_for(block, small) != cache.key_for(block, large)
        recompile_block_plan(compiled, block, small, cache=cache)
        recompile_block_plan(compiled, block, large, cache=cache)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_cached_plans_match_fresh_compilation(self):
        """The exactness contract, across a budget sweep."""
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        blocks = list(compiled.last_level_blocks())
        cache = PlanCache()
        for rc in (512.0, 2048.0, 8192.0, 16384.0, 54613.3):
            for ri in (512.0, 1024.0, 4096.0):
                resource = ResourceConfig(cp_heap_mb=rc, mr_heap_mb=ri)
                for block in blocks:
                    cached = recompile_block_plan(
                        compiled, block, resource, cache=cache
                    )
                    fp = _fingerprint(cached)
                    fresh = recompile_block_plan(compiled, block, resource)
                    assert fp == _fingerprint(fresh), (rc, ri)

    def test_handout_never_sees_another_runs_plan_cache(self):
        """The optimizer's private cache lands on the handout it ran
        on: the master and the next handout stay without one."""
        master = compile_program(CG_STYLE, ARGS, BIG)
        first = master.handout()
        ResourceOptimizer(paper_cluster()).optimize(first)
        assert first.plan_cache.plans
        assert master.plan_cache is None
        assert master.handout().plan_cache is None


class TestInvalidation:
    SOURCE = """
X = read($X)
y = read($y)
Y = table(seq(1, nrow(X)), y)
k = ncol(Y)
if (k > 0) {
  B = matrix(0, rows=ncol(X), cols=k)
  G = t(X) %*% Y + B
  s = sum(G)
  print(s)
}
"""
    META = {
        "X": MatrixCharacteristics(10**5, 100, 10**7),
        "y": MatrixCharacteristics(10**5, 1, 10**5),
    }

    def _unknown_block(self, compiled):
        for block in compiled.last_level_blocks():
            if block.requires_recompile:
                return block
        raise AssertionError("expected an unknown block")

    def test_dynamic_recompile_drops_cached_plans(self):
        compiled = compile_program(
            self.SOURCE, {"X": "X", "y": "y"}, self.META,
            ResourceConfig(8192, 1024),
        )
        block = self._unknown_block(compiled)
        cache = PlanCache()
        compiled.plan_cache = cache
        resource = ResourceConfig(8192, 1024)
        recompile_block_plan(compiled, block, resource, cache=cache)
        stale_key = cache.key_for(block, resource)
        assert cache.plans.get(stale_key) is not None
        env = make_env_from_states({
            "X": (DataType.MATRIX, self.META["X"], None),
            "y": (DataType.MATRIX, self.META["y"], None),
            "Y": (DataType.MATRIX,
                  MatrixCharacteristics(10**5, 3, 10**5), None),
            "k": (DataType.SCALAR, MatrixCharacteristics(0, 0, 0), 3),
        })
        recompile_block(compiled, block, resource, env)
        assert cache.invalidations == 1
        # thresholds were re-derived from the refreshed DAG, and no plan
        # generated before the size update survived
        assert all(key[0] != block.block_id or value.signature
                   == block.plan.signature
                   for key, value in cache.plans.items())
        assert block.block_id in cache.thresholds


class TestCostMemo:
    def test_memo_skips_invocations(self, cluster):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        resource = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512)
        recompile_block_plan(compiled, block, resource)
        model = CostModel(cluster)
        first = model.estimate_block(compiled, block, resource,
                                     use_memo=True)
        invocations = model.invocations
        second = model.estimate_block(compiled, block, resource,
                                      use_memo=True)
        assert second == first
        assert model.invocations == invocations
        assert model.memo_hits == 1

    def test_memo_key_projects_mr_heap(self, cluster):
        """Two MR heaps with equal task parallelism and thrash status
        cost identically, so they share one memo entry."""
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        model = CostModel(cluster)
        r1 = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512,
                            mr_heap_per_block={block.block_id: 2048.0})
        r2 = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512,
                            mr_heap_per_block={block.block_id: 2049.0})
        if model.mr_cost_signature(block.block_id, r1) != (
            model.mr_cost_signature(block.block_id, r2)
        ):
            pytest.skip("cluster parameters separate these heaps")
        recompile_block_plan(compiled, block, r1)
        first = model.estimate_block(compiled, block, r1, use_memo=True)
        second = model.estimate_block(compiled, block, r2, use_memo=True)
        assert second == first
        assert model.memo_hits == 1

    def test_memo_key_separates_budget_divisors(self, cluster):
        """Parfor bodies recompile under ``cp_budget / budget_divisor``,
        so the divisor is part of the memo key: the same plan signature
        under different divisors must not share a memo entry."""
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        resource = ResourceConfig(cp_heap_mb=512, mr_heap_mb=512)
        recompile_block_plan(compiled, block, resource)
        model = CostModel(cluster)
        undivided = model._block_memo_key(block, resource)
        assert undivided is not None
        original = block.budget_divisor
        try:
            block.budget_divisor = original * 4
            assert model._block_memo_key(block, resource) != undivided
        finally:
            block.budget_divisor = original


class TestAcceptance:
    def _compiled_linregcg(self):
        from repro.runtime import SimulatedHDFS
        from repro.scripts import load_script
        from repro.workloads import prepare_inputs, scenario

        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, "LinregCG", scenario("M"))
        return compile_program(
            load_script("LinregCG"), args, hdfs.input_meta()
        )

    def test_linregcg_m15_reductions_with_identical_choice(self, cluster):
        compiled = self._compiled_linregcg()
        off = ResourceOptimizer(
            cluster, m=15, enable_plan_cache=False
        ).optimize(compiled)
        on = ResourceOptimizer(
            cluster, m=15, enable_plan_cache=True
        ).optimize(compiled)
        # identical outcome ...
        assert on.resource == off.resource
        assert on.cost == off.cost
        assert [(p.rc, p.cost) for p in on.points] == [
            (p.rc, p.cost) for p in off.points
        ]
        # ... at a fraction of the work
        assert 2 * on.stats.block_compilations <= (
            off.stats.block_compilations
        )
        assert 2 * on.stats.cost_invocations <= off.stats.cost_invocations
        assert on.stats.plan_cache_hits > 0
        assert off.stats.plan_cache_hits == 0


class TestSeeding:
    """The enumeration's cache starts from the plans the program arrives
    with — when, and only when, they are ``compile_plans``' plans for
    ``compiled.resource`` and the search covers the whole program."""

    @staticmethod
    def _plans(compiled):
        """The plan objects the blocks hold now (held, so that identity
        stays meaningful after the blocks move on)."""
        return [b.plan for b in compiled.last_level_blocks()]

    @staticmethod
    def _shared(plans, others):
        """How many of ``plans`` are, by identity, among ``others``."""
        return sum(any(p is q for q in others) for p in plans)

    def _seeds(self, arrival, compiled):
        return self._shared(arrival, compiled.plan_cache.plans.values())

    def test_planned_arrival_seeds_every_bucket_without_counting(
            self, cluster):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        assert compiled.planned
        arrival = self._plans(compiled)
        seeded = ResourceOptimizer(cluster).optimize(compiled)
        assert self._seeds(arrival, compiled) == len(arrival)

        unplanned = compile_program(CG_STYLE, ARGS, BIG)
        unplanned.planned = False
        arrival = self._plans(unplanned)
        plain = ResourceOptimizer(cluster).optimize(unplanned)
        assert self._seeds(arrival, unplanned) == 0

        # neither a compilation nor a lookup: the lookups are the same,
        # one per block fewer of them misses and compiles
        blocks = seeded.stats.total_blocks
        assert seeded.stats.block_compilations == (
            plain.stats.block_compilations - blocks
        )
        assert seeded.stats.plan_cache_misses == (
            plain.stats.plan_cache_misses - blocks
        )
        assert seeded.stats.plan_cache_hits == (
            plain.stats.plan_cache_hits + blocks
        )
        assert (seeded.resource, seeded.cost,
                [(p.rc, p.cost) for p in seeded.points]) == (
            plain.resource, plain.cost,
            [(p.rc, p.cost) for p in plain.points],
        )

    def test_a_seed_is_the_plan_its_bucket_would_generate(self, cluster):
        """Arriving planned under a configuration off the grid: every
        seed sits where a regeneration under that configuration lands."""
        odd = ResourceConfig(3333.0, 777.0)
        compiled = compile_program(CG_STYLE, ARGS, BIG, odd)
        ResourceOptimizer(cluster).optimize(compiled)
        cache = compiled.plan_cache
        for block in compiled.last_level_blocks():
            seed = cache.plans[cache.key_for(block, odd)]
            regenerated = recompile_block_plan(compiled, block, odd)
            assert regenerated is not seed
            assert _fingerprint(regenerated) == _fingerprint(seed)

    def test_a_scope_seeds_nothing(self, cluster):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        assert compiled.planned
        arrival = self._plans(compiled)
        ResourceOptimizer(cluster).optimize(
            compiled, scope_blocks=compiled.blocks[1:]
        )
        assert self._seeds(arrival, compiled) == 0

    def test_the_adapters_reoptimizations_seed_nothing(self):
        """Their scope's sizes were just refreshed: whatever plans the
        blocks hold were generated from other memory estimates."""
        from unittest import mock

        from repro import ElasticMLSession, prepare_inputs, scenario

        seen = []
        original = ResourceOptimizer._optimize

        def spy(optimizer, compiled, scope_blocks, fixed_cp_mb):
            arrival = self._plans(compiled)
            result = original(optimizer, compiled, scope_blocks, fixed_cp_mb)
            seen.append((
                scope_blocks is None, self._seeds(arrival, compiled) > 0,
            ))
            return result

        session = ElasticMLSession(sample_cap=64)
        args = prepare_inputs(session.hdfs, "MLogreg", scenario("M"))
        with mock.patch.object(ResourceOptimizer, "_optimize", spy):
            outcome = session.run("MLogreg", args)
        assert outcome.migrations >= 1
        assert seen[0] == (True, True)  # the initial optimization
        assert len(seen) >= 3 and all(
            not whole and not seeded for whole, seeded in seen[1:]
        )

    @pytest.mark.parametrize("opt_cache", [True, False])
    def test_a_masters_plan_left_on_a_handout_never_executes(
            self, opt_cache):
        """``fold_cp_points`` may leave a seed — the frozen master's own
        plan object — on the handout; ``planned`` is off by then, so the
        optimizer result cache's store, or else ``Interpreter.run``,
        regenerates before anything executes."""
        from unittest import mock

        from repro.api import SessionConfig
        from repro.pipeline import RunPipeline
        from repro.runtime import Interpreter, SimulatedHDFS
        from repro.scripts import load_script
        from repro.workloads import prepare_inputs, scenario

        hdfs = SimulatedHDFS(sample_cap=64)
        pipeline = RunPipeline(
            SessionConfig(opt_cache=opt_cache), hdfs=hdfs, sample_cap=64
        )
        args = prepare_inputs(hdfs, "LinregDS", scenario("XS", cols=100))
        source = load_script("LinregDS")
        handout = pipeline.compile(source, args)
        (_, master), = pipeline.program_cache._programs.values()
        masters = self._plans(master)
        assert self._shared(self._plans(handout), masters) == len(masters)

        folded = []
        original = ResourceOptimizer._optimize

        def spy(optimizer, compiled, scope_blocks, fixed_cp_mb):
            result = original(optimizer, compiled, scope_blocks, fixed_cp_mb)
            folded.append((self._plans(compiled), compiled.planned))
            return result

        executed = []
        run_blocks = Interpreter._exec_blocks

        def exec_spy(interp, blocks, *args, **kwargs):
            executed.append(self._plans(interp.compiled))
            return run_blocks(interp, blocks, *args, **kwargs)

        with mock.patch.object(ResourceOptimizer, "_optimize", spy), \
                mock.patch.object(Interpreter, "_exec_blocks", exec_spy):
            result = pipeline.optimize_cached(source, args, handout)
            pipeline.execute_program(handout, result.resource)
        (left, planned), = folded
        assert self._shared(left, masters) and not planned  # the case
        assert executed and self._shared(executed[0], masters) == 0
        # ... and the master is frozen
        assert all(p is q for p, q in zip(self._plans(master), masters))


class TestPickleAndMerge:
    """Cross-process contracts: pickling preserves the full cache state,
    and plans generated in two processes never share a signature."""

    def test_plan_signatures_of_two_processes_never_meet(self):
        """Were a plan generated in another process ever seeded into
        this one's cost memo, its signature must not collide with one
        the parent generates: the two ranges are disjoint."""
        import subprocess
        import sys

        from repro.compiler.runtime_prog import BlockPlan

        theirs = int(subprocess.run(
            [sys.executable, "-c",
             "from repro.compiler.runtime_prog import BlockPlan\n"
             "print(BlockPlan().signature)"],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout)
        assert theirs >> 40 != BlockPlan().signature >> 40

    def _warm_cache(self):
        compiled = compile_program(CG_STYLE, ARGS, BIG)
        block = _mr_block(compiled)
        cache = PlanCache()
        for rc in (512.0, 2048.0, 54613.3):
            recompile_block_plan(
                compiled, block, ResourceConfig(rc, 512.0), cache=cache
            )
        return compiled, block, cache

    def test_pickle_roundtrip_preserves_state(self):
        import pickle

        compiled, block, cache = self._warm_cache()
        clone = pickle.loads(pickle.dumps(cache))
        assert set(clone.plans) == set(cache.plans)
        assert clone.thresholds == cache.thresholds
        assert (clone.hits, clone.misses) == (cache.hits, cache.misses)
        # the revived cache keeps serving hits at the warmed budgets
        before = clone.hits
        plan = recompile_block_plan(
            compiled, block, ResourceConfig(512.0, 512.0), cache=clone
        )
        assert clone.hits == before + 1
        assert _fingerprint(plan) == _fingerprint(
            cache.plans[cache.key_for(block, ResourceConfig(512.0, 512.0))]
        )


class TestSharedCacheConcurrency:
    """Handouts of one master never see each other's plans, and a
    PlanCache stays whole under concurrent threads (its internal
    lock)."""

    def test_handout_never_sees_another_runs_plans(self):
        """Replanning one handout rebinds only its own holders: the
        master and a sibling handout keep the master's plan objects."""
        from repro.compiler.pipeline import compile_plans, plan_holders

        master = compile_program(CG_STYLE, ARGS, BIG)
        pristine = [holder.plan for holder in plan_holders(master)]
        first, second = master.handout(), master.handout()
        compile_plans(first, ResourceConfig(8192.0, 4096.0))
        for mine, theirs, kept, was in zip(
            plan_holders(first), plan_holders(second),
            plan_holders(master), pristine,
        ):
            assert mine.plan is not was
            assert theirs.plan is was
            assert kept.plan is was

    def test_concurrent_store_lookup_not_torn(self):
        """Hammer one shared cache from many threads: every lookup
        returns either None or a value stored under that exact key,
        every key is kept, and counters stay consistent."""
        import threading

        shared = PlanCache()
        errors = []
        barrier = threading.Barrier(4)

        def tenant(tid):
            try:
                barrier.wait()
                for i in range(300):
                    key = ("block", tid % 2, i % 40)
                    value = f"plan-{tid % 2}-{i % 40}"
                    shared.store(key, value)
                    found = shared.lookup(key)
                    if found is not None and found != value:
                        errors.append((key, found))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(tid,))
            for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(shared.plans) == 2 * 40
        for key, value in shared.plans.items():
            assert value == f"plan-{key[1]}-{key[2]}"
        assert shared.hits + shared.misses >= 1200

    def test_pickle_roundtrip_restores_lock_and_bound(self):
        import pickle

        cache = PlanCache()
        cache.store(("b", 0, 0), "p0")
        revived = pickle.loads(pickle.dumps(cache))
        revived.store(("b", 0, 1), "p1")  # lock works post-revive
        assert len(revived.plans) == 2
