"""Validity intervals of what-if costs (DESIGN.md section 16).

A cost walk reads the CP budget only through ``CostModel._holds``, which
narrows ``[_lo, _hi)`` to the budgets that compare the same; the memo
answers a later estimate of the same plans when its budget is inside.
Two claims are checked on generated instruction streams and on real
programs:

* the interval is *recorded completely* — a spy budget that logs every
  comparison made against it sees nothing the interval does not know
  (a seventh comparison added without the helper fails here instead of
  returning a stale cost);
* the interval is *right* — a fresh, un-memoised walk anywhere inside
  it returns the same float and the same per-instruction log, and the
  memo misses just outside it.
"""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler import compile_program
from repro.compiler import statement_blocks as SB
from repro.compiler.runtime_prog import PredicatePlan
from repro.cost.model import CostModel, CostState
from repro.runtime import SimulatedHDFS
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario
from tests.cost.test_cost_state_oracle import (
    SETTINGS,
    Budget,
    Watched,
    block_lists,
    budgets,
    dense,
    generic,
    holder,
    op,
    sparse,
)


# -- the spy -------------------------------------------------------------------


class SpyBudget(float):
    """A CP budget that logs ``(x, outcome)`` of every ``x <= budget``
    evaluated against it, and refuses to be read any other way."""

    def __new__(cls, value):
        spy = super().__new__(cls, value)
        spy.log = []
        return spy

    def __ge__(self, x):  # the reflection Python calls for ``x <= spy``
        outcome = float(self) >= x
        self.log.append((x, outcome))
        return outcome

    def _refuse(self, *_):
        raise AssertionError(
            "the cost walk may read the CP budget only as "
            "CostModel._holds does: x <= resource.cp_budget_bytes"
        )

    __le__ = __lt__ = __gt__ = __eq__ = __ne__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _refuse
    __hash__ = float.__hash__


def assert_interval_is_what_the_spy_saw(model, spy):
    held = [x for x, outcome in spy.log if outcome]
    failed = [x for x, outcome in spy.log if not outcome]
    assert model._lo == max(held, default=-math.inf)
    assert model._hi == min(failed, default=math.inf)
    return len(spy.log)


def spied_walk(blocks, budget):
    model = CostModel(paper_cluster())
    spy = SpyBudget(budget)
    model.estimate_blocks(None, blocks, Budget(2048, 1024, budget=spy))
    return model, spy


# -- crafted streams: every kind of compared value appears ---------------------

MB400 = dense(10**6, 50)  # an int size

INT_SIZES = [generic(
    op("mvvar", ["ghost"], "X", MB400),
    op("abs", ["X"], "Y", MB400),
    op("abs", ["fresh"], "z", dense(10**6, 20)),
)]
INF_SIZES = [generic(
    op("abs", ["u"], "v", MatrixCharacteristics.unknown(),
       in_mcs=[MatrixCharacteristics(1000, None, None)]),
    op("abs", ["v"], "w", sparse(3000, 41, 20011.3)),
)]
#: 400 MB resident twice over and a third operand: over a 900 MB budget
#: the oldest is dropped, through the eviction loop's own comparison
EVICTING = [generic(
    op("mvvar", ["ghost"], "X", MB400),
    op("abs", ["X"], "_t1", MB400),
    op("abs", ["_t1"], "y", dense(1, 1)),
    op("abs", ["small"], "z", dense(10**6, 20)),
)]


def test_crafted_streams_are_what_they_claim():
    _, spy = spied_walk(INT_SIZES, 900e6)
    assert any(type(x) is int for x, _ in spy.log)  # sizes; totals float
    model, spy = spied_walk(INF_SIZES, 900e6)
    assert (math.inf, False) in spy.log and model._hi == math.inf
    state = CostState()
    Watched()._cost_blocks(
        EVICTING, Budget(2048, 1024, budget=900e6), state, None, set()
    )
    assert not state["X"].in_memory  # evicted, so the loop compared


# -- (b) nothing is compared outside the helper --------------------------------


class TestEveryComparisonIsRecorded:
    @SETTINGS
    @given(block_lists(2), budgets)
    @example(INT_SIZES, 900e6)
    @example(INF_SIZES, 1e6)
    @example(EVICTING, 900e6)
    def test_generated_streams(self, blocks, budget):
        assert_interval_is_what_the_spy_saw(*spied_walk(blocks, budget))

    @pytest.mark.parametrize("script", ["L2SVM", "GLM", "MLogreg"])
    def test_real_programs_whole_walk_and_block_walk(self, script):
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, script, scenario("M", cols=1000))
        compiled = compile_program(
            load_script(script), args, hdfs.input_meta(),
            ResourceConfig(2048, 1024),
        )
        model = CostModel(paper_cluster(), exclude_provisional=False)

        def resource(mr_heap_mb=1024):
            real = ResourceConfig(2048, mr_heap_mb)
            return Budget(
                2048, mr_heap_mb, budget=SpyBudget(real.cp_budget_bytes)
            )

        spied = resource()
        model.estimate_program(compiled, spied)
        assert assert_interval_is_what_the_spy_saw(model, spied.budget) > 100
        block = next(
            b for b in compiled.last_level_blocks() if b.plan.num_mr_jobs
        )
        spied = resource()
        model.estimate_block(compiled, block, spied)
        assert assert_interval_is_what_the_spy_saw(model, spied.budget)


# -- (c) the interval is right --------------------------------------------------


def watched_walk(blocks, budget):
    """(cost, per-instruction log) of a fresh walk: never an answer."""
    model = Watched()
    cost = model.estimate_blocks(
        None, blocks, Budget(2048, 1024, budget=budget)
    )
    return cost.hex(), model.log


def assert_interval_is_right(blocks, budget, fraction):
    memo = CostModel(paper_cluster())

    def ask(at):
        before = memo.invocations
        cost = memo.estimate_blocks(
            None, blocks, Budget(2048, 1024, budget=at), use_memo=True
        )
        return cost.hex(), memo.invocations == before

    cost, hit = ask(budget)
    assert not hit
    lo, hi = memo._lo, memo._hi
    reference = watched_walk(blocks, budget)
    assert reference[0] == cost
    if budget == math.inf:
        # the one budget no half-open interval holds; and with an
        # infinite size compared, [inf, inf) holds nothing at all
        assert hi == math.inf
        return
    assert lo <= budget < hi
    bottom = lo if lo > -math.inf else min(budget, 0.0) - 1.0
    top = math.nextafter(hi, -math.inf) if hi < math.inf else (
        max(budget, 1.0) * 4.0
    )
    between = bottom + (top - bottom) * fraction
    for inside in (bottom, between, top):
        if not lo <= inside < hi:  # ``between`` rounded onto an edge
            continue
        assert ask(inside) == (cost, True)
        assert watched_walk(blocks, inside) == reference
    for outside in (hi, math.nextafter(lo, -math.inf)):
        if math.isfinite(outside):
            _, hit = ask(outside)
            assert not hit


class TestAnyBudgetInsideCostsTheSame:
    @SETTINGS
    @given(block_lists(2), budgets, st.floats(0.0, 1.0))
    @example(INT_SIZES, 900e6, 0.5)
    @example(INT_SIZES, float(MB400.memory_estimate()), 0.0)
    @example(INF_SIZES, 1e6, 0.5)
    @example(EVICTING, 900e6, 0.5)
    def test_generated_streams(self, blocks, budget, fraction):
        assert_interval_is_right(blocks, budget, fraction)

    def test_an_evicting_walk_is_bounded_on_both_sides(self):
        """The totals the eviction loop compared bound the interval from
        both sides (sound, not tight: just under ``lo`` the O(1) return
        gives way to the re-sum, which may well decide the same)."""
        memo = CostModel(paper_cluster())
        memo.estimate_blocks(
            None, EVICTING, Budget(2048, 1024, budget=900e6), use_memo=True
        )
        lo, hi = memo._lo, memo._hi
        assert 0 < lo <= 900e6 < hi < math.inf
        assert watched_walk(EVICTING, lo) == watched_walk(EVICTING, 900e6)
        # at ``hi`` nothing is evicted any more
        assert watched_walk(EVICTING, hi) != watched_walk(EVICTING, 900e6)


# -- what the memo must not do ---------------------------------------------------


class TestMemoBoundaries:
    def _program(self):
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, "L2SVM", scenario("M", cols=1000))
        rc = ResourceConfig(2048, 1024)
        return compile_program(
            load_script("L2SVM"), args, hdfs.input_meta(), rc
        ), rc

    def test_without_use_memo_every_estimate_is_a_walk(self):
        compiled, rc = self._program()
        model = CostModel(paper_cluster())
        costs = {model.estimate_program(compiled, rc) for _ in range(3)}
        assert len(costs) == 1
        assert (model.invocations, model.memo_hits) == (3, 0)
        assert not model._memo

    def test_a_hit_is_not_an_invocation_and_clear_memo_forgets(self):
        compiled, rc = self._program()
        model = CostModel(paper_cluster())
        first = model.estimate_program(compiled, rc, use_memo=True)
        assert model.estimate_program(compiled, rc, use_memo=True) == first
        assert (model.invocations, model.memo_hits) == (1, 1)
        model.clear_memo()
        assert model.estimate_program(compiled, rc, use_memo=True) == first
        assert (model.invocations, model.memo_hits) == (2, 1)

    def test_component_accounting_bypasses_the_memo(self):
        compiled, rc = self._program()
        model = CostModel(paper_cluster())
        total = model.estimate_program(compiled, rc, use_memo=True)
        model.component_totals = {}
        try:
            assert model.estimate_program(
                compiled, rc, use_memo=True
            ) == total
            assert model.component_totals  # walked, not answered
        finally:
            model.component_totals = None
        assert (model.invocations, model.memo_hits) == (2, 0)

    def test_whole_walk_key_names_everything_but_the_budget(self):
        """Another plan anywhere, another MR signature, a provisional
        flag or a trip count is another key; another CP heap alone is
        not."""
        compiled, rc = self._program()
        model = CostModel(paper_cluster())
        key = model._walk_key(compiled, compiled.blocks, rc)
        assert key == model._walk_key(
            compiled, compiled.blocks, ResourceConfig(2049, 1024)
        )
        assert key != model._walk_key(
            compiled, compiled.blocks[1:], rc
        )
        assert key != model._walk_key(
            compiled, compiled.blocks, ResourceConfig(2048, 16384)
        )
        block = next(iter(compiled.last_level_blocks()))
        block.requires_recompile = not block.requires_recompile
        assert key != model._walk_key(compiled, compiled.blocks, rc)
        block.requires_recompile = not block.requires_recompile
        assert key == model._walk_key(compiled, compiled.blocks, rc)
        original, block.plan = block.plan, type(block.plan)(
            instructions=block.plan.instructions,
            num_mr_jobs=block.plan.num_mr_jobs,
        )  # the same instructions, another generation
        assert key != model._walk_key(compiled, compiled.blocks, rc)
        block.plan = original
        loop = next(
            b for b in compiled.all_blocks() if isinstance(b, SB.WhileBlock)
        )
        original, loop.predicate.plan = loop.predicate.plan, PredicatePlan(
            instructions=loop.predicate.plan.instructions
        )
        assert key != model._walk_key(compiled, compiled.blocks, rc)
        loop.predicate.plan = original
        assert key == model._walk_key(compiled, compiled.blocks, rc)

    def test_known_iterations_are_in_the_key(self):
        body = generic(op("abs", ["a"], "b", dense(10, 10)))
        loop = SB.ForBlock(
            from_holder=holder(), to_holder=holder(), body=[body],
            known_iterations=3,
        )
        model = CostModel(paper_cluster())
        rc = Budget(2048, 1024, budget=1e9)
        three = model.estimate_blocks(None, [loop], rc, use_memo=True)
        loop.known_iterations = 7
        seven = model.estimate_blocks(None, [loop], rc, use_memo=True)
        assert seven > three and model.memo_hits == 0
