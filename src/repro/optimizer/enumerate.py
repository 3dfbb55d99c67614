"""The core resource optimizer: grid enumeration (Algorithm 1).

Solves the ML Program Resource Allocation Problem (Definition 1): find
the minimal resource configuration with minimal estimated cost, by

1. materializing ascending grid points per dimension (Section 3.3.2);
2. for each CP memory r_c: baseline-compiling the program at
   (r_c, min_cc), pruning blocks whose costs are independent of MR
   resources (Section 3.4), then enumerating the MR dimension per
   remaining block with memoization of the best (r_i, cost) — the
   semi-independent 2-dimensional subproblems of Section 3.2;
3. recompiling the whole program under the memoized vector and costing
   it end-to-end to account for the control structure;
4. returning the cheapest (ties broken towards minimal resources),
   and the points where its CP cost strictly drops (:class:`CostFrontier`).

Steps 2-3 are :func:`enumerate_cp_point` and step 4 is
:func:`fold_cp_points`; the points also carry the task durations
:mod:`repro.optimizer.parallel` models Appendix C's schedule from.

Costing always happens on generated runtime plans, which automatically
reflects every compilation phase (rewrites, operator selection,
piggybacking) — the robustness argument of Section 2.4.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from repro.cluster.resources import ResourceConfig
from repro.compiler.pipeline import recompile_block_plan
from repro.compiler.plan_cache import PlanCache
from repro.cost import CostModel
from repro.errors import OptimizationError
from repro.obs import get_tracer
from repro.optimizer.grids import (
    check_grid,
    collect_memory_estimates_mb,
    generate_grid,
)
from repro.optimizer.pruning import prune_program_blocks

#: relative tolerance for "equal" program costs: two grid points whose
#: estimates differ by float noise are a tie, and Definition 1 then
#: prefers the minimal resource configuration
COST_TIE_RTOL = 1e-9


def costs_tie(a, b, rtol=COST_TIE_RTOL):
    """Near-equality for estimated costs (exact == never fires on the
    accumulated float sums two recompilations produce)."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def update_best(best_resource, best_cost, chosen, cost):
    """One step of Definition 1's selection rule: cheapest configuration,
    near-ties broken towards minimal resources.  Returns the updated
    ``(best_resource, best_cost)``; :func:`fold_cp_points` replays it
    over the enumerated points."""
    if best_resource is None:
        return chosen, cost
    if costs_tie(cost, best_cost):
        if chosen.footprint() < best_resource.footprint():
            best_resource = chosen
        return best_resource, min(best_cost, cost)
    if cost < best_cost:
        return chosen, cost
    return best_resource, best_cost


def enumerate_block_mr(compiled, block, rc, min_mb, srm, cost_model,
                       baseline_cost, cache=None, deadline=None, stats=None):
    """Enumerate the MR grid for one block at fixed CP memory ``rc``.

    Implements the inner loop of Algorithm 1's semi-independent
    subproblems (called from :func:`enumerate_cp_point` only).
    Returns ``((best_ri, best_cost), exhausted)`` where ``exhausted``
    reports hitting ``deadline`` mid-enumeration.

    Each point is recompiled and costed with one
    :meth:`CostModel.estimate_block` walk; a strict ``<`` in ``srm``
    order selects the best, so an exact tie keeps the smaller r_i.
    With a plan cache, the costs are memoized, and a point whose budget
    stays in an already-visited ``(mr_bucket, thrash)`` class with no
    more task parallelism than a visited point is skipped outright: the
    plan is identical (same bucket) and its MR cost is weakly increasing
    as parallelism drops, so the skipped point can never *strictly* beat
    the best so far — the uncached enumeration, which costs it, selects
    the same r_i (DESIGN.md section 6).
    """
    best = (min_mb, baseline_cost)
    use_memo = cache is not None
    #: (mr_bucket, thrash) -> max map-task parallelism already costed
    seen = {}
    if use_memo:
        baseline = ResourceConfig(cp_heap_mb=rc, mr_heap_mb=min_mb)
        dop, thrash = cost_model.mr_cost_signature(block.block_id, baseline)
        seen[(cache.mr_bucket(block, baseline), thrash)] = dop
    for ri in srm:
        if ri == min_mb:
            continue
        if deadline is not None and time.perf_counter() > deadline:
            return best, True
        candidate = ResourceConfig(
            cp_heap_mb=rc,
            mr_heap_mb=min_mb,
            mr_heap_per_block={block.block_id: ri},
        )
        if use_memo:
            bucket = cache.mr_bucket(block, candidate)
            dop, thrash = cost_model.mr_cost_signature(
                block.block_id, candidate
            )
            prev_dop = seen.get((bucket, thrash))
            if prev_dop is not None and dop <= prev_dop:
                if stats is not None:
                    stats.mr_points_skipped += 1
                continue
            seen[(bucket, thrash)] = dop
        recompile_block_plan(compiled, block, candidate, cache=cache)
        cost = cost_model.estimate_block(
            compiled, block, candidate, use_memo=use_memo
        )
        if cost < best[1]:
            best = (ri, cost)
    return best, False


class CPPoint(NamedTuple):
    """What enumerating one CP grid point yields."""

    rc: float
    #: ``((block_id, r_i), ...)``: memoized best MR heap per remaining block
    vector: tuple
    #: whole-program (or scope) cost under ``vector``
    cost: float
    pruned_small: int
    pruned_unknown: int
    remaining: int
    #: the deadline expired at this point: ``vector`` is a partial memo
    exhausted: bool
    #: measured durations of Appendix C's three task kinds
    baseline_s: float
    #: ``((block_id, seconds), ...)``
    enum_s: tuple
    agg_s: float


def enumerate_cp_point(compiled, blocks, rc, min_mb, srm, cost_model, cache,
                       *, prune=True, deadline=None,
                       stats=None, cost_blocks=None):
    """The body of Algorithm 1's outer loop: everything at one CP budget.

    Baseline-compiles ``blocks`` at ``(rc, min_mb)``, prunes blocks whose
    cost is independent of MR resources (Section 3.4, unless ``prune`` is
    off), enumerates the MR grid per remaining block, recompiles under
    the memoized vector and costs the generated plan end to end
    (``cost_blocks`` restricts costing to a block scope).  Mutates
    ``compiled``'s block plans; returns a :class:`CPPoint`.
    """
    t0 = time.perf_counter()
    baseline = ResourceConfig(cp_heap_mb=rc, mr_heap_mb=min_mb)
    for block in blocks:
        recompile_block_plan(compiled, block, baseline, cache=cache)
    if prune:
        remaining, pruned_small, pruned_unknown = prune_program_blocks(blocks)
    else:
        remaining, pruned_small, pruned_unknown = blocks, [], []
    exhausted = False
    memo = {}
    for block in remaining:
        if deadline is not None and time.perf_counter() > deadline:
            exhausted = True
            break
        memo[block.block_id] = (
            min_mb,
            cost_model.estimate_block(
                compiled, block, baseline, use_memo=cache is not None
            ),
        )
    t1 = time.perf_counter()
    baseline_s = t1 - t0

    # per-block enumeration of the MR dimension (memoized best)
    enum_s = []
    if not exhausted:
        for block in remaining:
            memo[block.block_id], exhausted = enumerate_block_mr(
                compiled, block, rc, min_mb, srm, cost_model,
                memo[block.block_id][1], cache=cache, deadline=deadline,
                stats=stats,
            )
            t2 = time.perf_counter()
            enum_s.append((block.block_id, t2 - t1))
            t1 = t2
            if exhausted:
                break

    # whole-program compilation under the memoized vector (on budget
    # exhaustion: under the partial memo, so the point still contributes
    # a valid configuration + profile sample)
    chosen = ResourceConfig(
        cp_heap_mb=rc,
        mr_heap_mb=min_mb,
        mr_heap_per_block={bid: ri for bid, (ri, _) in memo.items()},
    )
    for block in blocks:
        recompile_block_plan(compiled, block, chosen, cache=cache)
    use_memo = cache is not None
    if cost_blocks is None:
        cost = cost_model.estimate_program(compiled, chosen, use_memo)
    else:
        cost = cost_model.estimate_blocks(
            compiled, cost_blocks, chosen, use_memo
        )
    t2 = time.perf_counter()
    return CPPoint(
        rc, tuple(chosen.mr_heap_per_block.items()), cost,
        len(pruned_small), len(pruned_unknown), len(remaining),
        exhausted or (deadline is not None and t2 > deadline),
        baseline_s, tuple(enum_s), t2 - t1,
    )


def fold_cp_points(result, points, compiled, blocks, min_mb, cache,
                   program_scope=True):
    """Fold enumerated CP points, in ascending ``rc`` order, into ``result``.

    Replays Definition 1's selection rule (:func:`update_best`) over the
    points, builds their cost frontier (:attr:`OptimizerResult.frontier`),
    then leaves ``compiled`` under the *returned* configuration, not
    whatever grid point ran last.
    """
    tracer = get_tracer()
    stats = result.stats
    # report pruning at min_cc, where MR usage is maximal
    stats.pruned_small = points[0].pruned_small
    stats.pruned_unknown = points[0].pruned_unknown
    stats.remaining_blocks = points[0].remaining
    best_resource, best_cost = None, float("inf")
    for point in points:
        chosen = ResourceConfig(
            cp_heap_mb=point.rc,
            mr_heap_mb=min_mb,
            mr_heap_per_block=dict(point.vector),
        )
        if tracer.enabled:
            tracer.incr("optimizer.grid_points")
            tracer.event(
                "optimizer.grid_point",
                cp_mb=point.rc,
                estimated_cost_s=point.cost,
                mr_blocks=len(point.vector),
            )
        best_resource, best_cost = update_best(
            best_resource, best_cost, chosen, point.cost
        )
        stats.budget_exhausted |= point.exhausted
    result.frontier = CostFrontier.from_points(points)
    for block in blocks:
        recompile_block_plan(compiled, block, best_resource, cache=cache)
    if program_scope:
        compiled.resource = best_resource
    result.resource = best_resource
    result.cost = best_cost


#: the :class:`OptimizerStats` fields :func:`count_work` measures
_WORK_COUNTERS = ("block_compilations", "cost_invocations", "cost_memo_hits",
                  "plan_cache_hits", "plan_cache_misses")


def _work_counters(compiled, cost_model, cache):
    return (
        compiled.stats.block_compilations,
        cost_model.invocations,
        cost_model.memo_hits,
        cache.hits if cache is not None else 0,
        cache.misses if cache is not None else 0,
    )


@contextmanager
def count_work(stats, compiled, cost_model, cache):
    """Add the block compilations, cost-model invocations and cache
    traffic of the ``with`` body to ``stats``."""
    before = _work_counters(compiled, cost_model, cache)
    yield
    after = _work_counters(compiled, cost_model, cache)
    for name, was, now in zip(_WORK_COUNTERS, before, after):
        setattr(stats, name, getattr(stats, name) + now - was)


@dataclass(frozen=True)
class OptimizerOptions:
    """Configuration of one :class:`ResourceOptimizer`.

    Groups what used to be loose keyword arguments so the session API,
    the CLI, and the adaptation path all speak the same vocabulary
    (Section 5.1 defaults: hybrid grids with m = 15).
    """

    grid_cp: str = "hybrid"
    grid_mr: str = "hybrid"
    m: int = 15
    w: float = 2.0
    #: optional wall-clock budget in seconds for the enumeration
    time_budget: float | None = None
    #: ablation switch: disable Section 3.4 block pruning
    enable_pruning: bool = True
    #: ablation switch: disable the memoizing plan/cost cache
    enable_plan_cache: bool = True
    #: may only be False: the process-pool enumeration is gone.  Kept
    #: because the repo benchmark's layer replay passes
    #: ``parallel=False``; the benchmark-v2 change deletes the field
    parallel: bool = False

    def __post_init__(self):
        check_grid(self.grid_cp)
        check_grid(self.grid_mr)
        if self.parallel:
            raise OptimizationError(
                "parallel=True: the process-pool enumeration was removed; "
                "the in-process enumeration is the only one"
            )

    def decision_signature(self):
        """The fields the optimization *decision* depends on: the
        cross-run result cache keys on this signature."""
        return (self.grid_cp, self.grid_mr, self.m, self.w,
                self.time_budget, self.enable_pruning,
                self.enable_plan_cache)


@dataclass
class OptimizerStats:
    """Counters reported in Table 3."""

    #: plans really generated (a plan-cache hit is none, and neither is
    #: a bucket seeded with the plan the program arrived with)
    block_compilations: int = 0
    #: cost walks really made (a memo hit is none)
    cost_invocations: int = 0
    optimization_time: float = 0.0
    cp_points: int = 0
    mr_points: int = 0
    total_blocks: int = 0
    pruned_small: int = 0
    pruned_unknown: int = 0
    remaining_blocks: int = 0
    #: True when the time budget expired before the grid was exhausted
    budget_exhausted: bool = False
    #: plan-cache bucket hits / misses during this optimization
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: estimates answered from the cost memo: per MR point of a block,
    #: and per CP point the whole-program (or scope) walk
    cost_memo_hits: int = 0
    #: MR grid points skipped because a same-bucket point with at least
    #: as much task parallelism was already costed (dominance)
    mr_points_skipped: int = 0


class FrontierStep(NamedTuple):
    """The lower edge of one step of a :class:`CostFrontier`."""

    rc: float
    cost: float
    #: as :attr:`CPPoint.vector`
    vector: tuple


@dataclass(frozen=True)
class CostFrontier:
    """The CP cost staircase of one optimization: ``steps`` holds, in
    ascending ``rc`` order, every point that costs strictly less than
    every smaller one (a tie goes to the smaller heap; an ``inf`` point
    never steps).  An offer is worth the step :meth:`best_within` its
    heap; elastic admission offers the steps :meth:`below` the winner."""

    steps: tuple = ()

    @classmethod
    def from_points(cls, points):
        """The staircase of ``points`` (any order), by ``rc`` and ``cost``."""
        steps, cheapest = [], math.inf
        for point in sorted(points, key=attrgetter("rc", "cost")):
            if point.cost < cheapest:
                cheapest = point.cost
                steps.append(FrontierStep(point.rc, point.cost, point.vector))
        return cls(tuple(steps))

    def best_within(self, heap_mb):
        """The last step at or below ``heap_mb``, or None below the first."""
        i = bisect_right(self.steps, heap_mb, key=attrgetter("rc"))
        return self.steps[i - 1] if i else None

    def below(self, rc):
        """The steps under CP heap ``rc``, in ascending order."""
        return self.steps[:bisect_left(self.steps, rc, key=attrgetter("rc"))]


@dataclass
class OptimizerResult:
    """Outcome of one resource optimization."""

    resource: ResourceConfig = None
    cost: float = float("inf")
    stats: OptimizerStats = field(default_factory=OptimizerStats)
    #: True when this result was answered by the session's cross-run
    #: optimizer result cache (no enumeration ran)
    from_cache: bool = False
    #: the enumerated :class:`CPPoint` records, in ascending ``rc``
    #: order (empty on a cache hit); Figure 18 schedules their task
    #: durations with :func:`~repro.optimizer.parallel.task_records`
    points: list = field(default_factory=list)
    #: the cost staircase of ``points``; elastic admission offers its
    #: steps below ``resource`` (:mod:`repro.elastic`)
    frontier: CostFrontier = field(default_factory=CostFrontier)


class ResourceOptimizer:
    """Cost-based optimizer for CP/MR memory configurations."""

    def __init__(self, cluster, params=None, grid_cp="hybrid",
                 grid_mr="hybrid", m=15, w=2.0, time_budget=None,
                 cost_model=None, enable_pruning=True,
                 enable_plan_cache=True, options=None):
        if options is not None:
            grid_cp, grid_mr = options.grid_cp, options.grid_mr
            m, w = options.m, options.w
            time_budget = options.time_budget
            enable_pruning = options.enable_pruning
            enable_plan_cache = options.enable_plan_cache
        self.cluster = cluster
        self.grid_cp = check_grid(grid_cp)
        self.grid_mr = check_grid(grid_mr)
        self.m = m
        self.w = w
        #: optional wall-clock budget in seconds for the enumeration
        self.time_budget = time_budget
        self.cost_model = cost_model or CostModel(cluster, params)
        #: ablation switch: disable Section 3.4 block pruning
        self.enable_pruning = enable_pruning
        #: ablation switch: disable the memoizing plan/cost cache
        self.enable_plan_cache = enable_plan_cache

    @property
    def options(self):
        """This optimizer's configuration as an :class:`OptimizerOptions`."""
        return OptimizerOptions(
            grid_cp=self.grid_cp,
            grid_mr=self.grid_mr,
            m=self.m,
            w=self.w,
            time_budget=self.time_budget,
            enable_pruning=self.enable_pruning,
            enable_plan_cache=self.enable_plan_cache,
        )

    # -- public API ----------------------------------------------------------

    def optimize(self, compiled, scope_blocks=None, fixed_cp_mb=None):
        """Find a near-optimal resource configuration.

        ``scope_blocks`` restricts optimization to a block subsequence
        (used by runtime re-optimization); ``fixed_cp_mb`` pins the CP
        dimension (used for the locally-optimal configuration R*|rc).
        """
        tracer = get_tracer()
        with tracer.span(
            "optimizer.optimize",
            scope="program" if scope_blocks is None else "blocks",
        ) as span:
            result = self._optimize(compiled, scope_blocks, fixed_cp_mb)
            if tracer.enabled:
                span.set("cost_s", result.cost)
                span.set("resource", result.resource.describe()
                         if result.resource else None)
                tracer.incr("optimizer.runs")
                tracer.incr("optimizer.pruned_small",
                            result.stats.pruned_small)
                tracer.incr("optimizer.pruned_unknown",
                            result.stats.pruned_unknown)
            return result

    def _optimize(self, compiled, scope_blocks, fixed_cp_mb):
        start = time.perf_counter()
        compiled.stats.reset()
        cache = None
        if self.enable_plan_cache:
            cache = PlanCache()
            compiled.plan_cache = cache
            self.cost_model.clear_memo()

        min_mb = self.cluster.min_heap_mb
        max_mb = self.cluster.max_heap_mb
        estimates = collect_memory_estimates_mb(compiled)
        if fixed_cp_mb is not None:
            src = [float(fixed_cp_mb)]
        else:
            src = generate_grid(
                self.grid_cp, min_mb, max_mb, estimates, self.m, self.w
            )
        srm = generate_grid(
            self.grid_mr, min_mb, max_mb, estimates, self.m, self.w
        )
        if not src or not srm:
            raise OptimizationError("empty resource grid")

        blocks = list(
            compiled.last_level_blocks()
            if scope_blocks is None
            else _last_level(scope_blocks)
        )
        if cache is not None and scope_blocks is None and compiled.planned:
            # the plans the program arrives with are the plans of their
            # buckets (the cache's own invariant): neither a compilation
            # nor a lookup, and never what executes (see fold_cp_points)
            for block in blocks:
                cache.store(
                    cache.key_for(block, compiled.resource), block.plan
                )
        cost_blocks = (
            None if scope_blocks is None else list(scope_blocks)
        )

        result = OptimizerResult()
        result.stats.cp_points = len(src)
        result.stats.mr_points = len(srm)
        result.stats.total_blocks = len(blocks)
        deadline = (
            start + self.time_budget if self.time_budget is not None else None
        )
        points = result.points
        # the CP grid in ascending order, stopping at the first point
        # the deadline cut short
        with count_work(result.stats, compiled, self.cost_model, cache):
            for rc in src:
                points.append(enumerate_cp_point(
                    compiled, blocks, rc, min_mb, srm, self.cost_model,
                    cache, prune=self.enable_pruning, deadline=deadline,
                    stats=result.stats, cost_blocks=cost_blocks,
                ))
                if points[-1].exhausted:
                    break
            fold_cp_points(result, points, compiled, blocks, min_mb, cache,
                           program_scope=cost_blocks is None)
        result.stats.optimization_time = time.perf_counter() - start
        return result


def _last_level(blocks):
    from repro.compiler import statement_blocks as SB

    for block in blocks:
        for inner in block.all_blocks():
            if isinstance(inner, SB.GenericBlock):
                yield inner
