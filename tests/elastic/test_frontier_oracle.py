"""Equivalence of the one cost frontier with the three staircases it
replaced (hypothesis).

:class:`~repro.optimizer.CostFrontier` is the only strict prefix
minimum over the CP grid.  Before it, the rule was written three times:
``fold_cp_points`` kept the steps below the winner as a list,
``frontier_offers`` walked that list, and ``OfferBasedAllocator``
rebuilt the staircase from the ``(cp_heap_mb, cost)`` profile on every
offer (``cost_at`` / ``config_at``).  Those three are copied below,
unchanged, as the reference oracle.

One edge moved on purpose: for a heap where every fitting point is
infeasible (``inf`` cost), ``cost_at`` answered ``inf``, so
``OfferBasedAllocator.evaluate`` returned ``(DECLINE, inf, inf)``; the
frontier has no step there, so it now returns ``(DECLINE, None,
None)``, as below the smallest grid point.  ``allocate`` declines such
an offer either way.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import OfferBasedAllocator, ResourceConfig, small_cluster
from repro.cluster.mesos import OfferDecision, ResourceOffer
from repro.elastic.simulator import MAX_SLOWDOWN, frontier_offers
from repro.optimizer import CostFrontier, OptimizerResult
from repro.optimizer.enumerate import FrontierStep, update_best
from tests.elastic.test_policy_properties import (
    NODE_MB,
    cluster_of,
    node_sizes,
    optimized,
    recipes,
)

INF = float("inf")


# -- the reference oracle: the three staircases as they were -----------


def oracle_cost_at(profile, heap_mb):
    """``OfferBasedAllocator.cost_at`` over ``sorted(cp_profile)``."""
    candidates = [c for h, c in sorted(profile) if h <= heap_mb]
    if not candidates:
        return None
    return min(candidates)


def oracle_config_at(profile, heap_mb):
    """``OfferBasedAllocator.config_at`` over ``sorted(cp_profile)``."""
    candidates = [(c, h) for h, c in sorted(profile) if h <= heap_mb]
    if not candidates:
        return None
    cost, heap = min(candidates)
    return heap


def oracle_frontier(points, winner_rc):
    """``fold_cp_points``'s frontier: ``(rc, cost, vector)`` below the
    winner, over points in ascending ``rc`` order."""
    frontier = []
    cheapest = INF
    for point in points:
        if point.rc >= winner_rc:
            break
        if point.cost < cheapest:
            cheapest = point.cost
            frontier.append((point.rc, point.cost, point.vector))
    return frontier


def oracle_offers(opt_result, cluster):
    """``frontier_offers`` over :func:`oracle_frontier`."""
    ideal = opt_result.resource
    offers = {ideal.container_request_mb(cluster): ideal}
    frontier = oracle_frontier(opt_result.points, ideal.cp_heap_mb)
    for rc, cost, vector in reversed(frontier):
        if cost > MAX_SLOWDOWN * opt_result.cost:
            break
        offers.setdefault(
            cluster.container_mb_for_heap(rc),
            ResourceConfig(rc, ideal.mr_heap_mb, dict(vector)),
        )
    return offers


# -- checks -------------------------------------------------------------


def assert_best_within_matches(frontier, profile, heap_mb):
    step = frontier.best_within(heap_mb)
    cost = oracle_cost_at(profile, heap_mb)
    if cost is None or cost == INF:
        # below the grid, or only infeasible points fit
        assert step is None
        return
    assert step.cost == cost
    assert step.rc == oracle_config_at(profile, heap_mb)


def assert_offers_match(opt_result, cluster):
    offers = frontier_offers(opt_result, cluster)
    oracle = oracle_offers(opt_result, cluster)
    assert list(offers) == list(oracle)
    for container_mb, resource in offers.items():
        assert resource == oracle[container_mb]


def probe_heaps(profile):
    heaps = {100.0}
    for rc, _ in profile:
        heaps.update((rc, rc + 0.5, rc - 0.5))
    return sorted(heaps)


# -- setting 1: the optimizer's own frontiers ---------------------------


class TestRecipes:
    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_best_within_equals_cost_at_and_config_at(self, recipe,
                                                      node_mb):
        result, _ = optimized(recipe, node_mb)
        profile = [(p.rc, p.cost) for p in result.points]
        for heap_mb in probe_heaps(profile):
            assert_best_within_matches(result.frontier, profile, heap_mb)

    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_below_the_winner_equals_the_old_frontier(self, recipe,
                                                      node_mb):
        result, _ = optimized(recipe, node_mb)
        assert list(result.frontier.below(result.resource.cp_heap_mb)) == (
            oracle_frontier(result.points, result.resource.cp_heap_mb)
        )

    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_offers_equal_the_old_offers(self, recipe, node_mb):
        result, _ = optimized(recipe, node_mb)
        assert_offers_match(result, cluster_of(node_mb))

    def test_allocator_best_cost_is_the_cheapest_feasible_point(self):
        for node_mb in NODE_MB:
            result, _ = optimized(("L2SVM", "L", 1000), node_mb)
            allocator = OfferBasedAllocator(result.frontier,
                                            cluster_of(node_mb))
            assert allocator.best_cost == min(
                p.cost for p in result.points if p.cost != INF
            )


# -- setting 2: random profiles -----------------------------------------

#: few distinct values, so ties (exact and within COST_TIE_RTOL) and
#: infeasible points are common
costs = st.sampled_from([10.0, 10.0 * (1 + 1e-12), 20.0, 26.0, 40.0, INF])
heaps = st.sampled_from([512.0, 1024.0, 1536.0, 2048.0, 3072.0, 4096.0,
                         5461.0, 8192.0])


@st.composite
def unsorted_profiles(draw, unique=False):
    """``(rc, cost)`` samples in random order, ``rc`` unique or not."""
    rcs = draw(st.lists(heaps, min_size=1, max_size=8, unique=unique))
    return [(rc, draw(costs)) for rc in rcs]


def steps_of(profile):
    """Profile samples as frontier inputs; ``vector`` tells them apart."""
    return [FrontierStep(rc, cost, ((1, 512.0 + i),))
            for i, (rc, cost) in enumerate(profile)]


def optimized_from(profile, min_mb=512.0):
    """An :class:`OptimizerResult` over ``profile`` (unique ``rc``):
    Definition 1's winner, as ``fold_cp_points`` replays it."""
    points = sorted(steps_of(profile))
    best_resource, best_cost = None, INF
    for point in points:
        chosen = ResourceConfig(point.rc, min_mb, dict(point.vector))
        best_resource, best_cost = update_best(
            best_resource, best_cost, chosen, point.cost
        )
    return OptimizerResult(
        resource=best_resource, cost=best_cost, points=points,
        frontier=CostFrontier.from_points(reversed(points)),
    )


class TestRandomProfiles:
    @given(profile=unsorted_profiles(),
           heap_mb=st.floats(0.0, 10000.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_best_within_equals_cost_at_and_config_at(self, profile,
                                                      heap_mb):
        frontier = CostFrontier.from_points(steps_of(profile))
        for probe in [heap_mb, *probe_heaps(profile)]:
            assert_best_within_matches(frontier, profile, probe)

    @given(profile=unsorted_profiles(unique=True),
           node_mb=st.sampled_from(NODE_MB))
    @settings(max_examples=300, deadline=None)
    def test_offers_equal_the_old_offers(self, profile, node_mb):
        assert_offers_match(optimized_from(profile), cluster_of(node_mb))

    @given(profile=unsorted_profiles())
    @settings(max_examples=100, deadline=None)
    def test_allocator_declines_an_infeasible_only_offer_without_cost(
        self, profile
    ):
        frontier = CostFrontier.from_points(steps_of(profile))
        if not frontier.steps:
            return
        cluster = small_cluster()
        allocator = OfferBasedAllocator(frontier, cluster,
                                        wait_cost_per_second=math.inf)
        for heap_mb in probe_heaps(profile):
            offer = ResourceOffer(1, 0, cluster.container_mb_for_heap(
                heap_mb), timestamp=1.0)
            decision, cost, regret = allocator.evaluate(offer)
            fits = oracle_cost_at(
                profile, cluster.heap_mb_for_container(offer.memory_mb)
            )
            if fits is None or fits == INF:
                assert (decision, cost, regret) == (
                    OfferDecision.DECLINE, None, None
                )
            else:
                assert decision is OfferDecision.ACCEPT
                assert cost == fits
                assert regret == fits - allocator.best_cost
