"""Property-based tests (hypothesis) on frontier admission — the cost
frontier the optimizer keeps, the sizes admission offers from it, and
the one CP floor — trace generation, and RM capacity/quota safety."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ElasticMLSession
from repro.cluster import ResourceManager, small_cluster
from repro.cluster.admission import AdmissionCore
from repro.elastic import bursty_trace
from repro.elastic.simulator import MAX_SLOWDOWN, frontier_offers
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario

#: recipes (script, size, cols) whose winners sit above the CP floor on
#: at least one of NODE_MB, so their frontiers are not all empty
RECIPES = (
    ("L2SVM", "L", 1000), ("L2SVM", "M", 1000), ("GLM", "S", 1000),
    ("LinregDS", "S", 1000), ("LinregDS", "L", 1000),
    ("LinregCG", "XS", 100),
)
NODE_MB = (2048, 8192)

recipes = st.sampled_from(RECIPES)
node_sizes = st.sampled_from(NODE_MB)


def cluster_of(node_mb):
    return small_cluster(num_nodes=1, node_memory_mb=node_mb)


@functools.lru_cache(maxsize=None)
def optimized(recipe, node_mb):
    """A fresh optimization of ``recipe`` on one ``node_mb`` node:
    ``(result, compiled)``, shared by every example that draws it."""
    script, size, cols = recipe
    session = ElasticMLSession(cluster=cluster_of(node_mb), sample_cap=64)
    args = prepare_inputs(session.hdfs, script, scenario(size, cols=cols))
    compiled = session.compile(load_script(script), args)
    return session.make_optimizer().optimize(compiled), compiled


def admit(occupied, offers, cluster):
    """Admit a request offering ``offers`` (container MB ->
    configuration) through the admission core with ``occupied``
    min-size containers held; returns ``(configuration, container_mb)``
    of the grant, or None when it has to queue."""
    rm = ResourceManager(cluster)
    for _ in range(occupied):
        if rm.try_allocate(cluster.min_allocation_mb) is None:
            break
    ideal_mb, *shrunk_mb = offers
    core = AdmissionCore(rm)
    core.offer(1, None, ideal_mb, shrunk_mb)
    for _request, (container,) in core.grant():
        return offers[container.memory_mb], container.memory_mb
    return None


def admitted_mb(occupied, recipe, node_mb):
    cluster = cluster_of(node_mb)
    result, _ = optimized(recipe, node_mb)
    admitted = admit(occupied, frontier_offers(result, cluster), cluster)
    return admitted[1] if admitted is not None else None


class TestFrontier:
    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_offered_sizes_are_points_of_the_cp_profile(self, recipe,
                                                         node_mb):
        """Every configuration admission offers is one the optimizer
        enumerated and costed: the winner, or a frontier step below the
        winner whose (rc, cost) is one of the program's own ``points``."""
        result, _ = optimized(recipe, node_mb)
        cluster = cluster_of(node_mb)
        profile = {p.rc: p.cost for p in result.points}
        frontier = {
            rc: (cost, vector) for rc, cost, vector
            in result.frontier.below(result.resource.cp_heap_mb)
        }
        for container_mb, resource in frontier_offers(
            result, cluster
        ).items():
            assert resource.container_request_mb(cluster) == container_mb
            rc = resource.cp_heap_mb
            assert rc in profile
            if resource is result.resource:
                continue
            cost, vector = frontier[rc]
            assert profile[rc] == cost
            assert resource.mr_heap_per_block == dict(vector)
            assert resource.mr_heap_mb == result.resource.mr_heap_mb

    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_frontier_costs_strictly_decrease_with_rc(self, recipe,
                                                       node_mb):
        """The frontier is the lower edge of every cost step: ascending
        rc, strictly falling cost, no point cheaper than any smaller one,
        and :meth:`below` the winner only steps under its rc."""
        result, _ = optimized(recipe, node_mb)
        steps = result.frontier.steps
        rcs = [rc for rc, _, _ in steps]
        costs = [cost for _, cost, _ in steps]
        assert rcs == sorted(set(rcs))
        assert all(a > b for a, b in zip(costs, costs[1:]))
        winner_rc = result.resource.cp_heap_mb
        assert all(
            rc < winner_rc for rc, _, _ in result.frontier.below(winner_rc)
        )
        for rc, cost, _ in steps:
            assert all(
                cost < point.cost for point in result.points if point.rc < rc
            )

    @given(recipe=recipes, node_mb=node_sizes)
    @settings(max_examples=15, deadline=None)
    def test_no_offer_costs_more_than_max_slowdown(self, recipe, node_mb):
        result, _ = optimized(recipe, node_mb)
        profile = {p.rc: p.cost for p in result.points}
        for resource in frontier_offers(result, cluster_of(node_mb)).values():
            if resource is not result.resource:
                assert profile[resource.cp_heap_mb] <= (
                    MAX_SLOWDOWN * result.cost
                )

    def test_cache_hit_frontier_equals_the_fresh_one(self):
        """The cross-run cache keeps the frontier on the master, so a
        hit on another handout of it offers the very points a fresh
        enumeration found."""
        session = ElasticMLSession(cluster=small_cluster(), sample_cap=64)
        args = prepare_inputs(
            session.hdfs, "L2SVM", scenario("L", cols=1000)
        )
        source = load_script("L2SVM")
        first = session.compile(source, args)
        fresh = session.optimize_cached(source, args, first)
        second = session.compile(source, args)
        hit = session.optimize_cached(source, args, second)
        assert not fresh.from_cache and hit.from_cache
        assert len(fresh.frontier.below(fresh.resource.cp_heap_mb)) > 1
        assert hit.frontier == fresh.frontier


class TestAdmissionLadder:
    """The ladder of acceptable container sizes an entry offers: the
    winner's container, then its frontier's."""

    @given(recipe=recipes, node_mb=node_sizes,
           fewer=st.integers(0, 12), extra=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_free_capacity(self, recipe, node_mb, fewer, extra):
        """More free memory never yields a smaller admitted container."""
        roomy = admitted_mb(fewer, recipe, node_mb)
        cramped = admitted_mb(fewer + extra, recipe, node_mb)
        if cramped is not None:
            assert roomy is not None
            assert roomy >= cramped

    def test_strict_queueing_disables_ladder(self):
        # the paper's rule, no frontier offers: a full node queues the
        # ideal container
        cluster = cluster_of(8192)
        result, _ = optimized(("L2SVM", "L", 1000), 8192)
        ideal = result.resource
        only_ideal = {ideal.container_request_mb(cluster): ideal}
        assert admit(32, only_ideal, cluster) is None
        assert admit(0, only_ideal, cluster) == (
            ideal, ideal.container_request_mb(cluster)
        )
        # with the frontier, the same full node admits below ideal
        admitted, _ = admit(24, frontier_offers(result, cluster), cluster)
        assert admitted is not ideal

    @given(recipe=recipes, node_mb=node_sizes,
           occupied=st.integers(min_value=0, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_admitted_heaps_never_below_the_cp_floor(
        self, recipe, node_mb, occupied
    ):
        """One CP floor: whatever admission grants, every heap of the
        admitted configuration stays at or above ``cluster.min_heap_mb``,
        the heap the optimizer's grid starts at."""
        cluster = cluster_of(node_mb)
        result, _ = optimized(recipe, node_mb)
        admitted = admit(occupied, frontier_offers(result, cluster), cluster)
        if admitted is None:
            return
        resource, container_mb = admitted
        floor = cluster.min_heap_mb
        assert resource.container_request_mb(cluster) == container_mb
        assert resource.cp_heap_mb >= floor
        assert resource.mr_heap_mb >= floor
        assert all(
            heap >= floor for heap in resource.mr_heap_per_block.values()
        )


class TestTraceGeneration:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_bursty_trace_deterministic(self, seed):
        a = bursty_trace(seed=seed, tenants=8, bursts=2)
        b = bursty_trace(seed=seed, tenants=8, bursts=2)
        assert a.name == b.name
        assert a.entries == b.entries

    @given(seed=st.integers(0, 2**16),
           tenants=st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_trace_shape(self, seed, tenants):
        trace = bursty_trace(seed=seed, tenants=tenants, bursts=2)
        assert len(trace.entries) == tenants
        arrivals = [e.arrival_s for e in trace.entries]
        assert arrivals == sorted(arrivals)
        assert all(a >= 0 for a in arrivals)


    @pytest.mark.parametrize("shape", [
        {"tenants": 0}, {"bursts": 0}, {"tenants": -1}, {"bursts": -2},
    ])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="tenants >= 1 and bursts >= 1"):
            bursty_trace(seed=0, **shape)


class TestResourceManagerSafety:
    @given(requests=st.lists(
        st.integers(min_value=64, max_value=2048), max_size=24
    ))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, requests):
        cluster = small_cluster(num_nodes=2, node_memory_mb=1024)
        rm = ResourceManager(cluster)
        for mb in requests:
            try:
                rm.try_allocate(mb)
            except Exception:
                continue
            assert rm.used_mb <= cluster.total_memory_mb

    @given(requests=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.integers(min_value=64, max_value=1024),
        ),
        max_size=24,
    ))
    @settings(max_examples=30, deadline=None)
    def test_quota_never_exceeded(self, requests):
        cluster = small_cluster(num_nodes=2, node_memory_mb=1024)
        rm = ResourceManager(cluster)
        quota = 512.0
        rm.set_tenant_quota("a", quota)
        usage = {"a": 0.0, "b": 0.0}
        for tenant, mb in requests:
            try:
                container = rm.try_allocate(mb, tenant=tenant)
            except Exception:
                continue
            if container is not None:
                usage[tenant] += container.memory_mb
            assert usage["a"] <= quota
