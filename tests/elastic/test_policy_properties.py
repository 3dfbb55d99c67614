"""Property-based tests (hypothesis) on the admission ladder and its
one CP floor, trace generation, and RM capacity/quota safety."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceConfig, ResourceManager, small_cluster
from repro.cluster.admission import AdmissionCore
from repro.elastic import GrantedResource, bursty_trace
from repro.elastic.brain import MIN_GRANT_FRACTION, shrink_ladder

IDEAL = ResourceConfig(512, 512)


def admit(occupied, ladder=None, ideal=IDEAL, cluster=None):
    """Admit ``ideal`` through the admission core on a cluster (default
    one 1 GB node) with ``occupied`` min-size containers held; returns
    ``(fraction, container_mb)`` of the grant, or None when it has to
    queue.  ``ladder`` defaults to :func:`shrink_ladder`."""
    ladder = shrink_ladder() if ladder is None else ladder
    cluster = cluster or small_cluster(num_nodes=1, node_memory_mb=1024)
    rm = ResourceManager(cluster)
    for _ in range(occupied):
        if rm.try_allocate(cluster.min_allocation_mb) is None:
            break
    fractions = {}
    for fraction in [1.0, *ladder]:
        fractions.setdefault(
            GrantedResource.of(ideal, fraction, cluster)
            .container_request_mb(cluster),
            fraction,
        )
    ideal_mb, *shrunk_mb = fractions
    core = AdmissionCore(rm)
    core.offer(1, None, ideal_mb, shrunk_mb)
    for _request, (container,) in core.grant():
        return fractions[container.memory_mb], container.memory_mb
    return None


def granted_fraction(occupied, ladder=None):
    admitted = admit(occupied, ladder)
    return admitted[0] if admitted is not None else None


class TestAdmissionLadder:
    def test_ladder_is_geometric_down_to_the_floor_fraction(self):
        ladder = shrink_ladder()
        assert ladder == sorted(ladder, reverse=True)
        assert ladder[0] < 1.0
        assert ladder[-1] >= MIN_GRANT_FRACTION
        assert ladder[-1] * ladder[0] < MIN_GRANT_FRACTION

    @given(occupied=st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_fraction_in_bounds_or_none(self, occupied):
        fraction = granted_fraction(occupied)
        if fraction is not None:
            assert MIN_GRANT_FRACTION <= fraction <= 1.0

    @given(fewer=st.integers(0, 3), extra=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_free_capacity(self, fewer, extra):
        """More free memory never yields a smaller admitted fraction."""
        roomy = granted_fraction(fewer)
        cramped = granted_fraction(fewer + extra)
        if cramped is not None:
            assert roomy is not None
            assert roomy >= cramped

    def test_strict_queueing_disables_ladder(self):
        # the paper's rule, no ladder: a full node queues the ideal
        # container
        assert granted_fraction(4, ladder=()) is None
        assert granted_fraction(0, ladder=()) == 1.0

    @given(
        cp=st.floats(min_value=1.0, max_value=4.0),
        mr=st.floats(min_value=1.0, max_value=4.0),
        block_mr=st.floats(min_value=1.0, max_value=4.0),
        occupied=st.integers(min_value=0, max_value=8),
        node_mb=st.sampled_from([1024, 2048, 8192]),
    )
    @settings(max_examples=60, deadline=None)
    def test_admitted_heaps_never_below_the_cp_floor(
        self, cp, mr, block_mr, occupied, node_mb
    ):
        """One CP floor: whatever rung admission grants, every granted
        heap stays at or above ``cluster.min_heap_mb``, the heap the
        optimizer's grid starts at (ideal heaps are multiples of it)."""
        cluster = small_cluster(num_nodes=1, node_memory_mb=node_mb)
        floor = cluster.min_heap_mb
        ideal = ResourceConfig(cp * floor, mr * floor, {7: block_mr * floor})
        admitted = admit(occupied, ideal=ideal, cluster=cluster)
        if admitted is None:
            return
        fraction, container_mb = admitted
        granted = GrantedResource.of(ideal, fraction, cluster)
        assert granted.container_request_mb(cluster) == container_mb
        assert granted.cp_heap_mb >= floor
        assert granted.mr_heap_mb >= floor
        assert min(granted.mr_heap_per_block.values()) >= floor


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
