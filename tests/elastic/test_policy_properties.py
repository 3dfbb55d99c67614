"""Property-based tests (hypothesis) on the Brain's control law, the
admission ladder, trace generation, and RM capacity/quota safety."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceConfig, ResourceManager, small_cluster
from repro.cluster.admission import AdmissionCore
from repro.elastic import (
    BrainPolicy,
    ElasticBrain,
    GrantedResource,
    bursty_trace,
)

utilizations = st.floats(min_value=0.0, max_value=1.0)
fractions = st.floats(min_value=0.25, max_value=1.0)

IDEAL = ResourceConfig(512, 512)


def granted_fraction(occupied, policy=None):
    """The fraction of IDEAL the admission core grants on a one-node
    cluster with ``occupied`` min-size containers held, or None when it
    has to queue."""
    policy = policy if policy is not None else BrainPolicy()
    cluster = small_cluster(num_nodes=1, node_memory_mb=1024)
    rm = ResourceManager(cluster)
    for _ in range(occupied):
        if rm.try_allocate(cluster.min_allocation_mb) is None:
            break
    fractions = {}
    for fraction in [1.0, *policy.shrink_ladder()]:
        fractions.setdefault(
            GrantedResource.of(IDEAL, fraction, cluster)
            .container_request_mb(cluster),
            fraction,
        )
    ideal_mb, *shrunk_mb = fractions
    core = AdmissionCore(rm)
    core.offer(1, None, ideal_mb, shrunk_mb)
    for _request, (container,) in core.grant():
        return fractions[container.memory_mb]
    return None


class TestControlLaw:
    @given(fraction=fractions, lo=utilizations, hi=utilizations)
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing_in_utilization(self, fraction, lo, hi):
        """More load never yields a larger grant."""
        if lo > hi:
            lo, hi = hi, lo
        brain = ElasticBrain(BrainPolicy())
        assert brain.next_fraction(fraction, lo) >= (
            brain.next_fraction(fraction, hi)
        )

    @given(fraction=fractions, u=utilizations)
    @settings(max_examples=50, deadline=None)
    def test_result_stays_in_bounds(self, fraction, u):
        brain = ElasticBrain(BrainPolicy())
        out = brain.next_fraction(fraction, u)
        assert brain.policy.min_grant_fraction <= out <= 1.0

    @given(u=utilizations)
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_under_repeated_signal(self, u):
        """A constant signal drives the fraction to a fixed point (the
        floor, 1.0, or a hold) within the ladder's depth."""
        brain = ElasticBrain(BrainPolicy())
        frac = 1.0
        for _ in range(32):
            frac = brain.next_fraction(frac, u)
        assert brain.next_fraction(frac, u) == frac


class TestAdmissionLadder:
    @given(occupied=st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_fraction_in_bounds_or_none(self, occupied):
        fraction = granted_fraction(occupied)
        if fraction is not None:
            assert BrainPolicy().min_grant_fraction <= fraction <= 1.0

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
        strict = BrainPolicy(elastic_admission=False)
        assert strict.shrink_ladder() == []
        # a full node: the ideal container cannot fit, so it queues
        assert granted_fraction(4, strict) is None
        assert granted_fraction(0, strict) == 1.0


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
