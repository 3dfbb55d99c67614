"""Unit tests for offer-based (Mesos-style) allocation."""

import pytest

from repro.cluster import OfferBasedAllocator, OfferStream, ResourceOffer, paper_cluster
from repro.cluster.mesos import OfferDecision
from repro.errors import ClusterError
from repro.optimizer import CostFrontier
from repro.optimizer.enumerate import FrontierStep


def frontier(profile):
    """The cost frontier of ``(cp_heap_mb, cost)`` samples."""
    return CostFrontier.from_points(
        FrontierStep(heap, cost, ()) for heap, cost in profile
    )


# a CG-like profile: expensive at small CP, cheap once data fits
PROFILE = frontier([
    (512.0, 250.0),
    (2048.0, 250.0),
    (8192.0, 240.0),
    (16384.0, 70.0),
    (32768.0, 70.0),
])


@pytest.fixture
def cluster():
    return paper_cluster()


def offer(memory_mb, timestamp=0.0, node=0):
    return ResourceOffer(offer_id=1, node_id=node, memory_mb=memory_mb,
                         timestamp=timestamp)


class TestValuation:
    def test_cost_at_takes_best_fitting_point(self):
        assert PROFILE.best_within(20000).cost == 70.0
        assert PROFILE.best_within(9000).cost == 240.0

    def test_cost_at_below_min_is_none(self):
        assert PROFILE.best_within(100) is None

    def test_config_at_matches_cost(self):
        assert PROFILE.best_within(20000).rc == 16384.0

    def test_best_cost(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster)
        assert alloc.best_cost == 70.0

    def test_empty_profile_rejected(self, cluster):
        with pytest.raises(ClusterError):
            OfferBasedAllocator(frontier([]), cluster)

    def test_all_infinite_profile_rejected(self, cluster):
        with pytest.raises(ClusterError):
            OfferBasedAllocator(frontier([(512.0, float("inf"))]), cluster)


class TestPolicy:
    def test_optimal_offer_accepted_immediately(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster)
        # 16384 heap needs a 24576 MB container
        decision, cost, regret = alloc.evaluate(offer(30000, timestamp=0.0))
        assert decision is OfferDecision.ACCEPT
        assert regret == 0.0

    def test_suboptimal_offer_declined_early(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster, wait_cost_per_second=1.0)
        decision, cost, regret = alloc.evaluate(offer(4096, timestamp=0.0))
        assert decision is OfferDecision.DECLINE
        assert regret == pytest.approx(180.0)

    def test_patience_decays(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster, wait_cost_per_second=1.0)
        late = offer(4096, timestamp=200.0)
        decision, _, _ = alloc.evaluate(late)
        assert decision is OfferDecision.ACCEPT  # regret 180 <= 200 tolerated

    def test_too_small_offer_always_declined(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster, wait_cost_per_second=100)
        decision, cost, _ = alloc.evaluate(offer(100, timestamp=10**6))
        assert decision is OfferDecision.DECLINE
        assert cost is None

    def test_allocate_over_stream(self, cluster):
        offers = [
            offer(1000, 1.0), offer(5000, 2.0), offer(40000, 3.0),
        ]
        alloc = OfferBasedAllocator(PROFILE, cluster, wait_cost_per_second=1.0)
        outcome = alloc.allocate(offers)
        assert outcome.accepted
        assert outcome.declined == 2
        assert outcome.cost == 70.0

    def test_stream_exhaustion(self, cluster):
        alloc = OfferBasedAllocator(PROFILE, cluster,
                                    wait_cost_per_second=0.0001)
        outcome = alloc.allocate([offer(1000, t) for t in range(5)])
        assert not outcome.accepted
        assert outcome.declined == 5


class TestOfferStream:
    def test_deterministic_given_seed(self, cluster):
        a = [o.memory_mb for o in OfferStream(cluster, seed=4, max_offers=10)]
        b = [o.memory_mb for o in OfferStream(cluster, seed=4, max_offers=10)]
        assert a == b

    def test_iterations_of_one_stream_are_equal(self, cluster):
        """Offer ids are the stream's own index, so iterating one
        seeded stream twice yields the very same offers."""
        stream = OfferStream(cluster, seed=4, max_offers=10)
        first, second = list(stream), list(stream)
        assert first == second
        assert [o.offer_id for o in first] == list(range(1, 11))

    def test_heavier_load_means_smaller_offers(self, cluster):
        light = [o.memory_mb
                 for o in OfferStream(cluster, load_mean=0.2, max_offers=50)]
        heavy = [o.memory_mb
                 for o in OfferStream(cluster, load_mean=0.9, max_offers=50)]
        assert sum(heavy) < sum(light)

    def test_timestamps_spaced(self, cluster):
        stream = list(OfferStream(cluster, interarrival_seconds=3.0,
                                  max_offers=4))
        assert [o.timestamp for o in stream] == [3.0, 6.0, 9.0, 12.0]

    def test_end_to_end_with_optimizer_profile(self, cluster):
        """On a loaded cluster the allocator eventually accepts a
        workable offer with bounded regret."""
        alloc = OfferBasedAllocator(PROFILE, cluster,
                                    wait_cost_per_second=2.0)
        outcome = alloc.allocate(OfferStream(cluster, load_mean=0.8, seed=1))
        assert outcome.accepted
        assert outcome.regret <= alloc.tolerated_regret(
            outcome.offer.timestamp
        )
