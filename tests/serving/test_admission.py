"""Admission-policy units: FIFO heap-rule vs DRR best-fit packing."""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.yarn import ResourceManager
from repro.serving import (
    HeapRulePolicy,
    PackingPolicy,
    PendingRequest,
    make_policy,
)


def _rm(num_nodes=2, node_mb=4096, min_mb=256):
    cluster = ClusterConfig(
        num_nodes=num_nodes,
        node_memory_mb=node_mb,
        node_vcores=4,
        node_physical_cores=2,
        node_disks=2,
        min_allocation_mb=min_mb,
        max_allocation_mb=node_mb,
        num_reducers=2 * num_nodes,
    )
    return ResourceManager(cluster)


def _req(ticket, tenant, mb, order=None):
    return PendingRequest(
        ticket=ticket, tenant=tenant, container_mb=mb,
        order=order if order is not None else ticket,
    )


class TestHeapRulePolicy:
    def test_empty_queue_selects_nothing(self):
        assert HeapRulePolicy().select([], _rm()) is None

    def test_admits_fitting_head(self):
        policy = HeapRulePolicy()
        waiting = [_req(1, "a", 1024), _req(2, "b", 512)]
        assert policy.select(waiting, _rm()).ticket == 1

    def test_head_of_line_blocks_younger_even_if_they_fit(self):
        """Strict FIFO: a too-large head stalls the whole queue."""
        rm = _rm()
        big = rm.try_allocate(3584, tenant="hog")
        assert big is not None
        rm.try_allocate(3584, tenant="hog")
        # 1024 no longer fits anywhere; 512 would
        waiting = [_req(1, "a", 1024), _req(2, "b", 512)]
        assert HeapRulePolicy().select(waiting, rm) is None

    def test_selection_is_by_arrival_not_list_position(self):
        policy = HeapRulePolicy()
        waiting = [_req(9, "late", 512, order=9), _req(3, "early", 512, order=3)]
        assert policy.select(waiting, _rm()).ticket == 3


class TestPackingPolicy:
    def test_empty_queue_selects_nothing(self):
        assert PackingPolicy().select([], _rm()) is None

    def test_tightest_fit_wins_on_equal_deficits(self):
        """One node has 1024 free: the 1024 request packs exactly and
        beats the older 512 request."""
        rm = _rm(num_nodes=1, node_mb=4096)
        rm.try_allocate(3072, tenant="x")
        policy = PackingPolicy()
        waiting = [_req(1, "a", 512), _req(2, "b", 1024)]
        assert policy.select(waiting, rm).ticket == 2

    def test_unfitting_requests_are_skipped(self):
        rm = _rm(num_nodes=1, node_mb=4096)
        rm.try_allocate(3584, tenant="x")
        policy = PackingPolicy()
        waiting = [_req(1, "a", 1024), _req(2, "b", 512)]
        selected = policy.select(waiting, rm)
        assert selected.ticket == 2  # only the 512 fits

    def test_nothing_fits_selects_nothing(self):
        rm = _rm(num_nodes=1, node_mb=1024)
        rm.try_allocate(1024, tenant="x")
        policy = PackingPolicy()
        assert policy.select([_req(1, "a", 512)], rm) is None

    def test_drr_deficit_charges_admitted_tenant(self):
        policy = PackingPolicy(quantum_mb=256)
        request = _req(1, "a", 2048)
        policy.select([request], _rm())
        policy.admitted(request)
        assert policy.deficits["a"] == pytest.approx(256 - 2048)

    def test_charged_tenant_yields_to_waiting_tenant(self):
        """After tenant a is admitted (and charged), an equally-sized
        request from tenant b outranks a's next one."""
        rm = _rm()
        policy = PackingPolicy(quantum_mb=256)
        first = _req(1, "a", 1024)
        assert policy.select([first], rm).ticket == 1
        policy.admitted(first)
        waiting = [_req(2, "a", 1024, order=2), _req(3, "b", 1024, order=3)]
        assert policy.select(waiting, rm).tenant == "b"

    def test_waiting_accumulates_priority_over_rounds(self):
        """A tenant that keeps waiting accrues quantum every pass and
        eventually outranks fresh arrivals."""
        rm = _rm()
        starved = _rm(num_nodes=1, node_mb=4096)
        starved.try_allocate(4096, tenant="x")  # cluster full
        policy = PackingPolicy(quantum_mb=256)
        old = _req(1, "old", 1024, order=1)
        for _ in range(3):
            assert policy.select([old], starved) is None
        fresh = _req(2, "fresh", 1024, order=0)  # earlier order on purpose
        assert policy.select([old, fresh], rm).tenant == "old"


class TestMakePolicy:
    def test_registry_round_trip(self):
        assert make_policy("heap-rule").name == "heap-rule"
        assert make_policy("packing").name == "packing"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("fifo")

    def test_predictive_policy_is_gone(self):
        import repro
        import repro.serving

        with pytest.raises(ValueError, match="unknown admission policy"):
            make_policy("predictive")
        for name in ("DemandPredictor", "PredictivePackingPolicy"):
            assert not hasattr(repro.serving, name)
            assert not hasattr(repro, name)
