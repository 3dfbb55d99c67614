"""Admission-policy units: the FIFO heap rule of the server."""

from repro.cluster import ClusterConfig
from repro.cluster.yarn import ResourceManager
from repro.serving import HeapRulePolicy, PendingRequest


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


class TestRemovedPolicies:
    def test_predictive_policy_is_gone(self):
        import repro
        import repro.serving
        import repro.serving.admission

        for name in ("DemandPredictor", "PredictivePackingPolicy",
                     "PackingPolicy", "make_policy", "POLICIES"):
            assert not hasattr(repro.serving, name)
            assert not hasattr(repro.serving.admission, name)
            assert not hasattr(repro, name)


class TestBenchmarkSurface:
    """What the end-to-end benchmark imports from serving keeps working."""

    def test_heap_rule_select_and_admitted(self):
        import repro.serving

        policy = repro.serving.HeapRulePolicy()
        request = _req(1, "a", 512)
        assert policy.select([request], _rm()) is request
        assert policy.admitted(request) is None

    def test_router_and_request_import_from_admission(self):
        from repro.serving import Submission
        from repro.serving.admission import (
            ConsistentHashRouter,
            PendingRequest as Pending,
        )

        assert Pending is PendingRequest
        assert ConsistentHashRouter(2).route(
            Submission(tenant="t", script="LinregDS")
        ) in (0, 1)

    def test_program_cache_and_opt_cache(self):
        from repro import SessionConfig
        from repro.api import OptimizerResultCache
        from repro.serving.server import ProgramCache

        assert ProgramCache().max_programs == 32
        assert isinstance(
            SessionConfig().build_opt_cache(), OptimizerResultCache
        )
