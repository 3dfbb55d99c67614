"""Scenario tests for the deterministic virtual-time trace simulator:
determinism, capacity/quota safety, and the static-vs-elastic-admission
comparison."""

import pytest

from repro.cluster import small_cluster
from repro.elastic import TraceSimulator, bursty_trace, simulate_arms

TRACE = bursty_trace(
    seed=11, tenants=10, bursts=2, burst_gap_s=150.0, intra_gap_s=1.5
)


#: S-L data whose ideal heaps sit well above the CP floor: the cost
#: frontiers have room, so elastic admission runs entries now instead of
#: queueing them (the trace ``bench_elastic`` measures)
ROOM_MIX = (
    ("LinregDS", "L", 1000), ("LinregCG", "M", 1000), ("L2SVM", "L", 1000),
    ("GLM", "S", 1000), ("MLogreg", "M", 1000),
)
ROOM_TRACE = bursty_trace(seed=11, tenants=24, mix=ROOM_MIX)


def tiny_cluster():
    return small_cluster(num_nodes=1, node_memory_mb=1024)


@pytest.fixture(scope="module")
def room_arms():
    return simulate_arms(ROOM_TRACE, cluster=small_cluster())


def run_tuple(run):
    return (
        run.entry.tenant, run.entry.script, run.admitted_s, run.finish_s,
        run.container_mb, run.resource, tuple(run.outcome.result.prints),
    )


class TestDeterminism:
    @pytest.mark.parametrize("elastic", [False, True])
    def test_two_simulations_identical(self, elastic):
        results = [
            TraceSimulator(
                TRACE, cluster=tiny_cluster(), elastic=elastic
            ).run()
            for _ in range(2)
        ]
        a, b = results
        assert a.makespan_s == b.makespan_s
        assert a.utilization == b.utilization
        assert [run_tuple(r) for r in a.runs] == [
            run_tuple(r) for r in b.runs
        ]
        assert a.counters == b.counters


class TestProgramCache:
    def test_each_distinct_recipe_compiles_once(self):
        simulator = TraceSimulator(TRACE, cluster=tiny_cluster())
        simulator.run()
        cache = simulator.session.program_cache
        assert cache.misses == len(TRACE.workloads())
        assert cache.hits == len(TRACE.entries) - cache.misses


class TestCapacitySafety:
    @pytest.mark.parametrize("elastic", [False, True])
    def test_concurrent_containers_within_capacity(self, elastic):
        cluster = tiny_cluster()
        result = TraceSimulator(
            TRACE, cluster=cluster, elastic=elastic
        ).run()
        assert result.runs
        for probe in result.runs:
            active = sum(
                other.container_mb for other in result.runs
                if other.admitted_s <= probe.admitted_s < other.finish_s
            )
            assert active <= cluster.total_memory_mb

    @pytest.mark.parametrize("elastic", [False, True])
    def test_blocked_head_is_prepared_once(self, elastic):
        """An entry blocked at the head of the line across several
        admission passes is compiled and optimized once, not per pass."""
        counters = TraceSimulator(
            TRACE, cluster=tiny_cluster(), elastic=elastic
        ).run().counters
        lookups = counters["optcache.hits"] + counters["optcache.misses"]
        assert lookups == len(TRACE.entries)

    def test_tenant_quota_respected(self):
        cluster = tiny_cluster()
        quota_share = 0.5
        result = TraceSimulator(
            TRACE, cluster=cluster, elastic=True, quota_share=quota_share,
        ).run()
        quota = max(
            cluster.min_allocation_mb,
            int(quota_share * cluster.total_memory_mb),
        )
        assert result.runs
        for probe in result.runs:
            tenant_active = sum(
                other.container_mb for other in result.runs
                if other.entry.tenant == probe.entry.tenant
                and other.admitted_s <= probe.admitted_s < other.finish_s
            )
            assert tenant_active <= quota

    def test_impossible_quota_rejects(self):
        # quota below the smallest admissible container: every entry is
        # rejected up front instead of deadlocking the FIFO queue
        cluster = tiny_cluster()
        result = TraceSimulator(
            TRACE, cluster=cluster, elastic=False, quota_share=0.05,
        ).run()
        assert not result.runs
        assert len(result.rejected) == len(TRACE.entries)


class TestComparison:
    def test_elastic_beats_static_on_bursty_trace(self, room_arms):
        static, elastic = room_arms
        assert len(static.runs) == len(ROOM_TRACE.entries)
        assert len(elastic.runs) == len(ROOM_TRACE.entries)
        assert elastic.makespan_s < static.makespan_s
        assert elastic.mean_wait_s < static.mean_wait_s
        assert elastic.summary()["elastic_admissions"] > 0

    def test_every_grant_sits_at_or_above_the_cp_floor(self, room_arms):
        """Each below-ideal admission ran at a point of its own cost
        frontier, in the container that point asks for, with every heap
        at or above ``min_heap_mb``."""
        _, elastic = room_arms
        cluster = small_cluster()
        shrunk = [
            run for run in elastic.runs
            if run.resource is not run.outcome.optimizer_result.resource
        ]
        assert shrunk
        for run in shrunk:
            resource = run.resource
            winner = run.outcome.optimizer_result
            below = winner.frontier.below(winner.resource.cp_heap_mb)
            assert (
                resource.cp_heap_mb,
                tuple(resource.mr_heap_per_block.items()),
            ) in [(rc, vector) for rc, _, vector in below]
            assert resource.container_request_mb(cluster) == run.container_mb
            heaps = [resource.cp_heap_mb, resource.mr_heap_mb,
                     *resource.mr_heap_per_block.values()]
            assert min(heaps) >= cluster.min_heap_mb

    def test_no_room_at_the_floor_means_no_change(self):
        """XS ideal heaps sit at the CP floor: there is no smaller
        container to admit, so the elastic arm is the static arm."""
        static, elastic = simulate_arms(TRACE, cluster=tiny_cluster())
        assert elastic.summary()["elastic_admissions"] == 0
        assert [run.finish_s for run in elastic.runs] == [
            run.finish_s for run in static.runs
        ]

    def test_slowdown_gate_below_one_offers_nothing(self, monkeypatch):
        """No frontier point costs less than the winner, so a gate below
        1x cuts every walk: each entry queues for its ideal container
        and the elastic arm is the static arm."""
        monkeypatch.setattr("repro.elastic.simulator.MAX_SLOWDOWN", 0.99)
        static, elastic = simulate_arms(ROOM_TRACE, cluster=small_cluster())
        assert len(elastic.runs) == len(ROOM_TRACE.entries)
        assert elastic.summary()["elastic_admissions"] == 0
        assert [run.finish_s for run in elastic.runs] == [
            run.finish_s for run in static.runs
        ]

    def test_outputs_identical_across_arms(self):
        static, elastic = simulate_arms(TRACE, cluster=tiny_cluster())
        static_prints = {
            (r.entry.tenant, r.entry.arrival_s): tuple(
                r.outcome.result.prints
            )
            for r in static.runs
        }
        elastic_prints = {
            (r.entry.tenant, r.entry.arrival_s): tuple(
                r.outcome.result.prints
            )
            for r in elastic.runs
        }
        assert static_prints == elastic_prints
