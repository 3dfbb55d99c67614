"""Scenario tests for the deterministic virtual-time trace simulator:
determinism, capacity/quota safety, and the static-vs-Brain comparison."""

import pytest

from repro.cluster import ClusterLoad, small_cluster
from repro.elastic import TraceSimulator, bursty_trace, simulate_arms

TRACE = bursty_trace(
    seed=11, tenants=10, bursts=2, burst_gap_s=150.0, intra_gap_s=1.5
)


def tiny_cluster():
    return small_cluster(num_nodes=1, node_memory_mb=1024)


def run_tuple(run):
    return (
        run.entry.tenant, run.entry.script, run.admitted_s, run.finish_s,
        run.container_mb, run.fraction, run.rescales, tuple(run.decisions),
        tuple(run.outcome.result.prints),
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

    def test_background_load_deterministic(self):
        background = ClusterLoad(
            schedule=[(0.0, 0.0), (150.0, 0.8), (185.0, 0.0)]
        )
        a, b = [
            TraceSimulator(
                TRACE, cluster=tiny_cluster(), elastic=True,
                background=background,
            ).run()
            for _ in range(2)
        ]
        assert [run_tuple(r) for r in a.runs] == [
            run_tuple(r) for r in b.runs
        ]
        assert a.summary() == b.summary()


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
    def test_brain_beats_static_on_bursty_trace(self):
        static, brain = simulate_arms(TRACE, cluster=tiny_cluster())
        assert len(static.runs) == len(TRACE.entries)
        assert len(brain.runs) == len(TRACE.entries)
        assert (
            brain.makespan_s < static.makespan_s
            or brain.utilization > static.utilization
        )
        assert brain.summary()["elastic_admissions"] > 0
        assert static.summary()["rescales"] == 0

    def test_spill_gate_cuts_the_ladder_once_per_entry(self):
        """A shrunk run is never predicted faster than the ideal one, so
        a gate below 1x vetoes every rung: each entry queues for its
        ideal container, and the veto is counted once per entry."""
        from repro.elastic import BrainPolicy

        result = TraceSimulator(
            TRACE, cluster=tiny_cluster(), elastic=True,
            brain_policy=BrainPolicy(max_spill_slowdown=0.99),
        ).run()
        assert len(result.runs) == len(TRACE.entries)
        assert result.summary()["elastic_admissions"] == 0
        assert result.counters["elastic.admission_vetoes"] == len(
            TRACE.entries
        )

    def test_outputs_identical_across_arms(self):
        static, brain = simulate_arms(TRACE, cluster=tiny_cluster())
        static_prints = {
            (r.entry.tenant, r.entry.arrival_s): tuple(
                r.outcome.result.prints
            )
            for r in static.runs
        }
        brain_prints = {
            (r.entry.tenant, r.entry.arrival_s): tuple(
                r.outcome.result.prints
            )
            for r in brain.runs
        }
        assert static_prints == brain_prints

    def test_background_spike_causes_shrinks(self):
        background = ClusterLoad(
            schedule=[(0.0, 0.0), (150.0, 0.8), (185.0, 0.0)]
        )
        result = TraceSimulator(
            TRACE, cluster=tiny_cluster(), elastic=True,
            background=background,
        ).run()
        assert result.counters.get("elastic.shrinks", 0) > 0
        assert result.counters.get("elastic.rescales", 0) > 0
