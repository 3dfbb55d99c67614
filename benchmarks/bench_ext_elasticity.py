"""Extension experiments beyond the paper's evaluation.

1. **Offer-based allocation** (paper Section 2.3's Mesos instantiation):
   drives the decaying-reservation-price allocator over simulated offer
   streams at different background loads.  Expected: on idle clusters
   the first offers are near-optimal and accepted immediately; on
   loaded clusters the allocator declines small offers until the
   tolerated regret covers them, keeping realized regret bounded by the
   waiting budget.
2. **Cluster-utilization-based adaptation** (paper Section 6): executes
   the distributed-plan LinregDS under background load with and without
   the utilization-aware adapter.  Expected: the adapter migrates to a
   single-node in-memory configuration and beats the load-blind run.
"""

import pytest

from _lib import execute, format_table, fresh_compiled, optimize
from repro.cluster import (
    ClusterLoad,
    OfferBasedAllocator,
    OfferStream,
    paper_cluster,
)
from repro.optimizer import ResourceOptimizer, UtilizationAwareAdapter
from repro.runtime import Interpreter
from repro.workloads import scenario


@pytest.mark.repro
def test_ext_offer_based_allocation(benchmark, report):
    def run():
        cluster = paper_cluster()
        result, _ = optimize("LinregCG", scenario("M"))
        rows = []
        outcomes = {}
        for load_mean in (0.2, 0.5, 0.8, 0.95):
            allocator = OfferBasedAllocator(
                result.frontier, cluster, wait_cost_per_second=2.0
            )
            outcome = allocator.allocate(
                OfferStream(cluster, load_mean=load_mean, seed=11)
            )
            rows.append([
                f"{load_mean:.2f}",
                outcome.declined,
                f"{outcome.waited:.0f}s",
                f"{outcome.heap_mb:.0f}MB" if outcome.accepted else "-",
                f"{outcome.regret:.1f}s" if outcome.accepted else "-",
            ])
            outcomes[load_mean] = (outcome, allocator)
        return rows, outcomes

    rows, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ext_offer_allocation",
        format_table(
            ["bg load", "#declined", "waited", "accepted heap", "regret"],
            rows,
            title="Extension: offer-based (Mesos) allocation, LinregCG M",
        ),
    )
    light, _ = outcomes[0.2]
    heavy, heavy_alloc = outcomes[0.95]
    assert light.accepted and heavy.accepted
    # light clusters: near-immediate, near-optimal acceptance
    assert light.declined <= 2
    assert light.regret == pytest.approx(0.0, abs=1.0)
    # heavy clusters: waits longer, but regret stays within the policy's
    # waiting budget
    assert heavy.waited >= light.waited
    assert heavy.regret <= heavy_alloc.tolerated_regret(
        heavy.offer.timestamp
    )


@pytest.mark.repro
def test_ext_utilization_adaptation(benchmark, report):
    def run():
        cluster = paper_cluster()
        scn = scenario("M")
        rows = []
        times = {}
        for label, utilization, aware in [
            ("idle", 0.0, False),
            ("85% load, load-blind", 0.85, False),
            ("85% load, utilization-aware", 0.85, True),
        ]:
            load = ClusterLoad.constant(utilization)
            compiled, hdfs, _ = fresh_compiled("LinregDS", scn)
            rc = ResourceOptimizer(cluster).optimize(compiled).resource
            adapter = (
                UtilizationAwareAdapter(ResourceOptimizer(cluster), load)
                if aware
                else None
            )
            interp = Interpreter(
                cluster, hdfs=hdfs, sample_cap=256, adapter=adapter,
                cluster_load=load,
            )
            result = interp.run(compiled, rc)
            rows.append([
                label, f"{result.total_time:.0f}s", result.migrations,
                result.final_resource.describe(),
            ])
            times[label] = result
        return rows, times

    rows, times = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ext_utilization_adaptation",
        format_table(
            ["scenario", "time", "#migrations", "final config"],
            rows,
            title="Extension: utilization-based adaptation, LinregDS M "
                  "(distributed plan under background load)",
        ),
    )
    aware = times["85% load, utilization-aware"]
    blind = times["85% load, load-blind"]
    assert aware.migrations >= 1
    assert aware.total_time < blind.total_time
    # the fallback moved toward single-node in-memory execution
    assert aware.final_resource.cp_heap_mb > blind.final_resource.cp_heap_mb
