"""Elasticity on a busy shared cluster: offer-based allocation and
utilization-based plan fallback (extensions of paper Sections 2.3 / 6).

Part 1 drives the Mesos-style allocator: the optimizer's cost frontier
tells us what any offered container size is worth, and a decaying
reservation price decides when a non-matching offer is good enough.

Part 2 runs a distributed plan while the cluster is 85% utilized: the
utilization-aware adapter re-prices MR execution under load, migrates
the control program to a large container, and finishes on a single node.

    python examples/loaded_cluster_elasticity.py
"""

from repro import ElasticMLSession
from repro.cluster import ClusterLoad, OfferBasedAllocator, OfferStream
from repro.optimizer import ResourceOptimizer, UtilizationAwareAdapter
from repro.runtime import Interpreter
from repro.workloads import prepare_inputs, scenario


def main():
    session = ElasticMLSession()
    cluster = session.cluster

    # ---- part 1: offer-based allocation --------------------------------
    print("== offer-based (Mesos-style) allocation ==")
    args = prepare_inputs(session.hdfs, "LinregCG", scenario("M"))
    compiled = session.compile_registered("LinregCG", args)
    opt = session.optimize(compiled)
    print(f"request-based answer (YARN): {opt.resource.describe()}")

    for load in (0.3, 0.95):
        allocator = OfferBasedAllocator(
            opt.frontier, cluster, wait_cost_per_second=2.0
        )
        outcome = allocator.allocate(OfferStream(cluster, load_mean=load,
                                                 seed=5))
        print(f"cluster at {load:.0%} load: accepted a "
              f"{outcome.heap_mb:.0f} MB-heap offer after "
              f"{outcome.declined} declines ({outcome.waited:.0f}s wait, "
              f"{outcome.regret:.1f}s cost regret)")

    # ---- part 2: utilization-based fallback -----------------------------
    print("\n== utilization-based plan fallback ==")
    load = ClusterLoad.constant(0.85)
    for label, adapter in [
        ("load-blind", None),
        ("utilization-aware",
         UtilizationAwareAdapter(ResourceOptimizer(cluster), load)),
    ]:
        args = prepare_inputs(session.hdfs, "LinregDS", scenario("M"),
                              prefix=f"load_{label}")
        compiled = session.compile_registered("LinregDS", args)
        rc = session.optimize(compiled).resource
        interp = Interpreter(cluster, hdfs=session.hdfs, adapter=adapter,
                             cluster_load=load)
        result = interp.run(compiled, rc)
        print(f"{label:18}: {result.total_time:.0f}s, "
              f"{result.migrations} migration(s), "
              f"finished at {result.final_resource.describe()}")


if __name__ == "__main__":
    main()
