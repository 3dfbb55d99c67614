"""Plan-recompilation cache: grid-enumeration overhead, cache on vs off.

Runs the resource optimizer (Hybrid m=15) on the bundled scripts and
reports block compilations, cost-model invocations, and optimization
wall clock with the memoizing plan cache disabled and enabled.  The
chosen configuration and its estimated cost must be identical in both
modes — the cache buckets budgets by the compilation thresholds, so
hits return exactly the plan a recompilation would regenerate.

Expected shape: compilations collapse to roughly (#blocks x #distinct
buckets); cost invocations drop >= 2x on the MR-heavy dense scenarios;
identical chosen configurations throughout.

Also runnable standalone (no pytest): ``python benchmarks/bench_plan_cache.py``.
"""

import sys

from _lib import format_table, fresh_compiled
from repro.cluster import paper_cluster
from repro.compiler.pipeline import compile_plans
from repro.optimizer import ResourceOptimizer
from repro.workloads import scenario

SIZES = ["S", "M"]
SCRIPTS = ["LinregDS", "LinregCG", "L2SVM"]

#: the deterministic columns of the results file — block compilations
#: and cost invocations (cache off, cache on), plan-cache hits and
#: skipped MR points — so a counter that moves fails the benchmark, not
#: just a reader
EXPECTED_COUNTS = {
    ("LinregDS", "S"): (173, 7, 54, 12, 136, 30),
    ("LinregDS", "M"): (340, 7, 192, 12, 198, 135),
    ("LinregCG", "S"): (143, 9, 63, 12, 98, 36),
    ("LinregCG", "M"): (323, 9, 228, 12, 152, 162),
    ("L2SVM", "S"): (238, 9, 63, 12, 193, 36),
    ("L2SVM", "M"): (448, 9, 228, 12, 277, 162),
}


def run_point(compiled, enable_plan_cache):
    optimizer = ResourceOptimizer(
        paper_cluster(), m=15, enable_plan_cache=enable_plan_cache
    )
    return optimizer.optimize(compiled)


def cache_table():
    rows = []
    results = {}
    for script in SCRIPTS:
        for size in SIZES:
            # one compiled program for both modes: block ids are stamped
            # by a per-process counter, so per-block MR vectors are only
            # comparable within the same compilation
            compiled, _, _ = fresh_compiled(script, scenario(size, cols=1000))
            arrival = compiled.resource
            off = run_point(compiled, enable_plan_cache=False)
            # ... planned again as it arrived (a request's program is):
            # the cached enumeration starts from those plans
            compile_plans(compiled, arrival)
            on = run_point(compiled, enable_plan_cache=True)
            results[(script, size)] = (off, on)
            rows.append([
                script, size,
                f"{off.stats.block_compilations} -> "
                f"{on.stats.block_compilations}",
                f"{off.stats.cost_invocations} -> "
                f"{on.stats.cost_invocations}",
                on.stats.plan_cache_hits,
                on.stats.mr_points_skipped,
                f"{off.stats.optimization_time:.3f}s -> "
                f"{on.stats.optimization_time:.3f}s",
                "yes" if (
                    on.resource == off.resource and on.cost == off.cost
                ) else "NO",
            ])
    return rows, results


def render(rows):
    return format_table(
        ["Prog.", "Scen.", "# Comp.", "# Cost.", "Hits", "Skipped",
         "Opt. Time", "Same cfg"],
        rows,
        title="Plan cache: enumeration overhead, dense1000 (Hybrid m=15)",
    )


def check(results):
    """Invariants also asserted by the pytest wrapper below."""
    for (script, size), (off, on) in results.items():
        label = f"{script}/{size}"
        assert on.resource == off.resource, label
        assert on.cost == off.cost, label
        assert on.stats.plan_cache_hits > 0, label
        counts = (
            off.stats.block_compilations, on.stats.block_compilations,
            off.stats.cost_invocations, on.stats.cost_invocations,
            on.stats.plan_cache_hits, on.stats.mr_points_skipped,
        )
        assert counts == EXPECTED_COUNTS[(script, size)], (label, counts)
    # the headline acceptance point: LinregCG, m=15
    for size in SIZES:
        off, on = results[("LinregCG", size)]
        assert on.stats.block_compilations * 2 <= (
            off.stats.block_compilations
        ), size
        assert on.stats.cost_invocations * 2 <= (
            off.stats.cost_invocations
        ), size


def main():
    rows, results = cache_table()
    print(render(rows))
    check(results)
    print("plan cache invariants ok")
    return 0


try:
    import pytest
except ImportError:  # standalone mode in minimal environments
    pytest = None

if pytest is not None:

    @pytest.mark.repro
    def test_plan_cache_overhead(benchmark, report):
        rows, results = benchmark.pedantic(
            cache_table, rounds=1, iterations=1
        )
        report("plan_cache_overhead", render(rows))
        check(results)


if __name__ == "__main__":
    sys.exit(main())
