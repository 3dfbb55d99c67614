"""Table 3: optimization overhead details, dense1000 scenarios.

Reports per program/scenario: the number of block recompilations, cost
model invocations, optimization wall-clock time, and overhead relative
to the (simulated) execution time under the chosen configuration.

Expected shape: low absolute optimization times; GLM — the largest
program — dominates; relative overhead shrinks with data size (larger
data -> longer execution amortizes optimization).
"""

import pytest

from _lib import execute, format_table, fresh_compiled
from repro.cluster import paper_cluster
from repro.optimizer import ResourceOptimizer
from repro.workloads import scenario

SIZES = ["XS", "S", "M", "L"]
SCRIPTS = ["LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"]


def overhead_table():
    cluster = paper_cluster()
    rows = []
    stats = {}
    for script in SCRIPTS:
        for size in SIZES:
            scn = scenario(size, cols=1000)
            compiled, hdfs, _ = fresh_compiled(script, scn)
            optimizer = ResourceOptimizer(cluster, m=15)
            result = optimizer.optimize(compiled)
            record = execute(
                script, scn, result.resource, compiled=compiled, hdfs=hdfs
            )
            pct = 100 * result.stats.optimization_time / max(
                record.time, 0.001
            )
            rows.append([
                script, size,
                result.stats.block_compilations,
                result.stats.cost_invocations,
                f"{result.stats.optimization_time:.2f}s",
                f"{pct:.1f}",
            ])
            stats[(script, size)] = result.stats
    return rows, stats


@pytest.mark.repro
def test_table3_optimization_overhead(benchmark, report):
    rows, stats = benchmark.pedantic(overhead_table, rounds=1, iterations=1)
    report(
        "table3_overhead",
        format_table(
            ["Prog.", "Scen.", "# Comp.", "# Cost.", "Opt. Time", "%"],
            rows,
            title="Table 3: optimization details, dense1000 (Hybrid m=15)",
        ),
    )
    # GLM (largest program) asks for the most recompilations; how many
    # of them are real ("# Comp.") is the plan cache's doing — at L every
    # bucket GLM visits holds the plan it arrived with
    def requested(s):
        return s.plan_cache_hits + s.plan_cache_misses

    for size in SIZES:
        glm = requested(stats[("GLM", size)])
        others = [
            requested(stats[(s, size)]) for s in SCRIPTS if s != "GLM"
        ]
        assert glm >= max(others), size
    # pruning makes small scenarios cheap: fewer costings at XS than M
    for script in SCRIPTS:
        assert (
            stats[(script, "XS")].cost_invocations
            <= stats[(script, "M")].cost_invocations
        ), script
    # absolute optimization times stay low (sub-10s even for GLM)
    assert all(
        s.optimization_time < 10.0 for s in stats.values()
    )
