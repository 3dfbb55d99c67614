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

#: the deterministic columns of the results file — ``# Comp.`` and
#: ``# Cost.`` per row — so a counter that moves fails the benchmark,
#: not just a reader (the wall-clock columns keep the file off ``git diff``)
EXPECTED = {
    ("LinregDS", "XS"): (0, 1), ("LinregDS", "S"): (7, 12),
    ("LinregDS", "M"): (7, 12), ("LinregDS", "L"): (1, 6),
    ("LinregCG", "XS"): (0, 1), ("LinregCG", "S"): (9, 12),
    ("LinregCG", "M"): (9, 12), ("LinregCG", "L"): (1, 13),
    ("L2SVM", "XS"): (0, 1), ("L2SVM", "S"): (9, 12),
    ("L2SVM", "M"): (9, 12), ("L2SVM", "L"): (1, 15),
    ("MLogreg", "XS"): (0, 1), ("MLogreg", "S"): (11, 15),
    ("MLogreg", "M"): (11, 15), ("MLogreg", "L"): (0, 5),
    ("GLM", "XS"): (0, 1), ("GLM", "S"): (11, 15),
    ("GLM", "M"): (11, 15), ("GLM", "L"): (0, 12),
}


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
    counts = {
        key: (s.block_compilations, s.cost_invocations)
        for key, s in stats.items()
    }
    assert counts == EXPECTED
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
