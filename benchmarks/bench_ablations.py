"""Ablation benches for the design choices DESIGN.md calls out.

1. **Grid strategies** — allocation quality (chosen config's estimated
   cost) vs enumeration effort (#points, compilations) for Equi(15/45),
   Exp, Mem, Hybrid.  Expected: Hybrid matches the best quality with
   far fewer points than Equi(45).
2. **Block pruning** — optimizer effort with and without Section 3.4
   pruning.  Expected: same chosen configuration, large reduction in
   compilations/costings.
3. **Provisional-block exclusion** — the cost model's treatment of
   unknown-ridden blocks.  Expected: with exclusion, MLogreg's initial
   CP stays minimal (the paper's Section 5.5 behaviour); without it,
   the optimizer over-provisions CP based on noise.
"""

import pytest

from _lib import format_table, fresh_compiled
from repro.cluster import paper_cluster
from repro.cost import CostModel
from repro.optimizer import ResourceOptimizer
from repro.workloads import scenario


@pytest.mark.repro
def test_ablation_grid_strategies(benchmark, report):
    def run():
        cluster = paper_cluster()
        rows = []
        quality = {}
        for label, kwargs in [
            ("Equi m=15", {"grid_cp": "equi", "grid_mr": "equi", "m": 15}),
            ("Equi m=45", {"grid_cp": "equi", "grid_mr": "equi", "m": 45}),
            ("Exp", {"grid_cp": "exp", "grid_mr": "exp"}),
            ("Mem", {"grid_cp": "mem", "grid_mr": "mem", "m": 15}),
            ("Hybrid", {"grid_cp": "hybrid", "grid_mr": "hybrid", "m": 15}),
        ]:
            compiled, _, _ = fresh_compiled("LinregCG", scenario("M"))
            result = ResourceOptimizer(cluster, **kwargs).optimize(compiled)
            rows.append([
                label, result.stats.cp_points,
                result.stats.block_compilations,
                f"{result.cost:.1f}s",
                result.resource.describe(),
            ])
            quality[label] = result.cost
        return rows, quality

    rows, quality = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_grids",
        format_table(
            ["strategy", "#cp points", "#compilations", "est. cost",
             "chosen"],
            rows,
            title="Ablation: grid strategy quality vs effort "
                  "(LinregCG, M dense1000)",
        ),
    )
    # hybrid matches the finest equi grid's quality (within 5%)
    assert quality["Hybrid"] <= quality["Equi m=45"] * 1.05
    # the exp-only grid may miss the sweet spot (that is why hybrid
    # overlays memory-based points)
    assert quality["Hybrid"] <= quality["Exp"] * 1.001


@pytest.mark.repro
def test_ablation_pruning(benchmark, report):
    def run():
        cluster = paper_cluster()
        out = {}
        for label, enabled in [("with pruning", True), ("without", False)]:
            compiled, _, _ = fresh_compiled("GLM", scenario("S"))
            optimizer = ResourceOptimizer(cluster, enable_pruning=enabled)
            out[label] = optimizer.optimize(compiled)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, r.stats.block_compilations, r.stats.cost_invocations,
         f"{r.stats.optimization_time:.2f}s", r.resource.describe()]
        for label, r in results.items()
    ]
    report(
        "ablation_pruning",
        format_table(
            ["pruning", "#compilations", "#costings", "opt time", "chosen"],
            rows,
            title="Ablation: block pruning (GLM, S dense1000)",
        ),
    )
    with_p = results["with pruning"]
    without = results["without"]
    # the deterministic columns (compilations, costings) of both rows
    assert (with_p.stats.block_compilations,
            with_p.stats.cost_invocations) == (11, 15)
    assert (without.stats.block_compilations,
            without.stats.cost_invocations) == (19, 76)
    # identical allocation, far less work
    assert with_p.resource.cp_heap_mb == without.resource.cp_heap_mb
    assert with_p.stats.cost_invocations < 0.5 * without.stats.cost_invocations


@pytest.mark.repro
def test_ablation_provisional_exclusion(benchmark, report):
    def run():
        cluster = paper_cluster()
        out = {}
        for label, exclude in [("exclude", True), ("include", False)]:
            compiled, _, _ = fresh_compiled("MLogreg", scenario("M"))
            cost_model = CostModel(cluster, exclude_provisional=exclude)
            optimizer = ResourceOptimizer(cluster, cost_model=cost_model)
            out[label] = optimizer.optimize(compiled)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, r.resource.describe(), f"{r.cost:.1f}s"]
        for label, r in results.items()
    ]
    report(
        "ablation_provisional",
        format_table(
            ["provisional blocks", "chosen", "est. cost"],
            rows,
            title="Ablation: excluding unknown-ridden blocks from "
                  "what-if costs (MLogreg, M dense1000)",
        ),
    )
    # with exclusion the initial CP stays minimal (paper 5.5) and the
    # reported cost reflects only the known blocks
    assert results["exclude"].resource.cp_heap_mb <= 1024
    # without exclusion the estimate is dominated by unknown-block noise
    # (default-iteration MR latencies on unknown-sized data), an order
    # of magnitude beyond any actual execution of this program
    assert results["include"].cost > 10 * 500.0
