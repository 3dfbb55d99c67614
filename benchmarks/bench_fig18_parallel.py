"""Figure 18: parallel resource optimization for GLM (dense1000).

Reports the measured wall clock of the serial optimizer and the
worker-schedule makespan model over the per-task durations that same
run measured (every CP point records its baseline, per-block enum and
agg seconds) — the honest reading of the paper's speedup shape
(pipelining effect at one worker, ~5x at many workers) on any host.
"""

import pytest

from _lib import format_table, fresh_compiled
from repro.cluster import paper_cluster
from repro.optimizer import ResourceOptimizer
from repro.optimizer.parallel import schedule_makespan, task_records
from repro.workloads import scenario

WORKERS = [1, 2, 4, 8, 16]


def run_parallel_experiment():
    compiled, _, _ = fresh_compiled("GLM", scenario("L", cols=1000))
    serial = ResourceOptimizer(
        paper_cluster(), grid_cp="equi", grid_mr="equi", m=45
    ).optimize(compiled)
    records = task_records(serial.points)
    makespans = {k: schedule_makespan(records, k) for k in WORKERS}
    serial_model = schedule_makespan(records, 1, include_pipelining=False)
    return serial, records, makespans, serial_model


@pytest.mark.repro
def test_fig18_parallel_optimizer(benchmark, report):
    serial, records, makespans, serial_model = benchmark.pedantic(
        run_parallel_experiment, rounds=1, iterations=1
    )
    rows = [
        [k, f"{makespans[k]:.4f}s", f"{serial_model / makespans[k]:.2f}x"]
        for k in WORKERS
    ]
    text = format_table(
        ["# workers", "modeled makespan", "speedup vs serial"],
        rows,
        title=(
            "Figure 18: parallel optimization, GLM dense1000 L "
            f"(Equi m=45)\nmeasured serial wall clock: "
            f"{serial.stats.optimization_time:.3f}s; task durations "
            f"from that run ({len(records)} records)"
        ),
    )
    report("fig18_parallel", text)
    # pipelining effect already at one worker
    assert makespans[1] <= serial_model
    # model shows meaningful parallel speedup, saturating with workers
    assert serial_model / makespans[8] > 2.0
    assert makespans[16] <= makespans[1]
