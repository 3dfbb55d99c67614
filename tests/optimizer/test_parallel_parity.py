"""Backend parity regression: pool enumeration chooses byte-identical
configurations vs the serial optimizer.

Pool workers map the serial loop's own per-point function over the
identical grid and the cost model is deterministic, so the chosen
``(resource, cost)`` must be *equal*, not approximately equal — any
drift means the dispatch reordered, dropped, or double-costed a grid
point, or lost an option on the way to the workers.  Pruning statistics
must agree for the same reason.  Block ids are stamped per compilation,
so per-block MR vectors are compared by block *position*.
"""

import multiprocessing as mp
import threading
from dataclasses import replace
from functools import partial

import pytest

from repro.cluster import paper_cluster
from repro.compiler.pipeline import compile_program
from repro.optimizer import (
    OptimizerOptions,
    ParallelResourceOptimizer,
    ResourceOptimizer,
)
from repro.runtime import SimulatedHDFS
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario

#: the five ML programs of the paper's Table 1
TABLE1_SCRIPTS = ["LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM"]

#: base grid points: small enough to keep 5 scripts x 3 backends fast,
#: large enough that the enumeration exercises pruning and both budgets
M = 7

_HAS_FORK = "fork" in mp.get_all_start_methods()
#: every snapshot transport this platform can run
_SNAPSHOT_MODES = ["pickle"] + (["fork"] if _HAS_FORK else [])


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster()


def _fresh_compiled(script):
    hdfs = SimulatedHDFS(sample_cap=64)
    args = prepare_inputs(hdfs, script, scenario("S"), glm_family=2,
                          seed=7)
    return compile_program(load_script(script), args, hdfs.input_meta())


def _normalized(compiled, result):
    """(cp, mr, position-keyed MR vector, cost): comparable across
    independent compilations of the same script."""
    index_of = {
        b.block_id: i for i, b in enumerate(compiled.last_level_blocks())
    }
    vector = tuple(
        sorted(
            (index_of[block_id], ri)
            for block_id, ri in result.resource.mr_heap_per_block.items()
        )
    )
    return (
        result.resource.cp_heap_mb,
        result.resource.mr_heap_mb,
        vector,
        result.cost,
    )


def _stats_tuple(stats):
    return (
        stats.cp_points,
        stats.mr_points,
        stats.total_blocks,
        stats.pruned_small,
        stats.pruned_unknown,
        stats.remaining_blocks,
    )


def _run(script, cluster, backend, **kwargs):
    """``backend``: "serial" (the plain optimizer), "process" (the
    pool), or "in-process" (the parallel optimizer below its auto-serial
    threshold)."""
    compiled = _fresh_compiled(script)
    if backend == "serial":
        opt = ResourceOptimizer(cluster, m=M, **kwargs)
    else:
        opt = ParallelResourceOptimizer(
            cluster, m=M, num_workers=2,
            auto_serial_points=10**9 if backend == "in-process" else 0,
            **kwargs,
        )
    result = opt.optimize(compiled)
    return compiled, result


def _on_thread(fn, *args, **kwargs):
    """Run ``fn`` on a non-main thread, the way a serving tenant thread
    drives the optimizer (the pool then forks from that thread)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(120.0)
    assert not thread.is_alive(), "optimizer hung on a worker thread"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestBackendParity:
    @pytest.mark.parametrize("script", TABLE1_SCRIPTS)
    def test_process_and_thread_match_serial(self, cluster, script):
        """The pool, driven from the main thread and from a tenant
        thread, chooses what the serial optimizer chooses."""
        compiled_s, serial = _run(script, cluster, "serial")
        golden = _normalized(compiled_s, serial)
        golden_stats = _stats_tuple(serial.stats)
        golden_profile = tuple(serial.cp_profile)
        for caller in (_run, partial(_on_thread, _run)):
            compiled_b, result = caller(script, cluster, "process")
            assert result.backend == "process"
            assert _normalized(compiled_b, result) == golden
            assert _stats_tuple(result.stats) == golden_stats
            assert tuple(result.cp_profile) == golden_profile

    @pytest.mark.parametrize("script", ["LinregCG", "GLM"])
    def test_parity_survives_plan_cache_ablation(self, cluster, script):
        """The plan cache is a pure memo: disabling it must not move
        the chosen configuration."""
        compiled_s, serial = _run(
            script, cluster, "serial", enable_plan_cache=False
        )
        golden = _normalized(compiled_s, serial)
        compiled_b, result = _run(
            script, cluster, "process", enable_plan_cache=False
        )
        assert _normalized(compiled_b, result) == golden
        assert result.stats.plan_cache_hits == 0

    def test_process_backend_reports_itself(self, cluster):
        compiled, result = _run("LinregDS", cluster, "process")
        assert result.backend == "process"
        assert result.num_workers == 2
        assert result.tasks_dispatched > 0
        assert result.task_records

    @pytest.mark.parametrize("script", ["LinregCG", "MLogreg"])
    def test_in_process_and_pool_report_the_same_record_shape(
        self, cluster, script
    ):
        """Both places the parallel optimizer can enumerate run the one
        per-point function: one baseline and one agg record per CP grid
        point, enum records for the same (point, block position) pairs,
        and the identical cost profile."""
        shapes = {}
        for backend, reported in (("in-process", "serial"),
                                  ("process", "process")):
            compiled, result = _run(script, cluster, backend)
            assert result.backend == reported
            index_of = {
                b.block_id: i
                for i, b in enumerate(compiled.last_level_blocks())
            }
            grid = [rc for rc, _ in result.cp_profile]
            assert len(grid) == result.stats.cp_points
            for kind in ("baseline", "agg"):
                assert [
                    r.rc for r in result.task_records if r.kind == kind
                ] == grid, (backend, kind)
            shapes[backend] = (
                tuple(result.cp_profile),
                [(r.rc, index_of[r.block_id])
                 for r in result.task_records if r.kind == "enum"],
            )
        assert shapes["in-process"] == shapes["process"]


class TestOptionsHonoured:
    """Regression: the parallel optimizer used to drop
    ``enable_pruning`` and ``time_budget`` although both are part of
    ``decision_signature()`` and so key the result cache."""

    def test_pruning_ablation_reaches_pool_workers(self, cluster):
        options = OptimizerOptions(
            m=M, enable_pruning=False, parallel=True, num_workers=2
        )
        compiled_s = _fresh_compiled("LinregCG")
        serial = ResourceOptimizer(cluster, options=options).optimize(
            compiled_s
        )
        assert serial.stats.pruned_small == 0
        assert serial.stats.remaining_blocks == serial.stats.total_blocks
        for mode in _SNAPSHOT_MODES:
            compiled_p = _fresh_compiled("LinregCG")
            result = ParallelResourceOptimizer(
                cluster, options=replace(options, snapshot=mode)
            ).optimize(compiled_p)
            assert result.backend == "process", mode
            assert _stats_tuple(result.stats) == _stats_tuple(
                serial.stats
            ), mode
            assert _normalized(compiled_p, result) == _normalized(
                compiled_s, serial
            ), mode
            assert tuple(result.cp_profile) == tuple(serial.cp_profile)

    def test_time_budget_enumerates_in_process_and_stops(self, cluster):
        options = OptimizerOptions(
            m=M, time_budget=1e-9, parallel=True, num_workers=2
        )
        result = ParallelResourceOptimizer(
            cluster, options=options
        ).optimize(_fresh_compiled("LinregCG"))
        assert result.backend == "serial"
        assert result.stats.budget_exhausted is True
        assert len(result.cp_profile) == 1 < result.stats.cp_points
        assert result.resource is not None


def _run_snapshot(script, cluster, snapshot, **kwargs):
    compiled = _fresh_compiled(script)
    opt = ParallelResourceOptimizer(
        cluster, m=M, num_workers=2, snapshot=snapshot, **kwargs,
    )
    return compiled, opt.optimize(compiled)


class TestSnapshotParity:
    """Fork (copy-on-write) vs pickle snapshot transport vs serial: the
    transport moves program state between processes and must never move
    the decision."""

    @pytest.mark.parametrize("script", TABLE1_SCRIPTS)
    def test_fork_and_pickle_match_serial(self, cluster, script):
        compiled_s, serial = _run(script, cluster, "serial")
        golden = _normalized(compiled_s, serial)
        golden_stats = _stats_tuple(serial.stats)
        golden_profile = tuple(serial.cp_profile)
        for mode in _SNAPSHOT_MODES:
            compiled_b, result = _run_snapshot(script, cluster, mode)
            assert _normalized(compiled_b, result) == golden, mode
            assert _stats_tuple(result.stats) == golden_stats, mode
            assert tuple(result.cp_profile) == golden_profile, mode

    @pytest.mark.skipif(not _HAS_FORK, reason="platform cannot fork")
    def test_fork_ships_zero_snapshot_bytes(self, cluster):
        _, result = _run_snapshot("LinregDS", cluster, "fork")
        assert result.start_method == "fork"
        assert result.snapshot_bytes == 0

    def test_pickle_reports_snapshot_size_and_start_method(self, cluster):
        _, result = _run_snapshot("LinregDS", cluster, "pickle")
        assert result.snapshot_bytes > 0
        assert result.start_method == mp.get_start_method()

    def test_phase_breakdown_reported(self, cluster):
        _, result = _run_snapshot("GLM", cluster, "auto")
        assert result.chunk_points >= 1
        assert result.enumerate_s > 0
        phases = (result.snapshot_s + result.dispatch_s
                  + result.enumerate_s + result.fold_s)
        assert phases <= result.stats.optimization_time

    @pytest.mark.parametrize("chunk_points", [1, 3, 100])
    def test_chunking_never_moves_the_decision(self, cluster, chunk_points):
        compiled_s, serial = _run("LinregCG", cluster, "serial")
        golden = _normalized(compiled_s, serial)
        compiled_b, result = _run_snapshot(
            "LinregCG", cluster, "auto", chunk_points=chunk_points,
        )
        assert _normalized(compiled_b, result) == golden
        assert result.chunk_points == chunk_points

    def test_vector_ablation_parity_through_process_backend(self, cluster):
        compiled_on, on = _run_snapshot("MLogreg", cluster, "auto")
        compiled_off, off = _run_snapshot(
            "MLogreg", cluster, "auto", enable_vector_costing=False,
        )
        assert _normalized(compiled_on, on) == _normalized(
            compiled_off, off
        )
        assert on.stats.mr_points_batched > 0
        assert off.stats.mr_points_batched == 0

    def test_unknown_snapshot_mode_rejected(self, cluster):
        with pytest.raises(ValueError, match="snapshot"):
            ParallelResourceOptimizer(cluster, snapshot="mmap")
