"""Unit tests for the task-parallel optimizer (Appendix C)."""

import multiprocessing as mp
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cluster import paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler.pipeline import compile_program
from repro.cost import CostModel
from repro.optimizer import (
    OptimizerOptions,
    ParallelResourceOptimizer,
    ResourceOptimizer,
)
from repro.optimizer.parallel import schedule_makespan

_HAS_FORK = "fork" in mp.get_all_start_methods()

BIG = {
    "X": MatrixCharacteristics(10**6, 1000, 10**9),
    "y": MatrixCharacteristics(10**6, 1, 10**6),
}
ARGS = {"X": "X", "y": "y", "B": "B"}

SOURCE = """
X = read($X)
y = read($y)
A = t(X) %*% X
b = t(X) %*% y
beta = solve(A, b)
r = y - X %*% beta
s = sum(r ^ 2)
print(s)
write(beta, $B, format="binary")
"""


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster()


class TestParallelOptimizer:
    def test_same_choice_as_serial(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        serial = ResourceOptimizer(cluster).optimize(compiled)
        compiled2 = compile_program(SOURCE, ARGS, BIG)
        parallel = ParallelResourceOptimizer(
            cluster, num_workers=3
        ).optimize(compiled2)
        assert parallel.resource.cp_heap_mb == serial.resource.cp_heap_mb
        assert parallel.cost == pytest.approx(serial.cost, rel=0.01)

    def test_task_records_collected(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        result = ParallelResourceOptimizer(
            cluster, num_workers=2
        ).optimize(compiled)
        kinds = {rec.kind for rec in result.task_records}
        assert "baseline" in kinds
        assert "agg" in kinds

    def test_single_worker_works(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        result = ParallelResourceOptimizer(
            cluster, num_workers=1
        ).optimize(compiled)
        assert result.resource is not None


class _Boom(RuntimeError):
    pass


class _RaisingCostModel(CostModel):
    """Fails the whole-program (agg) costing of every CP point; module
    level so the pickle transport can ship an instance to workers."""

    def estimate_program(self, compiled, resource, use_memo=False):
        raise _Boom("injected worker failure")


def _unpicklable_in_worker():
    raise _Boom("injected worker setup failure")


class _BreaksWorkerSetup:
    """Rides in the pickled snapshot and blows up when a worker's pool
    initializer unpickles it."""

    def __reduce__(self):
        return (_unpicklable_in_worker, ())


def _optimize_with_timeout(optimizer, compiled, timeout=60.0):
    """Run optimize on a thread so a pool that never shuts down fails
    the test instead of hanging the suite."""
    import threading

    outcome = {}

    def run():
        try:
            outcome["result"] = optimizer.optimize(compiled)
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "parallel optimizer hung"
    return outcome


def _no_live_children(timeout=10.0):
    """True once every pool worker has been reaped."""
    deadline = time.monotonic() + timeout
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return not mp.active_children()


class TestWorkerFailure:
    """Pool failure semantics: a worker's exception reaches the caller
    as itself, the remaining chunks are cancelled, and no child process
    outlives ``optimize``."""

    def test_task_exception_propagates_without_hang(self, cluster):
        modes = ["pickle"] + (["fork"] if _HAS_FORK else [])
        for mode in modes:
            # one CP point per chunk: most chunks are still queued when
            # the first one fails, so shutdown must cancel them
            optimizer = ParallelResourceOptimizer(
                cluster, num_workers=2, snapshot=mode, chunk_points=1
            )
            optimizer.cost_model = _RaisingCostModel(cluster)
            outcome = _optimize_with_timeout(
                optimizer, compile_program(SOURCE, ARGS, BIG)
            )
            assert type(outcome.get("error")) is _Boom, mode
            assert _no_live_children(), mode

    def test_worker_setup_failure_propagates_without_hang(self, cluster):
        """A worker dying in its pool initializer (before its first
        chunk) breaks the pool; the master must report that instead of
        waiting for results that never come."""
        optimizer = ParallelResourceOptimizer(
            cluster, num_workers=2, snapshot="pickle"
        )
        optimizer.cost_model.poison = _BreaksWorkerSetup()
        outcome = _optimize_with_timeout(
            optimizer, compile_program(SOURCE, ARGS, BIG)
        )
        assert isinstance(outcome.get("error"), BrokenProcessPool)
        assert _no_live_children()


class TestMakespanModel:
    def _records(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        return ParallelResourceOptimizer(
            cluster, num_workers=1
        ).optimize(compiled).task_records

    def test_more_workers_never_slower(self, cluster):
        records = self._records(cluster)
        times = [
            schedule_makespan(records, k) for k in (1, 2, 4, 8)
        ]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 1e-9

    def test_pipelining_helps(self, cluster):
        records = self._records(cluster)
        with_pipe = schedule_makespan(records, 1, include_pipelining=True)
        without = schedule_makespan(records, 1, include_pipelining=False)
        assert with_pipe <= without


class TestAutoSerialPolicy:
    """Below the enumeration work threshold the parallel optimizer
    enumerates in-process instead of starting its pool."""

    def _optimizer(self, cluster, threshold):
        return ParallelResourceOptimizer(
            cluster, num_workers=2, auto_serial_points=threshold,
        )

    def test_small_grid_falls_back_to_serial(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        result = self._optimizer(cluster, 10**9).optimize(compiled)
        assert result.backend == "serial"
        assert result.num_workers == 1
        assert result.tasks_dispatched == 0
        assert result.resource is not None

    def test_fallback_matches_forced_process_choice(self, cluster):
        auto = self._optimizer(cluster, 10**9).optimize(
            compile_program(SOURCE, ARGS, BIG)
        )
        forced = self._optimizer(cluster, 0).optimize(
            compile_program(SOURCE, ARGS, BIG)
        )
        assert forced.backend == "process"
        assert auto.resource.cp_heap_mb == forced.resource.cp_heap_mb
        assert auto.cost == pytest.approx(forced.cost)

    def test_zero_threshold_disables_fallback(self, cluster):
        compiled = compile_program(SOURCE, ARGS, BIG)
        result = self._optimizer(cluster, 0).optimize(compiled)
        assert result.backend == "process"

    def test_options_carry_the_threshold(self, cluster):
        options = OptimizerOptions(
            parallel=True, num_workers=2, auto_serial_points=123,
        )
        optimizer = ParallelResourceOptimizer(cluster, options=options)
        assert optimizer.auto_serial_points == 123
