"""Unit tests for the Appendix C schedule model over the serial run's
measured task durations."""

import dataclasses

import pytest

from repro import ElasticMLSession, prepare_inputs, scenario
from repro.api import SessionConfig
from repro.cluster import paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler.pipeline import compile_program
from repro.errors import OptimizationError
from repro.optimizer import OptimizerOptions, ResourceOptimizer
from repro.optimizer.parallel import (
    TaskRecord,
    schedule_makespan,
    task_records,
)

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


@pytest.fixture(scope="module")
def result(cluster):
    return ResourceOptimizer(cluster).optimize(
        compile_program(SOURCE, ARGS, BIG)
    )


class TestTaskRecords:
    def test_task_records_collected(self, result):
        records = task_records(result.points)
        kinds = [rec.kind for rec in records]
        assert kinds.count("baseline") == len(result.points)
        assert kinds.count("agg") == len(result.points)

    def test_cache_hits_carry_no_points(self):
        session = ElasticMLSession(sample_cap=64)
        args = prepare_inputs(session.hdfs, "LinregDS", scenario("XS"))
        first = session.run("LinregDS", args).optimizer_result
        second = session.run("LinregDS", args).optimizer_result
        assert first.points and not first.from_cache
        assert second.from_cache and second.points == []


class TestMakespanModel:
    def test_more_workers_never_slower(self, result):
        records = task_records(result.points)
        times = [
            schedule_makespan(records, k) for k in (1, 2, 4, 8)
        ]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 1e-9

    def test_pipelining_helps(self, result):
        records = task_records(result.points)
        with_pipe = schedule_makespan(records, 1, include_pipelining=True)
        without = schedule_makespan(records, 1, include_pipelining=False)
        assert with_pipe <= without

    def test_fully_pruned_points_count_the_master_once(self):
        """Two CP points whose blocks were all pruned (no enum tasks):
        unpipelined, the master compiles both baselines (2.0 s) and a
        worker then runs both aggs (0.2 s); pipelined, each agg runs
        as soon as its baseline is done."""
        records = [
            TaskRecord("baseline", 1.0, 0, 1.0),
            TaskRecord("agg", 1.0, 0, 0.1),
            TaskRecord("baseline", 2.0, 0, 1.0),
            TaskRecord("agg", 2.0, 0, 0.1),
        ]
        assert schedule_makespan(
            records, 1, include_pipelining=False
        ) == pytest.approx(2.2)
        assert schedule_makespan(records, 1) == pytest.approx(2.1)


class TestPoolRemoved:
    def test_parallel_options_are_refused(self):
        with pytest.raises(OptimizationError, match="removed"):
            OptimizerOptions(parallel=True)
        assert not OptimizerOptions().parallel

    def test_session_config_has_no_pool_knobs(self):
        names = [f.name for f in dataclasses.fields(SessionConfig)]
        assert len(names) == 8
        assert not [name for name in names if "worker" in name]
        with pytest.raises(TypeError):
            SessionConfig(workers=2)
