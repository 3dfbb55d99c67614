"""Recovery-path tests: retries, fallbacks, rollbacks, node loss.

Each scenario scripts exact faults (``FaultPlan.from_faults``) so the
recovery code path under test fires deterministically, then asserts
both the semantic outcome (numeric identity with the fault-free run)
and the accounting (``ChaosReport`` / tracer counters).
"""

import numpy as np
import pytest

from repro.api import ElasticMLSession
from repro.chaos import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.cluster import ResourceConfig, small_cluster
from repro.cluster.yarn import ResourceManager
from repro.errors import (
    AllocationDeniedError,
    ClusterError,
    ReproError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.optimizer import ResourceAdapter, ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS
from repro.runtime.matrix import MatrixObject

SRC = """
X = read($X)
s = sum(X)
print("total " + s)
"""


def make_session():
    session = ElasticMLSession(sample_cap=64)
    session.hdfs.create_dense_input("data/X", 2000, 50, seed=5)
    return session


def run(session, chaos=None, resource=None, adapt=False):
    return session.run(
        SRC, {"X": "data/X"},
        resource=resource or ResourceConfig(1024, 512),
        adapt=adapt, chaos=chaos,
    )


@pytest.fixture
def reference():
    return run(make_session())


class TestTransientAllocation:
    def test_retry_recovers(self, reference):
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.ALLOCATION_TRANSIENT, at=0),
            FaultSpec(FaultKind.ALLOCATION_TRANSIENT, at=1),
        )
        outcome = run(make_session(), chaos=plan)
        assert outcome.prints == reference.prints
        report = outcome.chaos
        assert report.retry_attempts == 2
        assert report.retry_recovered >= 1
        assert report.backoff_s > 0
        assert outcome.total_time > reference.total_time

    def test_exhaustion_raises_typed_error(self):
        policy = RetryPolicy(max_attempts=2)
        session = make_session()
        session.retry_policy = policy
        plan = FaultPlan.from_faults(*[
            FaultSpec(FaultKind.ALLOCATION_TRANSIENT, at=i) for i in range(4)
        ])
        with pytest.raises(AllocationDeniedError):
            run(session, chaos=plan)


class TestAllocationDenialFallback:
    def test_denial_halves_heap_without_optimizer(self, reference):
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.ALLOCATION_DENIED, at=0)
        )
        outcome = run(make_session(), chaos=plan, adapt=False)
        assert outcome.prints == reference.prints
        assert outcome.chaos.fallbacks == 1
        assert outcome.resource.cp_heap_mb == 512.0  # 1024 / 2

    def test_denial_reenumerates_with_optimizer(self, reference):
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.ALLOCATION_DENIED, at=0)
        )
        original = ResourceConfig(4096, 512)
        outcome = run(make_session(), chaos=plan, adapt=True,
                      resource=original)
        assert outcome.prints == reference.prints
        assert outcome.chaos.fallbacks == 1
        # the fallback configuration fits the halved container cap
        cluster = ElasticMLSession().cluster
        denied = cluster.container_mb_for_heap(original.cp_heap_mb)
        assert (
            cluster.container_mb_for_heap(outcome.resource.cp_heap_mb)
            <= denied // 2
        )


class TestFlakyHdfsRead:
    def test_retry_preserves_numeric_result(self, reference):
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.HDFS_SLOW_READ, at=0)
        )
        outcome = run(make_session(), chaos=plan)
        assert outcome.prints == reference.prints
        report = outcome.chaos
        assert report.injected == {"hdfs_slow_read": 1}
        assert report.retry_recovered == 1
        assert report.wasted_s > 0
        assert outcome.result.category("chaos_io") > 0

    def test_exhaustion_raises_typed_error(self):
        session = make_session()
        session.retry_policy = RetryPolicy(max_attempts=1)
        plan = FaultPlan.from_faults(*[
            FaultSpec(FaultKind.HDFS_SLOW_READ, at=i) for i in range(3)
        ])
        with pytest.raises(RetryExhaustedError) as excinfo:
            run(session, chaos=plan)
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.attempts == 2

    def test_hdfs_raises_transient_io_error(self):
        hdfs = SimulatedHDFS(sample_cap=64)
        hdfs.create_dense_input("data/X", 100, 10)
        hdfs.injector = FaultInjector(
            FaultPlan.from_faults(FaultSpec(FaultKind.HDFS_SLOW_READ, at=0))
        )
        with pytest.raises(TransientIOError) as excinfo:
            hdfs.read_matrix("data/X")
        assert excinfo.value.path == "data/X"
        # second read: the scripted fault is spent
        assert hdfs.read_matrix("data/X") is not None


class TestMigrationFailure:
    """Satellite: a failed AM migration must leave the interpreter
    consistent — same live variables, old container still charged."""

    def setup_interp(self, injector):
        session = make_session()
        outcome = run(session)  # drives a real run to build interp state
        interp = Interpreter(
            session.cluster, hdfs=session.hdfs, sample_cap=64,
            injector=injector,
        )
        interp.run(
            session.compile_script(SRC, {"X": "data/X"}),
            ResourceConfig(1024, 512),
        )
        return interp

    def make_frame(self):
        dirty = MatrixObject.from_sample(np.ones((8, 4)))
        clean = MatrixObject.from_sample(np.ones((4, 4)))
        clean.dirty = False
        clean.hdfs_path = "data/clean"
        return {"D": dirty, "C": clean}

    def push_frame(self, interp):
        """The live frame a migration walks (``interp._frames``)."""
        frame = self.make_frame()
        interp._frames = [frame]
        return frame

    def test_failed_migration_rolls_back(self):
        injector = FaultInjector(FaultPlan.from_faults(
            FaultSpec(FaultKind.MIGRATION_FAILURE, at=0)
        ))
        interp = self.setup_interp(injector)
        adapter = ResourceAdapter(None)
        frame = self.push_frame(interp)
        clock_before = interp.clock
        pool_state = dict(interp.pool._entries)

        migrated = adapter._migrate(interp, migration_cost=12.5)

        assert migrated is False
        # live variables untouched: still dirty, still in memory
        assert frame["D"].dirty is True
        assert frame["D"].in_memory is True
        assert frame["D"].hdfs_path is None
        assert frame["C"].hdfs_path == "data/clean"
        # the buffer pool was not restarted
        assert dict(interp.pool._entries) == pool_state
        # no migration happened, but the failed attempt was charged
        assert interp.result.migrations == 0
        assert interp.clock == clock_before + 12.5
        assert interp.result.category("migration_failed") == 12.5
        assert injector.report().wasted_s == 12.5
        assert injector.report().migration_failures == 1

    def test_successful_migration_after_failure(self):
        injector = FaultInjector(FaultPlan.from_faults(
            FaultSpec(FaultKind.MIGRATION_FAILURE, at=0)
        ))
        interp = self.setup_interp(injector)
        adapter = ResourceAdapter(None)
        frame = self.push_frame(interp)

        assert adapter._migrate(interp, migration_cost=1.0) is False
        # the second attempt (visit 1) is not scripted: it succeeds
        assert adapter._migrate(interp, migration_cost=1.0) is True
        assert interp.result.migrations == 1
        assert frame["D"].dirty is False
        assert frame["D"].in_memory is False


class TestNodeLoss:
    def test_fail_node_drops_capacity_and_containers(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=4096))
        container = rm.try_allocate(1024)
        node_id = container.node_id
        lost = rm.fail_node(node_id)
        assert [c.container_id for c in lost] == [container.container_id]
        assert rm.available_mb == 4096  # one of two nodes left
        assert rm.used_mb == 0
        assert rm.live_nodes == 1

    def test_lost_node_rejects_allocations(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=4096))
        rm.fail_node(rm.nodes[0].node_id)
        granted = []
        while True:
            c = rm.try_allocate(2048)
            if c is None:
                break
            granted.append(c)
        assert len(granted) == 2  # only the surviving node's 4096 MB
        assert all(c.node_id == rm.nodes[1].node_id for c in granted)

    def test_restore_node_rejoins(self):
        rm = ResourceManager(small_cluster(num_nodes=2, node_memory_mb=4096))
        rm.fail_node(rm.nodes[0].node_id)
        rm.restore_node(rm.nodes[0].node_id)
        assert rm.available_mb == 8192
        assert rm.live_nodes == 2

    def test_fail_unknown_node_raises(self):
        rm = ResourceManager(small_cluster())
        with pytest.raises(ClusterError):
            rm.fail_node("node-999")

    def test_node_loss_degrades_interpreter_cluster_view(self):
        # NODE_LOSS fires at MR-job sites, so the input must be large
        # enough (logically) that the 1 GB heap compiles to MR jobs
        def big_session():
            session = ElasticMLSession(sample_cap=64)
            session.hdfs.create_dense_input(
                "data/X", 2_000_000, 500, seed=5
            )
            return session

        reference = run(big_session())
        assert reference.result.mr_jobs > 0
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.NODE_LOSS, at=0)
        )
        outcome = run(big_session(), chaos=plan)
        assert outcome.prints == reference.prints
        assert outcome.chaos.node_losses == 1
        assert outcome.chaos.retry_recovered == 1
        # the lost node makes the re-executed and subsequent jobs slower
        assert outcome.total_time > reference.total_time


class TestResourceManagerInjection:
    def test_injected_denial_returns_none_despite_capacity(self):
        injector = FaultInjector(FaultPlan.from_faults(
            FaultSpec(FaultKind.ALLOCATION_TRANSIENT, at=0)
        ))
        rm = ResourceManager(
            small_cluster(num_nodes=2, node_memory_mb=4096),
            injector=injector,
        )
        assert rm.try_allocate(1024) is None
        assert rm.used_mb == 0
        # the scripted fault is spent; the next request succeeds
        assert rm.try_allocate(1024) is not None
