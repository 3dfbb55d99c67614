"""Cross-cutting invariant: chaos + calibration + background load + an
elastic admission below ideal (a point of the cost frontier) composed
in one run still produce byte-identical outputs to a plain serial run
at the ideal configuration — every subsystem perturbs time and plans,
never numerics."""

import numpy as np
import pytest

from repro.api import ElasticMLSession, SessionConfig
from repro.chaos import FaultPlan
from repro.cluster import ClusterLoad, ResourceConfig, small_cluster
from repro.scripts import load_script
from repro.serving import (
    ElasticMLServer,
    Submission,
    default_serving_workers,
)
from repro.workloads import prepare_inputs, scenario

#: its winner sits above the CP floor, its frontier at the floor
SCRIPT, SIZE = "LinregDS", "S"


def make_session(**kwargs):
    return ElasticMLSession(
        cluster=small_cluster(), sample_cap=64, **kwargs
    )


def linreg_args(session):
    return prepare_inputs(
        session.hdfs, SCRIPT, scenario(SIZE, cols=1000)
    )


def frontier_run(session, args, **kwargs):
    """Optimize in ``session``, then execute at the cheapest-to-admit
    point of the frontier: that session's own configuration of it."""
    source = load_script(SCRIPT)
    compiled = session.compile(source, args)
    result = session.optimize_cached(source, args, compiled)
    rc, _, vector = result.frontier.steps[0]
    point = ResourceConfig(rc, result.resource.mr_heap_mb, dict(vector))
    assert point.cp_heap_mb < result.resource.cp_heap_mb
    return session.execute_program(
        compiled, point, seed=session.seed, adapt=False, **kwargs
    )


class TestComposedInvariants:
    @pytest.fixture(scope="class")
    def runs(self):
        plain_session = make_session()
        args = linreg_args(plain_session)
        plain = plain_session.run(SCRIPT, args, adapt=False)

        chaos_session = make_session()
        linreg_args(chaos_session)
        chaos_only = frontier_run(
            chaos_session, args, chaos=FaultPlan.from_rate(7, 0.1),
        )

        composed_session = make_session(
            config=SessionConfig(calibrate=True),
        )
        linreg_args(composed_session)
        composed = frontier_run(
            composed_session, args, chaos=FaultPlan.from_rate(7, 0.1),
            load=ClusterLoad.constant(0.8),
        )
        return {
            "args": args,
            "plain": (plain_session, plain),
            "chaos_only": (chaos_session, chaos_only),
            "composed": (composed_session, composed),
        }

    def test_prints_byte_identical(self, runs):
        _, plain = runs["plain"]
        _, composed = runs["composed"]
        assert composed.prints == plain.prints

    def test_output_matrix_identical(self, runs):
        args = runs["args"]
        plain_session, _ = runs["plain"]
        composed_session, _ = runs["composed"]
        ref = np.array(plain_session.hdfs.get(args["B"]).data)
        got = np.array(composed_session.hdfs.get(args["B"]).data)
        assert np.array_equal(got, ref)

    def test_chaos_injection_unchanged_by_elasticity(self, runs):
        """The load signal and calibration do not change which faults
        fire at the admitted point: the same plan injects the same
        faults."""
        _, chaos_only = runs["chaos_only"]
        _, composed = runs["composed"]
        assert composed.chaos is not None
        assert composed.chaos.injected == chaos_only.chaos.injected

    def test_calibration_collected_samples(self, runs):
        composed_session, _ = runs["composed"]
        assert composed_session.calibration is not None
        assert composed_session.calibration.total_samples > 0

    def test_composed_run_never_faster_than_chaos_only(self, runs):
        """Load + calibration only ever add simulated seconds on top of
        the chaos run at the same point (which shares the same fault
        schedule, including the allocation-denial resource fallback)."""
        _, chaos_only = runs["chaos_only"]
        _, composed = runs["composed"]
        assert composed.total_time >= chaos_only.total_time
        assert composed.prints == chaos_only.prints


class TestElasticServing:
    def test_server_outputs_match_serial(self):
        cluster = small_cluster(num_nodes=2, node_memory_mb=2048)
        server = ElasticMLServer(
            cluster=cluster, sample_cap=64, trace=True,
            config=SessionConfig(tenant_quota_share=0.6),
        )
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        for index in range(4):
            server.submit(Submission(
                tenant=f"t{index}", script="LinregDS", args=args,
                adapt=False,
            ))
        results = server.drain()
        server.shutdown()
        assert all(r.ok for r in results)

        session = ElasticMLSession(cluster=cluster, sample_cap=64)
        prepare_inputs(session.hdfs, "LinregDS", scenario("XS", cols=100))
        ref = session.run("LinregDS", args, adapt=False)
        for result in results:
            assert result.outcome.result.prints == ref.prints

    def test_quota_impossible_rejected_up_front(self):
        cluster = small_cluster(num_nodes=1, node_memory_mb=1024)
        server = ElasticMLServer(
            cluster=cluster, sample_cap=64,
            config=SessionConfig(tenant_quota_share=0.05),
        )
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        server.submit(Submission(tenant="t0", script="LinregDS",
                                 args=args, adapt=False))
        result = server.drain()[0]
        server.shutdown()
        assert result.status == "rejected"

    def test_default_workers_bounded(self):
        workers = default_serving_workers()
        assert 2 <= workers <= 8
