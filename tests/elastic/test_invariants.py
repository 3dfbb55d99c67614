"""Cross-cutting invariant: chaos + calibration + background load + a
below-ideal elastic grant composed in one run still produce
byte-identical outputs to a plain serial run — every subsystem perturbs
time, never numerics."""

import numpy as np
import pytest

from repro.api import ElasticMLSession, SessionConfig
from repro.chaos import FaultPlan
from repro.cluster import ClusterLoad, ResourceConfig, small_cluster
from repro.serving import (
    ElasticMLServer,
    Submission,
    default_serving_workers,
)
from repro.workloads import prepare_inputs, scenario

#: forces an MR job (small CP heap) with a shrinkable MR heap, so the
#: composed run exercises the spill path too
STATIC = ResourceConfig(128, 512)
#: admitted fraction of STATIC for the composed run
FRACTION = 0.5


def make_session(**kwargs):
    return ElasticMLSession(
        cluster=small_cluster(), sample_cap=64, **kwargs
    )


def linreg_args(session):
    return prepare_inputs(
        session.hdfs, "LinregDS", scenario("XS", cols=100)
    )


class TestComposedInvariants:
    @pytest.fixture(scope="class")
    def runs(self):
        plain_session = make_session()
        args = linreg_args(plain_session)
        plain = plain_session.run(
            "LinregDS", args, resource=STATIC, adapt=False
        )

        chaos_session = make_session()
        linreg_args(chaos_session)
        chaos_only = chaos_session.run(
            "LinregDS", args, resource=STATIC, adapt=False,
            chaos=FaultPlan.from_rate(7, 0.1),
        )

        composed_session = make_session(
            config=SessionConfig(calibrate=True),
        )
        linreg_args(composed_session)
        composed = composed_session.execute_program(
            composed_session.compile_registered("LinregDS", args),
            STATIC, seed=composed_session.seed, adapt=False,
            chaos=FaultPlan.from_rate(7, 0.1),
            load=ClusterLoad.constant(0.8), fraction=FRACTION,
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
        """The grant and the load signal do not change which faults
        fire: the same plan injects the same faults."""
        _, chaos_only = runs["chaos_only"]
        _, composed = runs["composed"]
        assert composed.chaos is not None
        assert composed.chaos.injected == chaos_only.chaos.injected

    def test_calibration_collected_samples(self, runs):
        composed_session, _ = runs["composed"]
        assert composed_session.calibration is not None
        assert composed_session.calibration.total_samples > 0

    def test_composed_run_never_faster_than_chaos_only(self, runs):
        """Load + grant + calibration only ever add simulated seconds
        on top of the chaos run (which shares the same fault schedule,
        including the allocation-denial resource fallback)."""
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
