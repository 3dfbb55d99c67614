"""ElasticMLServer end-to-end: concurrency, determinism, isolation."""

import pytest

from repro import (
    ElasticMLSession,
    ElasticMLServer,
    FaultPlan,
    SessionConfig,
    Submission,
)
from repro.cluster import ResourceConfig, small_cluster
from repro.serving import PackingPolicy, default_serving_workers
from repro.workloads import prepare_inputs, scenario


def _canonical(outcome):
    """Identity of one simulated run, independent of block-id stamps
    (per-block MR heaps compare by position)."""
    result = outcome.result
    resource = outcome.resource
    return (
        result.total_time,
        result.mr_jobs,
        tuple(result.prints),
        resource.cp_heap_mb,
        resource.mr_heap_mb,
        tuple(sorted(resource.mr_heap_per_block.values())),
    )


@pytest.fixture
def server():
    srv = ElasticMLServer(sample_cap=64, trace=True, max_workers=4)
    yield srv
    srv.shutdown()


class TestConcurrentDeterminism:
    def test_concurrent_tenants_match_serial_session(self, server):
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        for i in range(8):
            server.submit(Submission(
                tenant=f"t{i % 3}", script="LinregDS", args=args, seed=0
            ))
        results = server.drain()
        assert all(r.ok for r in results)

        session = ElasticMLSession(sample_cap=64)
        serial_args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        serial = _canonical(session.run("LinregDS", serial_args))
        for r in results:
            assert _canonical(r.outcome) == serial

    def test_mixed_scripts_each_match_their_serial_run(self, server):
        ds_args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        cg_args = prepare_inputs(
            server.hdfs, "LinregCG", scenario("XS", cols=100)
        )
        for i in range(6):
            name, args = (
                ("LinregDS", ds_args) if i % 2 == 0
                else ("LinregCG", cg_args)
            )
            server.submit(Submission(tenant=f"t{i}", script=name, args=args))
        results = server.drain()
        assert all(r.ok for r in results)

        session = ElasticMLSession(sample_cap=64)
        prepare_inputs(session.hdfs, "LinregDS", scenario("XS", cols=100))
        prepare_inputs(session.hdfs, "LinregCG", scenario("XS", cols=100))
        serial_ds = _canonical(session.run("LinregDS", ds_args))
        serial_cg = _canonical(session.run("LinregCG", cg_args))
        for index, r in enumerate(results):
            expected = serial_ds if index % 2 == 0 else serial_cg
            assert _canonical(r.outcome) == expected

    def test_chaos_deterministic_across_concurrent_tenants(self, server):
        """Fault schedules are per-submission (plan seed), so running
        many chaos tenants concurrently reproduces the single-session
        fault accounting exactly."""
        args = prepare_inputs(
            server.hdfs, "LinregCG", scenario("XS", cols=100)
        )
        plan = FaultPlan.from_rate(7, 0.1)
        static = ResourceConfig(512, 512)
        for i in range(4):
            server.submit(Submission(
                tenant=f"t{i}", script="LinregCG", args=args,
                resource=static, adapt=False, chaos=plan,
            ))
        results = server.drain()
        assert all(r.ok for r in results)

        session = ElasticMLSession(sample_cap=64)
        prepare_inputs(session.hdfs, "LinregCG", scenario("XS", cols=100))
        serial = session.run(
            "LinregCG", args, resource=static, adapt=False,
            chaos=FaultPlan.from_rate(7, 0.1),
        )
        assert serial.chaos.total_injected > 0
        for r in results:
            chaos = r.outcome.chaos
            assert chaos.total_injected == serial.chaos.total_injected
            assert chaos.injected == serial.chaos.injected
            assert r.outcome.total_time == serial.total_time


class TestSharedCaches:
    def test_repeat_submissions_hit_all_shared_caches(self, server):
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        for i in range(6):
            server.submit(Submission(tenant="t", script="LinregDS",
                                     args=args))
            # serialize to make hit counts deterministic
            server.drain()
        stats = server.stats()
        assert stats["program_cache.hits"] == 5
        assert stats["optcache.hits"] == 5
        assert stats["optcache.misses"] == 1

    def test_opt_cache_disabled_via_config(self):
        server = ElasticMLServer(
            sample_cap=64,
            config=SessionConfig(opt_cache=False, enable_plan_cache=False),
        )
        try:
            assert server.opt_cache is None
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            server.submit(Submission(tenant="t", script="LinregDS",
                                     args=args))
            assert server.drain()[0].ok
        finally:
            server.shutdown()


class TestLifecycleAndIsolation:
    def test_failed_submission_isolated(self, server):
        good_args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        bad = server.submit(Submission(
            tenant="bad", script="X = read($X)\nprint(sum(X))",
            args={"X": "no-such-file"},
        ))
        good = server.submit(Submission(
            tenant="good", script="LinregDS", args=good_args
        ))
        results = {r.ticket: r for r in server.drain()}
        assert results[bad].status == "failed"
        assert results[bad].error
        assert results[good].ok
        assert server.stats()["serving.failed"] == 1

    def test_oversized_container_is_rejected_not_failed(self, server):
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        huge = ResourceConfig(
            cp_heap_mb=10 * server.cluster.node_memory_mb,
            mr_heap_mb=512,
        )
        ticket = server.submit(Submission(
            tenant="t", script="LinregDS", args=args, resource=huge
        ))
        result = server.poll(ticket, timeout=60)
        assert result.status == "rejected"
        assert "never" in result.error

    def test_queue_limit_rejects_overflow(self):
        server = ElasticMLServer(sample_cap=64, queue_limit=1,
                                 max_workers=1)
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            tickets = [
                server.submit(Submission(tenant="t", script="LinregDS",
                                         args=args))
                for _ in range(6)
            ]
            results = {r.ticket: r for r in server.drain()}
            statuses = [results[t].status for t in tickets]
            assert "rejected" in statuses
            assert statuses.count("completed") >= 1
        finally:
            server.shutdown()

    def test_poll_unknown_ticket_returns_none(self, server):
        assert server.poll(999) is None

    def test_drain_preserves_submission_order(self, server):
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        tickets = [
            server.submit(Submission(tenant=f"t{i}", script="LinregDS",
                                     args=args))
            for i in range(5)
        ]
        results = server.drain()
        assert [r.ticket for r in results] == tickets

    def test_submit_after_shutdown_raises(self):
        server = ElasticMLServer(sample_cap=64)
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.submit(Submission(tenant="t", script="LinregDS"))

    def test_poll_timeout_expires_to_none(self, server):
        import time

        started = time.monotonic()
        assert server.poll(999, timeout=0.2) is None
        assert time.monotonic() - started >= 0.15

    def test_poll_timeout_on_inflight_submission_returns_none(self):
        server = ElasticMLServer(
            cluster=small_cluster(num_nodes=1, node_memory_mb=1024),
            sample_cap=64, max_workers=2,
        )
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=50)
            )
            # fill the only node so the submission parks in admission
            # and can never turn terminal during the poll
            hog = server.rm.try_allocate(1024, tenant="hog")
            assert hog is not None
            ticket = server.submit(Submission(
                tenant="parked", script="LinregDS", args=args,
                resource=ResourceConfig(300, 300), adapt=False,
            ))
            assert server.poll(ticket, timeout=0.3) is None
            server.rm.release(hog)
        finally:
            server.shutdown()

    def test_shutdown_cancels_submissions_parked_in_admission(self):
        import time

        server = ElasticMLServer(
            cluster=small_cluster(num_nodes=1, node_memory_mb=1024),
            sample_cap=64, max_workers=2, trace=True,
        )
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        hog = server.rm.try_allocate(1024, tenant="hog")
        ticket = server.submit(Submission(
            tenant="parked", script="LinregDS", args=args,
            resource=ResourceConfig(300, 300), adapt=False,
        ))
        deadline = time.monotonic() + 10
        while (
            time.monotonic() < deadline
            and server.stats()["serving.waiting"] < 1
        ):
            time.sleep(0.01)
        assert server.stats()["serving.waiting"] == 1, (
            "submission never parked"
        )
        # the waiting ticket holds no thread: shutdown withdraws its
        # offer and settles it cancelled, so wait=True returns at once
        server.shutdown(wait=True)
        result = server.poll(ticket)
        assert result is not None
        assert result.status == "cancelled"
        assert not result.ok
        assert "shut down" in result.error
        assert server.stats()["serving.cancelled"] == 1

    def test_drain_after_shutdown_no_wait_returns_all_terminal(self):
        import time

        server = ElasticMLServer(
            cluster=small_cluster(num_nodes=1, node_memory_mb=1024),
            sample_cap=64, max_workers=3,
        )
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        hog = server.rm.try_allocate(1024, tenant="hog")
        tickets = [
            server.submit(Submission(
                tenant=f"t{i}", script="LinregDS", args=args,
                resource=ResourceConfig(300, 300), adapt=False,
            ))
            for i in range(2)
        ]
        deadline = time.monotonic() + 10
        while (
            time.monotonic() < deadline
            and server.stats()["serving.waiting"] < len(tickets)
        ):
            time.sleep(0.01)
        server.shutdown(wait=False)
        results = server.drain()
        assert len(results) == len(tickets)
        assert all(r.status == "cancelled" for r in results)

    def test_tenant_spans_and_counters_absorbed(self, server):
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        server.submit(Submission(tenant="alice", script="LinregDS",
                                 args=args))
        server.submit(Submission(tenant="bob", script="LinregDS",
                                 args=args))
        server.drain()
        roots = {span.name for span in server.tracer.roots}
        assert "tenant.alice" in roots
        assert "tenant.bob" in roots
        assert server.tracer.counter("serving.admitted") == 2
        assert server.tracer.counter("serving.completed") == 2


class TestPackingPolicyEndToEnd:
    def test_serving_under_packing_policy_stays_deterministic(self):
        server = ElasticMLServer(
            sample_cap=64, policy=PackingPolicy(), max_workers=4
        )
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            for i in range(8):
                server.submit(Submission(
                    tenant=f"t{i % 4}", script="LinregDS", args=args
                ))
            results = server.drain()
            assert all(r.ok for r in results)
            assert len({_canonical(r.outcome) for r in results}) == 1
        finally:
            server.shutdown()


class TestCrossTenantCalibration:
    """The shared collector: every tenant feeds one sample sink, and a
    server-level fit updates the belief used for later submissions."""

    def _calibrating_server(self):
        from repro.cost.calibrate import drifted_parameters
        from repro.cost.constants import DEFAULT_PARAMETERS

        return ElasticMLServer(
            sample_cap=64,
            trace=True,
            max_workers=4,
            params=drifted_parameters(42),
            model_params=DEFAULT_PARAMETERS,
            config=SessionConfig(calibrate=True),
        )

    def test_tenants_feed_shared_collector(self):
        server = self._calibrating_server()
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            for i in range(4):
                server.submit(Submission(
                    tenant=f"t{i % 2}", script="LinregDS", args=args
                ))
            results = server.drain()
            assert all(r.ok for r in results)
            stats = server.stats()
            assert stats["calib.samples"] > 0
            assert stats["calib.fitted_params"] == 0  # nothing fitted yet
        finally:
            server.shutdown()

    def test_fit_applies_to_subsequent_optimizations(self):
        server = self._calibrating_server()
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            for i in range(4):
                server.submit(Submission(
                    tenant=f"t{i}", script="LinregDS", args=args
                ))
            assert all(r.ok for r in server.drain())

            belief_before = server.model_params
            profile = server.fit_calibration(min_samples=1)
            assert profile.fitted
            assert server.model_params == profile.parameters()
            assert server.model_params != belief_before
            assert server.model_params.cp_flops == pytest.approx(
                server.params.cp_flops, rel=1e-6
            )
            assert server.stats()["calib.fitted_params"] == len(
                profile.fitted
            )
            # post-fit submissions run under the calibrated belief
            server.submit(Submission(
                tenant="after", script="LinregDS", args=args
            ))
            assert all(r.ok for r in server.drain())
        finally:
            server.shutdown()

    def test_fit_requires_collector(self):
        server = ElasticMLServer(sample_cap=64, max_workers=2)
        try:
            with pytest.raises(RuntimeError):
                server.fit_calibration()
        finally:
            server.shutdown()


class TestProgramCacheEvictions:
    def test_lru_eviction_is_counted_and_surfaced_in_stats(self):
        server = ElasticMLServer(
            sample_cap=64, max_workers=2, program_cache_entries=1
        )
        try:
            ds_args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=50)
            )
            cg_args = prepare_inputs(
                server.hdfs, "LinregCG", scenario("XS", cols=50)
            )
            for script, args in (
                ("LinregDS", ds_args), ("LinregCG", cg_args),
                ("LinregDS", ds_args),
            ):
                server.submit(Submission(
                    tenant="t", script=script, args=args
                ))
                server.drain()
            assert server.program_cache.evictions >= 2
            assert server.stats()["program_cache.evictions"] >= 2
            # every distinct program was a miss: the 1-entry cache
            # thrashed instead of serving the repeat
            assert server.program_cache.hits == 0
        finally:
            server.shutdown()

    def test_no_evictions_within_capacity(self):
        server = ElasticMLServer(sample_cap=64, max_workers=2)
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=50)
            )
            for _ in range(2):
                server.submit(Submission(
                    tenant="t", script="LinregDS", args=args
                ))
                server.drain()
            assert server.program_cache.evictions == 0
            assert server.stats()["program_cache.evictions"] == 0
        finally:
            server.shutdown()


class TestServingWorkerClamp:
    def test_defaults_keep_the_historical_2_8_clamp(self):
        import os

        expected = max(2, min(8, os.cpu_count() or 1))
        assert default_serving_workers() == expected

    def test_server_honors_max_workers_argument(self):
        server = ElasticMLServer(sample_cap=64, max_workers=1)
        try:
            assert server._executor._max_workers == 1
        finally:
            server.shutdown()
