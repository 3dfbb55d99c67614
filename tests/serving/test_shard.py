"""Sharded multi-process serving: routing, partitioning, determinism.

The expensive invariant here is the standing one: a tenant's simulated
result is byte-identical whether it ran on a private session, the
single-process server, or any shard count of the multi-process front
end.  Process-spawning tests keep submission counts small (XS inputs)
so the suite stays fast on one CPU.
"""

import pytest

from repro import (
    ElasticMLSession,
    ElasticMLServer,
    ShardedElasticMLServer,
    Submission,
    paper_cluster,
)
from repro.cluster import ResourceConfig
from repro.errors import ClusterError
from repro.serving import ConsistentHashRouter
from repro.workloads import prepare_inputs, scenario


def _canonical(outcome):
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


class TestClusterPartition:
    def test_nodes_are_dealt_out_evenly_and_exhaustively(self):
        cluster = paper_cluster()
        parts = cluster.partition(4)
        assert [p.num_nodes for p in parts] == [2, 2, 1, 1]
        assert sum(p.num_nodes for p in parts) == cluster.num_nodes

    def test_partitions_preserve_node_size_and_allocation_bounds(self):
        cluster = paper_cluster()
        for part in cluster.partition(3):
            assert part.node_memory_mb == cluster.node_memory_mb
            assert part.min_allocation_mb == cluster.min_allocation_mb
            assert part.max_allocation_mb == cluster.max_allocation_mb

    def test_reducers_scale_proportionally_with_a_floor(self):
        parts = paper_cluster().partition(6)
        assert all(p.num_reducers >= 1 for p in parts)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ClusterError):
            paper_cluster().partition(7)
        with pytest.raises(ClusterError):
            paper_cluster().partition(0)


class TestConsistentHashRouter:
    def test_routing_is_deterministic_across_instances(self):
        sub = Submission(tenant="alpha", script="LinregDS")
        a = ConsistentHashRouter(4).route(sub)
        b = ConsistentHashRouter(4).route(sub)
        assert a == b

    def test_tenant_affinity_keeps_a_tenant_on_one_shard(self):
        router = ConsistentHashRouter(4)
        shards = {
            router.route(Submission(
                tenant="alpha", script=name, args={"cols": cols}
            ))
            for name in ("LinregDS", "LinregCG", "L2SVM")
            for cols in (10, 100)
        }
        assert len(shards) == 1

    def test_keyspace_covers_every_shard(self):
        router = ConsistentHashRouter(4)
        used = {
            router.shard_for(f"tenant:tenant-{i}") for i in range(200)
        }
        assert used == {0, 1, 2, 3}

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)

    def test_route_is_the_shard_of_the_tenant_alone(self):
        router = ConsistentHashRouter(4)
        for i in range(16):
            shard = router.route(Submission(
                tenant=f"t{i}", script="LinregDS", args={"cols": i}
            ))
            assert isinstance(shard, int)
            assert shard == router.shard_for(f"tenant:t{i}")

    def test_each_shard_owns_64_ring_points(self):
        router = ConsistentHashRouter(3)
        assert sorted(router._owners) == sorted(list(range(3)) * 64)
        assert router._points == sorted(router._points)

    def test_router_takes_only_a_shard_count(self):
        with pytest.raises(TypeError):
            ConsistentHashRouter(2, affinity="program")
        with pytest.raises(TypeError):
            ConsistentHashRouter(2, replicas=8)


def _serve_linreg_mix(server):
    """Six LinregDS/LinregCG XS submissions over three tenants; returns
    (script names, drained results) in submission order."""
    args = {
        name: prepare_inputs(server.hdfs, name, scenario("XS", cols=50))
        for name in ("LinregDS", "LinregCG")
    }
    names = []
    for i in range(6):
        name = "LinregDS" if i % 2 == 0 else "LinregCG"
        server.submit(Submission(
            tenant=f"tenant-{i % 3}", script=name, args=args[name],
        ))
        names.append(name)
    try:
        return names, server.drain()
    finally:
        server.shutdown()


class TestShardedDeterminism:
    def test_results_byte_identical_across_shard_counts_and_serial(self):
        session = ElasticMLSession(sample_cap=64)
        serial_args = {
            name: prepare_inputs(
                session.hdfs, name, scenario("XS", cols=50)
            )
            for name in ("LinregDS", "LinregCG")
        }
        references = {
            name: _canonical(session.run(name, serial_args[name]))
            for name in ("LinregDS", "LinregCG")
        }

        per_count = {}
        for shards in (1, 2):
            names, results = _serve_linreg_mix(ShardedElasticMLServer(
                shards=shards, sample_cap=64, trace=True
            ))
            assert [r.status for r in results] == ["completed"] * 6
            for name, r in zip(names, results):
                assert _canonical(r.outcome) == references[name]
            per_count[shards] = [_canonical(r.outcome) for r in results]
        assert per_count[1] == per_count[2]

    def test_spawned_shards_equal_forked_ones(self, monkeypatch):
        """A platform without fork starts shards with spawn: the spec
        reaches the worker pickled by multiprocessing, and every result
        equals the forked run's."""
        import multiprocessing

        server = ShardedElasticMLServer(shards=2, sample_cap=64)
        assert server.start_method == "fork"
        _, forked = _serve_linreg_mix(server)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        server = ShardedElasticMLServer(shards=2, sample_cap=64)
        assert server.start_method == "spawn"
        _, spawned = _serve_linreg_mix(server)
        assert all(
            isinstance(proc, multiprocessing.context.SpawnProcess)
            for proc in server._procs
        )
        assert server.stats()["shard.start_method"] == "spawn"
        assert [r.status for r in spawned] == ["completed"] * 6
        assert (
            [_canonical(r.outcome) for r in spawned]
            == [_canonical(r.outcome) for r in forked]
        )

    def test_oversized_container_rejected_like_unsharded(self):
        server = ShardedElasticMLServer(shards=2, sample_cap=64)
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        ticket = server.submit(Submission(
            tenant="big", script="LinregDS", args=args,
            resource=ResourceConfig(10 ** 6, 512), adapt=False,
        ))
        result = server.poll(ticket, timeout=120)
        server.shutdown()
        assert result is not None and result.status == "rejected"
        assert "can never be placed" in result.error


class TestShardedLifecycle:
    def test_stats_aggregate_across_shards(self):
        server = ShardedElasticMLServer(shards=2, sample_cap=64,
                                        trace=True)
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        for i in range(6):
            server.submit(Submission(
                tenant=f"tenant-{i}", script="LinregDS", args=args
            ))
        server.drain()
        live = server.stats()
        server.shutdown()
        final = server.stats()
        for stats in (live, final):
            assert stats["serving.submitted"] == 6
            assert stats["serving.completed"] == 6
            assert stats["shard.count"] == 2
            assert len(stats["per_shard"]) == 2
        # per-shard tracers are absorbed into the parent at shutdown
        assert server.tracer.counter("serving.completed") == 6

    def test_result_reaches_the_parent_when_it_completes(self):
        """Regression: a finished result sat in the shard until the
        forwarder's poll on the *oldest* in-flight ticket timed out
        twice (~0.4 s).  The completing thread ships it now."""
        import time

        server = ShardedElasticMLServer(
            shards=1, max_workers=2, sample_cap=64
        )
        slow_args = prepare_inputs(
            server.hdfs, "GLM", scenario("M", cols=100)
        )
        fast_args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        fast = Submission(tenant="fast", script="LinregDS", args=fast_args)
        try:
            server.submit(fast)  # start the worker, warm its caches
            server.drain()
            older = server.submit(
                Submission(tenant="slow", script="GLM", args=slow_args)
            )
            sent = time.monotonic()
            ticket = server.submit(fast)
            result = server.poll(ticket, timeout=60)
            observed_s = time.monotonic() - sent
            assert result is not None and result.ok
            assert server.poll(older) is None, (
                "the older ticket must still be in flight for this "
                "test to measure anything"
            )
            assert observed_s - result.latency_s < 0.1
        finally:
            server.shutdown()

    def test_queue_limit_rejects_at_the_front_end(self):
        server = ShardedElasticMLServer(
            shards=2, sample_cap=64, queue_limit=2
        )
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        tickets = [
            server.submit(Submission(
                tenant=f"t{i}", script="LinregDS", args=args
            ))
            for i in range(6)
        ]
        results = server.drain()
        server.shutdown()
        rejected = [r for r in results if r.status == "rejected"]
        assert rejected, "queue bound never rejected"
        assert all(
            "queue limit" in r.error for r in rejected
        )
        assert len(tickets) == 6

    def test_submit_after_shutdown_raises(self):
        server = ShardedElasticMLServer(shards=2, sample_cap=64)
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.submit(Submission(tenant="t", script="LinregDS"))

    def test_unknown_policy_rejected_at_construction_like_unsharded(self):
        """Regression: a bad policy name used to kill every shard worker
        on the first submit.  Neither server takes a policy any more:
        both refuse one when they are built, before a worker starts."""
        refused = "unexpected keyword argument 'policy'"
        with pytest.raises(TypeError, match=refused):
            ElasticMLServer(sample_cap=64, policy="bogus")
        with pytest.raises(TypeError, match=refused):
            ShardedElasticMLServer(shards=2, sample_cap=64, policy="bogus")

    def test_routing_takes_no_affinity(self):
        with pytest.raises(TypeError, match="affinity"):
            ShardedElasticMLServer(shards=2, sample_cap=64,
                                   affinity="program")

    def test_benchmark_arguments_build_a_server(self):
        """The sharded server as the end-to-end benchmark builds it."""
        server = ShardedElasticMLServer(
            shards=2, sample_cap=64, max_workers=1, trace=True
        )
        server.shutdown()
        assert server.stats()["shard.count"] == 2
        assert server.router.route(Submission(tenant="t", script="")) in (
            0, 1
        )

    def test_shutdown_before_first_submit_is_clean(self):
        server = ShardedElasticMLServer(shards=2, sample_cap=64)
        server.shutdown()
        assert server.results() == []
        assert server.stats()["shard.count"] == 2

    def test_light_detail_strips_heavy_fields_keeps_identity(self):
        server = ShardedElasticMLServer(shards=1, sample_cap=64)
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=50)
        )
        ticket = server.submit(Submission(
            tenant="t", script="LinregDS", args=args
        ))
        result = server.poll(ticket, timeout=120)
        server.shutdown()
        assert result.ok
        assert result.outcome.compiled is None
        assert result.outcome.trace is None
        assert result.outcome.result is not None
        assert result.outcome.resource is not None
