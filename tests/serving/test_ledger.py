"""The ticket ledger both serving front ends share.

``stats()`` counts the ``serving.*`` statuses from the ledger's own
terminal results, so an untraced server reports what a traced one does;
and a shard worker that dies fails each of its in-flight tickets once.
"""

import itertools
import time
from collections import Counter

import pytest

from repro import ElasticMLServer, ShardedElasticMLServer, Submission
from repro.cluster import ResourceConfig, small_cluster
from repro.workloads import prepare_inputs, scenario

STATUS_KEYS = (
    "serving.submitted", "serving.admitted", "serving.completed",
    "serving.failed", "serving.rejected", "serving.cancelled",
)

BAD = Submission(
    tenant="bad", script="X = read($X)\nprint(sum(X))",
    args={"X": "no-such-file"},
)


def _wait_for(predicate, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    assert predicate()


def _serve_plain(trace):
    """One completed, one failed, two queue rejections and two
    submissions parked in admission until shutdown cancels them."""
    server = ElasticMLServer(
        cluster=small_cluster(num_nodes=1, node_memory_mb=1024),
        sample_cap=64, max_workers=2, queue_limit=2, trace=trace,
    )
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    small = Submission(
        tenant="t", script="LinregDS", args=args,
        resource=ResourceConfig(300, 300), adapt=False,
    )
    server.submit(small)
    server.submit(BAD)
    server.drain()
    server.rm.try_allocate(1024, tenant="hog")  # park what comes next
    for _ in range(4):
        server.submit(small)
    _wait_for(lambda: server.stats()["serving.waiting"] == 2)
    server.shutdown()
    return server.drain(), server.stats()


def _serve_sharded(trace):
    """Two completed and three queue rejections at the front end, then
    one failed."""
    server = ShardedElasticMLServer(
        shards=2, sample_cap=64, queue_limit=2, trace=trace,
    )
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    try:
        for i in range(5):
            server.submit(
                Submission(tenant=f"t{i}", script="LinregDS", args=args)
            )
        server.drain()
        server.submit(BAD)
        return server.drain(), server.stats()
    finally:
        server.shutdown()


@pytest.mark.parametrize("serve, expected", [
    (_serve_plain, {"completed": 1, "failed": 1, "rejected": 2,
                    "cancelled": 2}),
    (_serve_sharded, {"completed": 2, "failed": 1, "rejected": 3}),
], ids=["plain", "sharded"])
def test_untraced_stats_count_what_drain_returns(serve, expected):
    counted = {}
    for trace in (False, True):
        results, stats = serve(trace)
        statuses = Counter(r.status for r in results)
        assert statuses == expected
        assert stats["serving.submitted"] == len(results)
        for status in ("completed", "failed", "rejected", "cancelled"):
            assert stats[f"serving.{status}"] == statuses[status], (
                status, trace, stats
            )
        # the missing input fails the bad run after its admission
        assert stats["serving.admitted"] == (
            statuses["completed"] + statuses["failed"]
        )
        counted[trace] = {key: stats[key] for key in STATUS_KEYS}
    assert counted[False] == counted[True]


def test_dead_shard_fails_its_tickets_exactly_once():
    server = ShardedElasticMLServer(shards=2, sample_cap=64)
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    shard = 1
    tenant = next(
        name for name in (f"t{i}" for i in itertools.count())
        if server.router.route(Submission(tenant=name, script=""))
        == shard
    )
    doomed = Submission(tenant=tenant, script="LinregDS", args=args)
    try:
        server.submit(Submission(tenant="warm", script="LinregDS",
                                 args=args))
        assert server.drain()[0].ok
        server._procs[shard].kill()
        server._procs[shard].join(timeout=10)
        # one in flight when the collector notices the death, one
        # routed to the shard after it was reaped
        first = server.submit(doomed)
        assert server.poll(first, timeout=30) is not None
        second = server.submit(doomed)
        assert server.poll(second, timeout=30) is not None
        results = server.drain()
        failed = [r for r in results if r.status == "failed"]
        assert [r.ticket for r in failed] == [first, second]
        assert all(
            r.error == f"shard worker {shard} died" for r in failed
        )
        assert server.stats()["serving.failed"] == 2
    finally:
        server.shutdown()
    assert server.stats()["serving.failed"] == 2
