"""Tickets wait, threads do not.

A prepared submission offers its AM container to the admission core and
gives its pool thread back, so the core sees the whole backlog however
few threads the server has; shutdown cancels that backlog, each ticket
exactly once, and admission counts stay attributed to the submissions
that acted.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import repro.serving.server as server_module
from repro import ElasticMLServer, ShardedElasticMLServer, Submission
from repro.cluster import ResourceConfig, small_cluster
from repro.workloads import prepare_inputs, scenario


def _wait_for(predicate, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    assert predicate()


def _submission(args, tenant, cp_heap_mb=300, seed=0):
    """An explicit configuration: a ``1.5 * cp_heap_mb`` AM container."""
    return Submission(
        tenant=tenant, script="LinregDS", args=args,
        resource=ResourceConfig(cp_heap_mb, cp_heap_mb), adapt=False,
        seed=seed,
    )


def _count_executions(server):
    """Record the seed of every program the server executes."""
    seeds = []  # list.append is atomic; a Counter's += is not
    execute = server.execute_program

    def counted(compiled, resource, *, seed=0, **options):
        seeds.append(seed)
        return execute(compiled, resource, seed=seed, **options)

    server.execute_program = counted
    return seeds


def _one_node_server(**options):
    server = ElasticMLServer(
        cluster=small_cluster(num_nodes=1, node_memory_mb=1024),
        sample_cap=64, **options,
    )
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    return server, args


def test_whole_backlog_waits_in_the_core_and_shutdown_cancels_it():
    server, args = _one_node_server(max_workers=2)
    shipped = Counter()
    server.on_result = lambda result: shipped.update([result.ticket])
    assert server.rm.try_allocate(1024, tenant="hog") is not None
    tickets = [server.submit(_submission(args, f"t{i}")) for i in range(10)]
    try:
        # two threads, ten waiting tickets: none of them holds a thread
        _wait_for(lambda: server.stats()["serving.waiting"] == 10)
        assert sorted(server.core.waiting) == tickets
    finally:
        server.shutdown()
    results = server.drain()
    assert [r.ticket for r in results] == tickets
    assert all(r.status == "cancelled" for r in results)
    assert all("shut down" in r.error for r in results)
    assert shipped == Counter(tickets)
    stats = server.stats()
    assert stats["serving.cancelled"] == 10
    assert stats["serving.waiting"] == 0
    assert stats["serving.admitted"] == 0


def test_queued_admissions_count_on_the_acting_submissions_tracer():
    # 900 MB containers on one 1024 MB node: each run waits for the
    # last; more threads than cores and a short switch interval make a
    # tracer written by two threads at once lose counts
    server, args = _one_node_server(max_workers=8, trace=True)
    executed = _count_executions(server)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(16):
            server.submit(
                _submission(args, f"t{i % 3}", cp_heap_mb=600, seed=i)
            )
        results = server.drain()
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
    assert all(r.ok for r in results)
    assert sorted(executed) == list(range(16))  # each ticket ran once
    assert {r.container_mb for r in results} == {900}
    admitted = server.stats()["serving.admitted"]
    assert admitted == 16
    assert server.tracer.counter("serving.admitted") == admitted
    assert server.tracer.counter("yarn.allocations") == admitted
    assert server.tracer.counter("yarn.releases") == admitted


def test_a_grant_right_after_the_offering_step_runs_the_ticket_once(
        monkeypatch):
    # another thread's grant lands in the window just after the locked
    # step in which the preparing thread offered the ticket: only the
    # grant may dispatch its execute, or it runs twice and its
    # container is released twice
    server, args = _one_node_server(max_workers=2)
    executed = _count_executions(server)
    hog = server.rm.try_allocate(1024, tenant="hog")
    released = []
    use_tracer = server_module.use_tracer

    @contextmanager
    def release_the_hog_after(tracer):
        with use_tracer(tracer) as active:
            yield active
        if server.core.waiting and not released:
            released.append(hog)
            with server._cond:  # what a finishing execute does
                server.core.release([hog])
                server._grant_locked()

    monkeypatch.setattr(server_module, "use_tracer", release_the_hog_after)
    try:
        ticket = server.submit(_submission(args, "t"))
        result = server.poll(ticket, timeout=30)
        server.drain()
    finally:
        server.shutdown()
    assert released == [hog]
    assert result.ok
    assert executed == [0]
    assert server.rm.usage_by_tenant().get("t", 0) == 0
    assert server.stats()["serving.admitted"] == 1


@pytest.mark.parametrize(
    "granted", [False, True], ids=["before-own-grant", "after-own-grant"],
)
def test_a_grant_that_raises_while_offering_settles_that_ticket_once(
        granted):
    server, args = _one_node_server(max_workers=2)
    executed = _count_executions(server)
    grant = server.core.grant

    def raising_grant():
        server.core.grant = grant  # raises once
        if granted:
            yield from grant()
        raise RuntimeError("policy fault")

    server.core.grant = raising_grant
    # not granted: the offer waits behind a full cluster until withdrawn
    hog = None if granted else server.rm.try_allocate(1024, tenant="hog")
    try:
        first = server.poll(server.submit(_submission(args, "x")), timeout=30)
        assert first.status == "failed"
        assert "RuntimeError: policy fault" in first.error
        assert server.stats()["serving.waiting"] == 0
        assert server.rm.usage_by_tenant().get("x", 0) == 0
        if hog is not None:
            server.rm.release(hog)
        second = server.submit(_submission(args, "y", seed=1))
        results = server.drain()
    finally:
        server.shutdown()
    assert [r.status for r in results] == ["failed", "completed"]
    assert results[1].ticket == second
    assert executed == [1]


def test_a_release_that_raises_still_settles_the_ticket():
    server, args = _one_node_server(max_workers=2)

    def raising_release(containers):
        raise RuntimeError("release fault")

    server.core.release = raising_release
    try:
        result = server.poll(server.submit(_submission(args, "t")), timeout=30)
    finally:
        server.shutdown()
    assert result is not None and result.status == "failed"
    assert result.error == "RuntimeError: release fault"
    assert server.stats()["serving.failed"] == 1


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_waiting_on_quota_counts_requests_their_quota_refuses(trace):
    server = ElasticMLServer(
        cluster=small_cluster(num_nodes=2, node_memory_mb=4096),
        sample_cap=64, max_workers=2, trace=trace,
    )
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    try:
        server.rm.set_tenant_quota("q", 1024)
        held = server.rm.try_allocate(900, tenant="q")
        for _ in range(3):
            server.submit(_submission(args, "q", cp_heap_mb=600))
        # the cluster has room: only the tenant's quota holds them
        _wait_for(lambda: server.stats()["serving.waiting"] == 3)
        assert server.stats()["serving.waiting_on_quota"] == 3
        server.rm.release(held)
        # a release behind the server's back grants nothing; the next
        # offer re-runs the grant
        server.submit(_submission(args, "q", cp_heap_mb=600))
        results = server.drain()
        assert all(r.ok for r in results)
        stats = server.stats()
        assert stats["serving.waiting_on_quota"] == 0
        assert stats["serving.admitted"] == 4
    finally:
        server.shutdown()


def test_sharded_shutdown_with_a_backlog_settles_every_ticket_once():
    server = ShardedElasticMLServer(
        shards=2, cluster=small_cluster(num_nodes=2, node_memory_mb=1024),
        sample_cap=64, max_workers=2,
    )
    args = prepare_inputs(server.hdfs, "LinregDS", scenario("XS", cols=50))
    tickets = [
        server.submit(_submission(args, "one", cp_heap_mb=600))
        for _ in range(6)
    ]
    server.shutdown()  # no drain(): most tickets are still queued
    results = server.drain()
    assert [r.ticket for r in results] == tickets
    statuses = Counter(r.status for r in results)
    assert set(statuses) <= {"completed", "cancelled"}, [
        r.error for r in results if r.status == "failed"
    ]
    stats = server.stats()
    # each shard settled each of its tickets once: its own ledger
    # counts what the front end's does
    for status in ("completed", "cancelled"):
        assert stats[f"serving.{status}"] == statuses[status]
        assert sum(
            shard.get(f"serving.{status}", 0)
            for shard in stats["per_shard"].values()
        ) == statuses[status]
    assert stats["serving.admitted"] == statuses["completed"]
