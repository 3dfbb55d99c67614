"""The trace-driven replay harness: record live server sessions to a
JSON trace, then replay them as a deterministic simulator fixture."""

import threading

import pytest

from repro.api import ElasticMLSession
from repro.chaos import FaultKind, FaultPlan, FaultSpec
from repro.cluster import small_cluster
from repro.elastic import (
    ElasticTrace,
    TraceRecorder,
    TraceSimulator,
)
from repro.serving import (
    ElasticMLServer,
    ShardedElasticMLServer,
    Submission,
)
from repro.workloads import prepare_inputs, scenario


@pytest.fixture(scope="module")
def recorded():
    """Drive a live multi-tenant server with recording on; returns the
    recorded trace plus the live results for comparison."""
    cluster = small_cluster(num_nodes=2, node_memory_mb=2048)
    recorder = TraceRecorder({"LinregDS": ("XS", 100)})
    server = ElasticMLServer(
        cluster=cluster, trace=True, recorder=recorder, sample_cap=64,
    )
    args = prepare_inputs(
        server.hdfs, "LinregDS", scenario("XS", cols=100)
    )
    for index in range(4):
        server.submit(Submission(
            tenant=f"tenant-{index % 2}", script="LinregDS", args=args,
            adapt=False,
        ))
    results = server.drain()
    server.shutdown()
    assert all(r.ok for r in results)
    return recorder.trace(name="recorded"), results


class TestRecorder:
    def test_every_submission_recorded(self, recorded):
        trace, results = recorded
        assert len(trace.entries) == len(results)
        assert {e.tenant for e in trace.entries} == {
            "tenant-0", "tenant-1"
        }
        assert all(e.script == "LinregDS" for e in trace.entries)
        assert all(e.size == "XS" and e.cols == 100
                   for e in trace.entries)

    def test_arrivals_monotone(self, recorded):
        trace, _ = recorded
        arrivals = [e.arrival_s for e in trace.entries]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_unregistered_script_raises(self):
        recorder = TraceRecorder({"LinregDS": ("XS", 100)})
        with pytest.raises(KeyError):
            recorder.record(Submission(tenant="t", script="KMeans"))

    def test_chaos_submission_replays_its_own_fault_plan(self):
        """A recorded chaos submission keeps its plan's rate, so replay
        rebuilds the very plan the live run drew faults from."""
        recorder = TraceRecorder({"LinregDS": ("XS", 100)})
        recorder.record(Submission(
            tenant="t", script="LinregDS",
            chaos=FaultPlan.from_rate(5, 0.5),
        ))
        loaded = ElasticTrace.from_payload(recorder.trace().to_payload())
        (entry,) = loaded.entries
        assert (entry.chaos_seed, entry.fault_rate) == (5, 0.5)
        replayed = FaultPlan.from_rate(entry.chaos_seed, entry.fault_rate)
        assert replayed.rates == FaultPlan.from_rate(5, 0.5).rates

    @pytest.mark.parametrize("plan", [
        FaultPlan.from_faults(FaultSpec(FaultKind.CONTAINER_KILL, at=0)),
        FaultPlan.from_rate(5, 0.5, kinds=[FaultKind.CONTAINER_KILL]),
        FaultPlan(seed=5, rates={
            FaultKind.CONTAINER_KILL: 0.5, FaultKind.NODE_LOSS: 0.1,
        }),
    ], ids=["scripted", "one-kind", "mixed-rates"])
    def test_plan_replay_cannot_rebuild_is_refused(self, plan):
        recorder = TraceRecorder({"LinregDS": ("XS", 100)})
        with pytest.raises(ValueError, match="uniform-rate"):
            recorder.record(Submission(
                tenant="t", script="LinregDS", chaos=plan,
            ))
        assert len(recorder) == 0


def drain_within(server, timeout_s=30.0):
    """``server.drain()`` in a thread joined with a timeout: the
    results, or None when drain is still blocked."""
    box = []
    thread = threading.Thread(
        target=lambda: box.append(server.drain()), daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    return box[0] if box else None


class TestRefusedRecording:
    """A submission the recorder refuses raises from ``submit`` and
    leaves no ticket behind for ``drain`` to wait on."""

    def check(self, server):
        try:
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            with pytest.raises(KeyError):
                server.submit(Submission(tenant="t", script="KMeans"))
            server.submit(Submission(
                tenant="t", script="LinregDS", args=args, adapt=False,
            ))
            results = drain_within(server)
            assert results is not None, "drain() waits on an orphan ticket"
            assert [r.status for r in results] == ["completed"]
        finally:
            server.shutdown()

    def test_server(self):
        self.check(ElasticMLServer(
            cluster=small_cluster(), sample_cap=64,
            recorder=TraceRecorder({"LinregDS": ("XS", 100)}),
        ))

    def test_sharded_server(self):
        self.check(ShardedElasticMLServer(
            shards=1, cluster=small_cluster(), sample_cap=64,
            recorder=TraceRecorder({"LinregDS": ("XS", 100)}),
        ))


class TestJSONRoundtrip:
    def test_save_load_roundtrip(self, recorded, tmp_path):
        trace, _ = recorded
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ElasticTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.entries == trace.entries


class TestReplay:
    def test_replay_is_deterministic(self, recorded, tmp_path):
        trace, _ = recorded
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ElasticTrace.load(path)
        cluster = small_cluster(num_nodes=2, node_memory_mb=2048)
        first, second = [
            TraceSimulator(loaded, cluster=cluster, elastic=True).run()
            for _ in range(2)
        ]
        assert first.summary() == second.summary()
        assert [
            (r.entry.tenant, r.admitted_s, r.finish_s, r.resource)
            for r in first.runs
        ] == [
            (r.entry.tenant, r.admitted_s, r.finish_s, r.resource)
            for r in second.runs
        ]

    def test_replay_matches_live_outputs(self, recorded):
        """Replayed runs produce the very prints the live server did —
        elasticity and interleaving perturb time, never results."""
        trace, live_results = recorded
        cluster = small_cluster(num_nodes=2, node_memory_mb=2048)
        replayed = TraceSimulator(
            trace, cluster=cluster, elastic=True
        ).run()
        assert len(replayed.runs) == len(live_results)
        live_prints = {
            tuple(r.outcome.result.prints) for r in live_results
        }
        sim_prints = {
            tuple(r.outcome.result.prints) for r in replayed.runs
        }
        assert sim_prints == live_prints

    def test_replay_matches_serial_session(self, recorded):
        trace, _ = recorded
        cluster = small_cluster(num_nodes=2, node_memory_mb=2048)
        session = ElasticMLSession(cluster=cluster, sample_cap=64)
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        ref = session.run("LinregDS", args, adapt=False)
        replayed = TraceSimulator(
            trace, cluster=cluster, elastic=True
        ).run()
        for run in replayed.runs:
            assert run.outcome.result.prints == ref.prints
