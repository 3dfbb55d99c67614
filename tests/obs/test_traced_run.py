"""Integration tests: a traced session run produces telemetry consistent
with the result objects the stack already reports."""

import json

import pytest

from repro import ElasticMLSession, SessionConfig, Tracer
from repro.obs import NULL_TRACER, get_tracer
from repro.workloads import prepare_inputs, scenario


@pytest.fixture(scope="module")
def traced_linregcg():
    session = ElasticMLSession(sample_cap=64, trace=True)
    args = prepare_inputs(session.hdfs, "LinregCG", scenario("S", cols=100))
    return session.run("LinregCG", args)


def _span_names(spans):
    names = []
    for span in spans:
        names.append(span.name)
        names.extend(_span_names(span.children))
    return names


class TestTracedRun:
    def test_trace_attached_to_outcome(self, traced_linregcg):
        assert isinstance(traced_linregcg.trace, Tracer)
        assert traced_linregcg.trace.enabled

    def test_span_tree_has_run_phases(self, traced_linregcg):
        names = _span_names(traced_linregcg.trace.roots)
        assert "session.run" in names
        assert "compile" in names
        assert "optimize" in names
        assert "execute" in names
        assert "optimizer.optimize" in names
        assert any(n.startswith("block:") for n in names)

    def test_counters_match_execution_result(self, traced_linregcg):
        trace = traced_linregcg.trace
        result = traced_linregcg.result
        # recompile.dynamic counts plans actually regenerated at run
        # time: this run arrived planned (the optimizer cache planned
        # it when storing the decision), so only in-loop dynamic
        # recompilations count
        assert "runtime.generate_plans" not in _span_names(trace.roots)
        assert trace.counter("recompile.dynamic") == result.recompilations
        assert trace.counter("bufferpool.evictions") == result.evictions
        assert trace.counter("bufferpool.restores") == result.buffer_restores
        assert trace.counter("runtime.mr_jobs") == result.mr_jobs

    def test_am_startup_regeneration_is_counted_when_it_happens(self):
        """Without the optimizer cache nothing plans the program under
        the chosen configuration before the AM starts: one regeneration
        per generic block, plus MLogreg's in-loop recompilations."""
        session = ElasticMLSession(
            sample_cap=64, trace=True, config=SessionConfig(opt_cache=False)
        )
        args = prepare_inputs(session.hdfs, "MLogreg", scenario("S", cols=100))
        outcome = session.run("MLogreg", args)
        num_blocks = sum(1 for _ in outcome.compiled.last_level_blocks())
        assert outcome.result.recompilations > 0
        assert outcome.trace.counter("recompile.dynamic") == (
            num_blocks + outcome.result.recompilations
        )

    def test_counters_match_optimizer_stats(self, traced_linregcg):
        trace = traced_linregcg.trace
        stats = traced_linregcg.optimizer_result.stats
        # the session's cost.invocations also covers runtime adaptation,
        # so it is at least the optimizer's own count
        assert trace.counter("cost.invocations") >= stats.cost_invocations
        assert trace.counter("compile.block_compilations") >= (
            stats.block_compilations
        )
        assert trace.counter("optimizer.grid_points") > 0
        assert trace.counter("optimizer.runs") >= 1

    def test_required_counters_nonzero(self, traced_linregcg):
        trace = traced_linregcg.trace
        assert trace.counter("cost.invocations") > 0
        assert trace.counter("bufferpool.hits") > 0
        assert trace.counter("compile.block_compilations") > 0
        assert trace.counter("runtime.cp_instructions") > 0
        assert any(
            name.startswith("hdfs.bytes_read.") and value > 0
            for name, value in trace.counters.items()
        )

    def test_grid_point_events_recorded(self, traced_linregcg):
        trace = traced_linregcg.trace
        points = [
            e for e in trace.events if e["event"] == "optimizer.grid_point"
        ]
        assert len(points) == trace.counter("optimizer.grid_points")
        assert all(p["estimated_cost_s"] > 0 for p in points)

    def test_trace_json_export_round_trips(self, traced_linregcg):
        text = traced_linregcg.trace.to_json()
        data = json.loads(text)
        assert data["counters"]["bufferpool.hits"] > 0
        restored = Tracer.from_json(text)
        assert restored.counters == dict(traced_linregcg.trace.counters)

    def test_render_includes_phases_and_counters(self, traced_linregcg):
        text = traced_linregcg.trace.render()
        assert "session.run" in text
        assert "optimize" in text
        assert "cost.invocations" in text


class TestTracingModes:
    def test_untraced_run_collects_nothing(self):
        session = ElasticMLSession(sample_cap=64)
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        assert outcome.trace is None
        assert get_tracer() is NULL_TRACER

    def test_fresh_tracer_per_run(self):
        session = ElasticMLSession(sample_cap=64, trace=True)
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        first = session.run("LinregDS", args)
        second = session.run("LinregDS", args)
        assert first.trace is not second.trace

    def test_shared_tracer_accumulates(self):
        shared = Tracer()
        # opt_cache off: the second identical run must re-enumerate for
        # optimizer.runs to double (the cross-run cache would skip it)
        session = ElasticMLSession(
            sample_cap=64, trace=shared, config=SessionConfig(opt_cache=False)
        )
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        first = session.run("LinregDS", args)
        runs_after_one = shared.counter("optimizer.runs")
        second = session.run("LinregDS", args)
        assert first.trace is shared and second.trace is shared
        assert shared.counter("optimizer.runs") == 2 * runs_after_one

    def test_global_tracer_restored_after_traced_run(self):
        session = ElasticMLSession(sample_cap=64, trace=True)
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        session.run("LinregDS", args)
        assert get_tracer() is NULL_TRACER
