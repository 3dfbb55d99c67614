"""Cross-run optimizer result cache + parallel-optimizer API wiring.

The cache keys an optimization decision by everything it depends on
(script, args, read-input metadata, cluster, cost parameters, grid
options), so a repeated tenant skips enumeration while any relevant
change re-runs it.
"""

from dataclasses import replace

import pytest

from repro.api import ElasticMLSession, OptimizerResultCache, SessionConfig
from repro.optimizer import ParallelResourceOptimizer, ResourceOptimizer
from repro.workloads import prepare_inputs, scenario


def _session(**kwargs):
    kwargs.setdefault("sample_cap", 64)
    return ElasticMLSession(**kwargs)


def _linreg_args(session, cols=100):
    return prepare_inputs(
        session.hdfs, "LinregDS", scenario("XS", cols=cols)
    )


class TestCrossRunCache:
    def test_second_run_hits_and_skips_enumeration(self):
        session = _session(trace=True)
        args = _linreg_args(session)
        first = session.run("LinregDS", args)
        assert first.optimizer_result.from_cache is False
        assert session.tracer.counter("optcache.misses") == 1
        assert session.tracer.counter("optcache.stores") == 1
        second = session.run("LinregDS", args)
        assert second.optimizer_result.from_cache is True
        assert session.tracer.counter("optcache.hits") == 1
        # the trace of the cached run contains no enumeration at all
        assert session.tracer.counter("optimizer.runs") == 0
        assert second.resource == first.resource
        assert second.optimizer_result.cost == first.optimizer_result.cost

    def test_cached_run_executes_identically(self):
        session = _session()
        args = _linreg_args(session)
        first = session.run("LinregDS", args)
        second = session.run("LinregDS", args)
        assert second.total_time == pytest.approx(first.total_time)
        assert second.result.mr_jobs == first.result.mr_jobs

    def test_written_output_does_not_invalidate(self):
        """The first run writes $B to HDFS; the signature keys on the
        program's *reads*, so the output's appearance must not miss."""
        session = _session()
        args = _linreg_args(session)
        session.run("LinregDS", args)
        session.run("LinregDS", args)
        assert session.opt_cache.hits == 1

    def test_input_metadata_change_invalidates(self):
        session = _session()
        args = _linreg_args(session)
        session.run("LinregDS", args)
        # same paths, different shapes: the decision must be re-derived
        session.hdfs.create_dense_input(args["X"], 500, 100, seed=11)
        session.hdfs.create_dense_input(args["Y"], 500, 1, seed=12)
        session.run("LinregDS", args)
        assert session.opt_cache.hits == 0
        assert session.opt_cache.misses == 2

    def test_option_change_invalidates(self):
        session = _session()
        args = _linreg_args(session)
        session.run("LinregDS", args)
        session.config = replace(session.config, grid_m=5)
        session.run("LinregDS", args)
        assert session.opt_cache.hits == 0
        assert session.opt_cache.misses == 2

    def test_parallel_knobs_do_not_invalidate(self):
        """The pool chooses what the serial loop chooses, so
        parallelism is excluded from the decision signature."""
        session = _session()
        args = _linreg_args(session)
        session.run("LinregDS", args)
        session.config = replace(
            session.config, opt_workers=2, auto_serial_points=0
        )
        outcome = session.run("LinregDS", args)
        assert outcome.optimizer_result.from_cache is True

    def test_disabled_cache_always_enumerates(self):
        session = _session(opt_cache=None)
        args = _linreg_args(session)
        first = session.run("LinregDS", args)
        second = session.run("LinregDS", args)
        assert first.optimizer_result.from_cache is False
        assert second.optimizer_result.from_cache is False

    def test_static_resource_bypasses_cache(self):
        from repro.cluster import ResourceConfig

        session = _session()
        args = _linreg_args(session)
        session.run("LinregDS", args, resource=ResourceConfig(2048, 1024))
        assert len(session.opt_cache) == 0

    def test_lru_bound_evicts_oldest(self):
        session = _session(opt_cache=OptimizerResultCache(max_entries=1))
        args = _linreg_args(session)
        session.run("LinregDS", args)
        cg_args = prepare_inputs(
            session.hdfs, "LinregCG", scenario("XS", cols=100)
        )
        session.run("LinregCG", cg_args)
        assert len(session.opt_cache) == 1
        session.run("LinregDS", args)  # evicted: enumerates again
        assert session.opt_cache.hits == 0


class TestMakeOptimizerDispatch:
    def test_default_is_serial(self):
        session = _session()
        opt = session.make_optimizer()
        assert type(opt) is ResourceOptimizer

    def test_opt_workers_selects_parallel(self):
        session = _session(
            config=SessionConfig(opt_workers=3, auto_serial_points=17)
        )
        opt = session.make_optimizer()
        assert type(opt) is ParallelResourceOptimizer
        assert opt.num_workers == 3
        assert opt.auto_serial_points == 17

    def test_num_workers_override_implies_parallel(self):
        session = _session()
        opt = session.make_optimizer(num_workers=2)
        assert type(opt) is ParallelResourceOptimizer
        assert opt.num_workers == 2

    def test_parallel_false_override_wins(self):
        session = _session(config=SessionConfig(opt_workers=4))
        opt = session.make_optimizer(parallel=False)
        assert type(opt) is ResourceOptimizer

    def test_parallel_session_run_populates_counters(self):
        session = _session(
            config=SessionConfig(opt_workers=2, auto_serial_points=0),
            trace=True,
        )
        args = _linreg_args(session)
        outcome = session.run("LinregDS", args)
        assert outcome.optimizer_result.backend == "process"
        assert session.tracer.counter("optpar.tasks") > 0
        assert session.tracer.gauges["optpar.workers"] == 2

    def test_small_grid_auto_falls_back_to_serial(self):
        """Session default auto-serial policy: the XS LinregDS grid is
        far below the threshold, so the process backend never spawns."""
        session = _session(config=SessionConfig(opt_workers=2), trace=True)
        args = _linreg_args(session)
        outcome = session.run("LinregDS", args)
        assert outcome.optimizer_result.backend == "serial"
        assert outcome.optimizer_result.tasks_dispatched == 0
        assert session.tracer.counter("optpar.auto_serial") == 1
        assert session.tracer.counter("optpar.tasks") == 0

    def test_auto_serial_matches_process_decision(self):
        config = SessionConfig(opt_workers=2)
        serial = _session(config=config)
        forced = _session(config=replace(config, auto_serial_points=0))
        a1 = _linreg_args(serial)
        a2 = _linreg_args(forced)
        r1 = serial.run("LinregDS", a1)
        r2 = forced.run("LinregDS", a2)
        assert r1.resource == r2.resource
        assert r1.optimizer_result.cost == r2.optimizer_result.cost
