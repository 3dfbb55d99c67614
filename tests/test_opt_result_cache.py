"""Cross-run optimizer result cache + optimizer construction wiring.

The cache keys an optimization decision by everything it depends on
(script, args, read-input metadata, cluster, cost parameters, grid
options), so a repeated tenant skips enumeration while any relevant
change re-runs it.
"""

from dataclasses import replace

import pytest

from repro.api import ElasticMLSession, SessionConfig
from repro.optimizer import ResourceOptimizer
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
        # the master holds one decision: the new key replaced the old
        (_, master), = session.program_cache._programs.values()
        assert len(master.decisions) == 1

    def test_disabled_cache_always_enumerates(self):
        session = _session(config=SessionConfig(opt_cache=False))
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
        assert session.opt_cache.stores == 0


class TestMakeOptimizerDispatch:
    def test_default_is_serial(self):
        session = _session()
        opt = session.make_optimizer()
        assert type(opt) is ResourceOptimizer

    def test_parallel_false_override_wins(self):
        session = _session()
        opt = session.make_optimizer(parallel=False)
        assert type(opt) is ResourceOptimizer
