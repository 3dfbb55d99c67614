"""Tests for the high-level ElasticMLSession API."""

import dataclasses

import pytest

from repro import (
    ElasticMLSession,
    OptimizerOptions,
    ResourceConfig,
    SessionConfig,
    small_cluster,
)
from repro.workloads import prepare_inputs, scenario


@pytest.fixture
def session():
    return ElasticMLSession(sample_cap=64)


class TestSessionRun:
    def test_run_registered_name_end_to_end(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        assert outcome.total_time > 0
        assert outcome.resource is not None
        assert outcome.optimizer_result is not None
        assert outcome.estimated_cost == outcome.optimizer_result.cost
        assert any("R2=" in p for p in outcome.prints)

    def test_run_with_explicit_resource_skips_optimizer(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run(
            "LinregDS", args, resource=ResourceConfig(2048, 512)
        )
        assert outcome.optimizer_result is None
        assert outcome.estimated_cost is None
        assert outcome.resource.cp_heap_mb == 2048

    def test_run_optimize_false_uses_default_resource(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args, optimize=False)
        assert outcome.optimizer_result is None
        assert outcome.total_time > 0

    def test_run_inline_source(self, session):
        session.hdfs.create_dense_input("X", 1000, 10)
        outcome = session.run("X = read($X)\nprint(sum(X))", {"X": "X"})
        assert len(outcome.prints) == 1

    def test_run_keyword_only_parameters(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        with pytest.raises(TypeError):
            session.run("LinregDS", args, ResourceConfig(2048, 512))

    def test_adaptation_toggle(self, session):
        args = prepare_inputs(
            session.hdfs, "MLogreg", scenario("XS", cols=100)
        )
        outcome = session.run("MLogreg", args, adapt=False)
        assert outcome.migrations == 0

    def test_custom_cluster(self):
        session = ElasticMLSession(cluster=small_cluster(), sample_cap=64)
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        assert outcome.resource.cp_heap_mb <= session.cluster.max_heap_mb


class TestRunOutcome:
    def test_outcome_is_frozen(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.resource = ResourceConfig(1024, 512)

    def test_trace_none_without_tracing(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        assert outcome.trace is None


class TestRemovedEntryPoints:
    """run_script()/run_registered() (deprecated in 1.1) are gone."""

    def test_run_script_removed(self, session):
        assert not hasattr(session, "run_script")

    def test_run_registered_removed(self, session):
        assert not hasattr(session, "run_registered")

    def test_run_subsumes_both(self, session):
        session.hdfs.create_dense_input("X", 1000, 10)
        inline = session.run("X = read($X)\nprint(sum(X))", {"X": "X"})
        assert len(inline.prints) == 1
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        registered = session.run("LinregDS", args)
        assert registered.total_time > 0


class TestSessionConfig:
    def test_config_object_drives_knobs(self):
        config = SessionConfig(grid_cp="equi", grid_m=5)
        session = ElasticMLSession(config=config, sample_cap=64)
        assert session.config.grid_cp == "equi"
        assert session.config.grid_m == 5
        opts = session.optimizer_options
        assert (opts.grid_cp, opts.m) == ("equi", 5)

    def test_vector_costing_knob_is_gone(self):
        # the scalar walk is the only MR-grid costing: no knob selects it
        with pytest.raises(TypeError):
            SessionConfig(enable_vector_costing=False)
        with pytest.raises(TypeError):
            OptimizerOptions(enable_vector_costing=False)

    def test_cli_rejects_the_vector_costing_flag(self, capsys):
        from repro.tools.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["optimize", "LinregDS", "--no-vector-costing"])
        assert exit_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SessionConfig().grid_m = 3

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(TypeError):
            ElasticMLSession(grid_q="nope")
        # the 1.4 loose-kwarg shim is gone: knobs go through config
        with pytest.raises(TypeError):
            ElasticMLSession(grid_m=5)

    def test_opt_cache_disabled_via_config(self):
        session = ElasticMLSession(
            config=SessionConfig(opt_cache=False), sample_cap=64
        )
        assert session.opt_cache is None


class TestOptimizerOptions:
    def test_session_defaults_configurable(self):
        session = ElasticMLSession(
            config=SessionConfig(grid_cp="equi", grid_m=5), sample_cap=64
        )
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        compiled = session.compile_registered("LinregDS", args)
        result = session.optimize(compiled)
        assert result.stats.cp_points == 5

    def test_options_object_replaces_defaults(self, session):
        opts = OptimizerOptions(grid_cp="equi", grid_mr="equi", m=4)
        optimizer = session.make_optimizer(opts)
        assert optimizer.options == opts

    def test_keyword_overrides_patch_options(self, session):
        optimizer = session.make_optimizer(m=7)
        assert optimizer.options.m == 7
        assert optimizer.options.grid_cp == session.config.grid_cp

    def test_options_are_frozen(self):
        opts = OptimizerOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.m = 99


class TestEstimateCost:
    def test_estimate_cost_positive(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregCG", scenario("S", cols=100)
        )
        compiled = session.compile_registered("LinregCG", args)
        cost = session.estimate_cost(compiled, ResourceConfig(2048, 512))
        assert cost > 0

    def test_estimate_cost_has_no_side_effect(self, session):
        from repro.compiler.pipeline import plan_holders

        args = prepare_inputs(
            session.hdfs, "LinregCG", scenario("S", cols=100)
        )
        compiled = session.compile_registered(
            "LinregCG", args, ResourceConfig(4096, 1024)
        )
        resource_before = compiled.resource
        compilations_before = compiled.stats.block_compilations
        plans_before = [h.plan for h in plan_holders(compiled)]
        session.estimate_cost(compiled, ResourceConfig(512, 512))
        assert compiled.resource == resource_before
        assert compiled.planned
        assert compiled.stats.block_compilations == compilations_before
        assert [id(h.plan) for h in plan_holders(compiled)] == [
            id(p) for p in plans_before
        ]

    def test_estimate_cost_varies_with_resource(self, session):
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("S", cols=100)
        )
        compiled = session.compile_registered("LinregDS", args)
        small = session.estimate_cost(compiled, ResourceConfig(512, 512))
        large = session.estimate_cost(compiled, ResourceConfig(8192, 2048))
        assert small != large


class TestCalibration:
    """Session-level calibration loop: collect -> fit -> apply."""

    def _drifted_session(self):
        from repro.cost.calibrate import drifted_parameters
        from repro.cost.constants import DEFAULT_PARAMETERS

        return ElasticMLSession(
            params=drifted_parameters(42),
            model_params=DEFAULT_PARAMETERS,
            trace=True,
            sample_cap=64,
            config=SessionConfig(calibrate=True),
        )

    def test_belief_separates_from_truth(self):
        session = self._drifted_session()
        assert session.model_params != session.params
        # without overrides, belief == truth (the pre-calibration repo)
        plain = ElasticMLSession(sample_cap=64)
        assert plain.model_params == plain.params
        assert plain.calibration is None

    def test_traced_run_collects_samples(self):
        session = self._drifted_session()
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        outcome = session.run("LinregDS", args)
        assert session.calibration.total_samples > 0
        assert outcome.trace.counter("calib.samples") > 0

    def test_fit_and_apply_updates_belief(self):
        session = self._drifted_session()
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        session.run("LinregDS", args)
        belief_before = session.model_params
        profile = session.fit_calibration(min_samples=1, apply=True)
        assert profile.fitted
        assert session.model_params == profile.parameters()
        assert session.model_params != belief_before
        # the fit recovers the drifted truth for the heavily-sampled
        # compute component
        assert session.model_params.cp_flops == pytest.approx(
            session.params.cp_flops, rel=1e-6
        )
        assert session.tracer.counter("calib.fit_runs") == 1

    def test_fit_requires_calibrate(self):
        session = ElasticMLSession(sample_cap=64)
        with pytest.raises(RuntimeError):
            session.fit_calibration()

    def test_profile_roundtrips_through_config(self, tmp_path):
        session = self._drifted_session()
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        session.run("LinregDS", args)
        profile = session.fit_calibration(min_samples=1)
        path = str(tmp_path / "profile.json")
        profile.save(path)

        loaded = ElasticMLSession(
            sample_cap=64,
            config=SessionConfig(calibration_profile=path),
        )
        assert loaded.model_params == profile.parameters()
        assert loaded.calibration_profile == profile

    def test_mismatched_profile_rejected(self, tmp_path):
        session = self._drifted_session()
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        session.run("LinregDS", args)
        profile = session.fit_calibration(min_samples=1)
        path = str(tmp_path / "profile.json")
        profile.save(path)
        with pytest.raises(ValueError):
            ElasticMLSession(
                cluster=small_cluster(),
                config=SessionConfig(calibration_profile=path),
            )
