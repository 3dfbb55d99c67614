"""Seam tests: smaller behaviours across module boundaries that the
main suites do not pin down."""

import numpy as np
import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler import compile_program
from repro.optimizer import ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS
from repro.runtime.matrix import MatrixObject
from repro.tools.cli import main


class TestCLIWhatIf:
    def test_whatif_renders_heatmap(self, capsys):
        code = main([
            "whatif", "LinregCG",
            "--gen", "gx=1000000x100", "--gen", "gy=1000000x1",
            "-arg", "X=gx", "-arg", "Y=gy", "-arg", "B=out",
            "--cp", "1,20", "--mr", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cheapest cell" in out
        assert "CP" in out and "MR" in out


class TestOptimizerDeterminism:
    def test_same_inputs_same_choice(self):
        cluster = paper_cluster()
        meta = {"X": MatrixCharacteristics(10**6, 1000, 10**9)}
        source = "X = read($X)\nZ = t(X) %*% X\nprint(sum(Z))"
        choices = []
        for _ in range(2):
            compiled = compile_program(source, {"X": "X"}, meta)
            result = ResourceOptimizer(cluster).optimize(compiled)
            choices.append(
                (result.resource.cp_heap_mb, result.resource.max_mr_heap_mb,
                 round(result.cost, 6))
            )
        assert choices[0] == choices[1]

    def test_cost_ties_resolve_to_minimum(self):
        # tiny data: every configuration costs the same -> minimal wins
        cluster = paper_cluster()
        meta = {"X": MatrixCharacteristics(100, 10, 1000)}
        compiled = compile_program(
            "X = read($X)\nprint(sum(X))", {"X": "X"}, meta
        )
        result = ResourceOptimizer(cluster).optimize(compiled)
        assert result.resource.cp_heap_mb == cluster.min_heap_mb


class TestInterpreterSeams:
    def test_temps_cleaned_between_blocks(self):
        hdfs = SimulatedHDFS(sample_cap=32)
        obj = MatrixObject.from_sample(np.ones((8, 4)))
        hdfs.put("X", obj.mc, obj.data)
        rc = ResourceConfig(2048, 512)
        source = """
X = read($X)
a = sum(X)
if (a > 0) { b = a * 2 } else { b = 0 }
print(b)
"""
        compiled = compile_program(source, {"X": "X"}, hdfs.input_meta(), rc)
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        interp.run(compiled, rc)
        leftovers = [
            name for name in interp._frames[0] if name.startswith("_mVar")
        ]
        assert not leftovers

    def test_function_temps_do_not_leak_into_main(self):
        hdfs = SimulatedHDFS(sample_cap=32)
        obj = MatrixObject.from_sample(np.ones((8, 4)))
        hdfs.put("X", obj.mc, obj.data)
        rc = ResourceConfig(2048, 512)
        source = """
double_sum = function(Matrix[double] A) return (double s) {
  B = A * 2
  s = sum(B)
}
X = read($X)
print(double_sum(X))
"""
        compiled = compile_program(source, {"X": "X"}, hdfs.input_meta(), rc)
        interp = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32)
        result = interp.run(compiled, rc)
        assert result.prints == ["64.0"]
        assert "B" not in interp._frames[0]

    def test_scratch_paths_unique(self):
        interp = Interpreter(paper_cluster(), hdfs=SimulatedHDFS())
        interp._scratch_counter = 0
        paths = {interp._scratch_path("x") for _ in range(100)}
        assert len(paths) == 100

    def test_final_resource_reported(self):
        hdfs = SimulatedHDFS(sample_cap=32)
        hdfs.create_dense_input("X", 1000, 10)
        rc = ResourceConfig(1024, 512)
        compiled = compile_program(
            "X = read($X)\nprint(sum(X))", {"X": "X"}, hdfs.input_meta(), rc
        )
        result = Interpreter(paper_cluster(), hdfs=hdfs, sample_cap=32).run(
            compiled, rc
        )
        assert result.final_resource.cp_heap_mb == 1024


class TestSparkBreakdown:
    def test_breakdown_components(self):
        from repro.cluster.spark import SparkRuntime
        from repro.workloads import scenario

        result = SparkRuntime().run_l2svm(scenario("M"), "hybrid")
        assert set(result.breakdown) >= {"startup", "initial_scan",
                                         "iterations"}
        assert result.total_time == pytest.approx(
            sum(result.breakdown.values()), rel=0.01
        )

    def test_more_iterations_cost_more(self):
        from repro.cluster.spark import SparkRuntime
        from repro.workloads import scenario

        rt = SparkRuntime()
        five = rt.run_l2svm(scenario("L"), "hybrid", outer_iterations=5)
        ten = rt.run_l2svm(scenario("L"), "hybrid", outer_iterations=10)
        assert ten.total_time > five.total_time


class TestBufferPoolSeams:
    def test_retain_only_keeps_live(self):
        from repro.cost.constants import DEFAULT_PARAMETERS
        from repro.runtime.bufferpool import BufferPool

        pool = BufferPool(10**9, DEFAULT_PARAMETERS, lambda s, c: None)
        live = MatrixObject.from_sample(np.ones((4, 4)))
        dead = MatrixObject.from_sample(np.ones((4, 4)))
        pool.put(live)
        pool.put(dead)
        pool.retain_only({id(live)})
        assert pool.contains(live)
        assert not pool.contains(dead)
        assert not dead.in_memory


def _canonical(outcome):
    """Identity of one simulated run, independent of block-id stamps."""
    result, resource = outcome.result, outcome.resource
    return (
        result.total_time, result.mr_jobs, tuple(result.prints),
        resource.cp_heap_mb, resource.mr_heap_mb,
        tuple(sorted(resource.mr_heap_per_block.values())),
    )


class TestRunPipelineSeam:
    """Session, server and trace simulator are callers of one
    :class:`repro.pipeline.RunPipeline`; none has a run path of its own."""

    SEED = 3

    @pytest.fixture
    def executions(self, monkeypatch):
        """Counts every pass through the pipeline's execute stage."""
        from repro.pipeline import RunPipeline

        calls = []
        original = RunPipeline.execute_program

        def spy(self, compiled, resource, **kwargs):
            calls.append(type(self).__name__)
            return original(self, compiled, resource, **kwargs)

        monkeypatch.setattr(RunPipeline, "execute_program", spy)
        return calls

    def test_every_caller_executes_through_the_pipeline_once(
            self, executions):
        from repro import (
            ElasticMLServer,
            ElasticMLSession,
            ShardedElasticMLServer,
            Submission,
            small_cluster,
        )
        from repro.elastic import ElasticTrace, TraceEntry, TraceSimulator
        from repro.workloads import prepare_inputs, scenario

        cluster = small_cluster()
        session = ElasticMLSession(
            cluster=cluster, sample_cap=64, seed=self.SEED
        )
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        reference = _canonical(session.run("LinregDS", args))
        assert executions == ["ElasticMLSession"]

        submission = Submission(
            tenant="t", script="LinregDS", args=args, seed=self.SEED
        )
        server = ElasticMLServer(
            cluster=cluster, hdfs=session.hdfs, sample_cap=64
        )
        try:
            server.submit(submission)
            (served,) = server.drain()
        finally:
            server.shutdown()
        assert _canonical(served.outcome) == reference
        assert executions == ["ElasticMLSession", "ElasticMLServer"]

        simulated = TraceSimulator(
            ElasticTrace(entries=[TraceEntry(
                tenant="t", script="LinregDS", size="XS", cols=100,
                seed=self.SEED, adapt=True,
            )]),
            cluster=cluster,
        ).run()
        (run,) = simulated.runs
        assert _canonical(run.outcome) == reference
        assert executions[2:] == ["ElasticMLSession"]

        # the spy does not cross the process boundary: result only
        sharded = ShardedElasticMLServer(
            shards=2, cluster=cluster, hdfs=session.hdfs, sample_cap=64
        )
        try:
            sharded.submit(submission)
            (remote,) = sharded.drain()
        finally:
            sharded.shutdown()
        assert _canonical(remote.outcome) == reference

    def test_simulated_runs_feed_the_calibration_collector(self):
        from repro import SessionConfig
        from repro.elastic import ElasticTrace, TraceEntry, TraceSimulator

        simulator = TraceSimulator(
            ElasticTrace(entries=[
                TraceEntry(tenant="t", script="LinregDS")
            ]),
            config=SessionConfig(calibrate=True),
        )
        simulator.run()
        assert simulator.session.calibration.total_samples > 0

    def test_session_chaos_never_touches_the_shared_hdfs(self):
        """A chaos run's injector lives on a private HDFS view: a server
        built on ``session.hdfs`` reads through it, so an injector
        parked there would fire in other tenants' reads."""
        from repro import (
            ElasticMLServer,
            ElasticMLSession,
            FaultKind,
            FaultPlan,
            FaultSpec,
            Submission,
        )
        from repro.workloads import prepare_inputs, scenario

        assigned = []

        class WatchedHDFS(SimulatedHDFS):
            def __setattr__(self, name, value):
                if name == "injector" and value is not None:
                    assigned.append(value)
                super().__setattr__(name, value)

        session = ElasticMLSession(
            hdfs=WatchedHDFS(sample_cap=64), sample_cap=64
        )
        args = prepare_inputs(
            session.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        plan = FaultPlan.from_faults(
            FaultSpec(FaultKind.HDFS_SLOW_READ, at=0),
            FaultSpec(FaultKind.HDFS_SLOW_READ, at=1),
        )
        outcome = session.run("LinregDS", args, chaos=plan)
        assert assigned == []
        assert session.hdfs.injector is None
        # the view's injector still fired both scripted read faults
        assert outcome.chaos.injected == {"hdfs_slow_read": 2}
        assert outcome.chaos.retry_recovered == 1

        # same schedule, accounting and outputs as the served path,
        # which always ran against a view
        server = ElasticMLServer(
            cluster=session.cluster, hdfs=session.hdfs, sample_cap=64,
            collector=session.calibration,
        )
        try:
            server.submit(Submission(
                tenant="t", script="LinregDS", args=args, chaos=plan,
                seed=session.seed,
            ))
            (served,) = server.drain()
        finally:
            server.shutdown()
        assert assigned == []
        assert served.outcome.chaos == outcome.chaos
        assert _canonical(served.outcome) == _canonical(outcome)


class TestAdmissionSeam:
    """Server, trace simulator and the Fig 12 event loop are drivers of
    one :class:`repro.cluster.admission.AdmissionCore`; none allocates a
    container on its own."""

    @pytest.fixture
    def admissions(self, monkeypatch):
        """Tickets handed a container by ``AdmissionCore.grant``, and
        every ``try_allocate`` call made outside it."""
        from repro.cluster.admission import AdmissionCore
        from repro.cluster.yarn import ResourceManager

        granted, outside, depth = [], [], []
        grant = AdmissionCore.grant
        try_allocate = ResourceManager.try_allocate

        def grant_spy(core):
            inner = grant(core)
            while True:
                depth.append(core)
                try:
                    request, containers = next(inner)
                except StopIteration:
                    return
                finally:
                    depth.pop()
                granted.append(request.ticket)
                yield request, containers

        def allocate_spy(rm, memory_mb, tenant=None):
            if not depth:
                outside.append(memory_mb)
            return try_allocate(rm, memory_mb, tenant=tenant)

        monkeypatch.setattr(AdmissionCore, "grant", grant_spy)
        monkeypatch.setattr(ResourceManager, "try_allocate", allocate_spy)
        return granted, outside

    def test_every_driver_is_granted_by_the_core_once(self, admissions):
        from repro import ElasticMLServer, Submission, small_cluster
        from repro.cluster.events import simulate_throughput
        from repro.elastic import ElasticTrace, TraceEntry, TraceSimulator
        from repro.workloads import prepare_inputs, scenario

        granted, outside = admissions
        cluster = small_cluster()

        server = ElasticMLServer(cluster=cluster, sample_cap=64)
        args = prepare_inputs(
            server.hdfs, "LinregDS", scenario("XS", cols=100)
        )
        try:
            ticket = server.submit(
                Submission(tenant="t", script="LinregDS", args=args)
            )
            (served,) = server.drain()
        finally:
            server.shutdown()
        assert served.ok
        assert granted == [ticket]

        for elastic in (False, True):
            del granted[:]
            simulated = TraceSimulator(
                ElasticTrace(entries=[
                    TraceEntry(tenant="t", script="LinregDS")
                ]),
                cluster=cluster, elastic=elastic,
            ).run()
            assert len(simulated.runs) == 1
            assert len(granted) == 1

        del granted[:]
        outcome = simulate_throughput(cluster, 3, 2, 10.0, 4096)
        assert outcome.total_apps == 6
        # one grant per application: three users, two rounds each
        assert sorted(granted) == [0, 0, 1, 1, 2, 2]

        assert outside == []


class TestHandoutSeam:
    """A warm request — served, or a session's repeat run — is handed a
    shell of the frozen master and the plans of the decision kept on
    it: it copies no DAG and generates no plan."""

    SEED = 3

    @pytest.fixture
    def planning(self, monkeypatch):
        """Call counts of the functions that write a DAG or generate a
        plan, by name."""
        import repro.api
        from repro.compiler import pipeline as P
        from repro.compiler import statement_blocks as SB

        calls = {}

        def spy(module, name, label=None):
            original = getattr(module, name)
            label = label or name

            def counted(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(P, "select_operators")
        spy(P, "generate_block_plan")
        spy(SB, "own_dag")
        # compile_program's initial plans and Interpreter.run's
        # regeneration resolve the name in the module at call time; the
        # optimizer cache bound its own at import
        spy(P, "compile_plans", "pipeline.compile_plans")
        spy(repro.api, "compile_plans", "optcache.compile_plans")
        return calls

    def test_warm_hit_writes_no_dag_and_generates_no_plan(self, planning):
        from repro import ElasticMLServer, Submission
        from repro.workloads import prepare_inputs, scenario

        server = ElasticMLServer(sample_cap=64)
        args = prepare_inputs(
            server.hdfs, "LinregCG", scenario("XS", cols=100)
        )
        submission = Submission(
            tenant="t", script="LinregCG", args=args, seed=self.SEED
        )
        try:
            server.submit(submission)
            (cold,) = server.drain()
            # compile_program planned the master, the store planned the
            # handout under the winner; the AM did not replan it
            assert planning["pipeline.compile_plans"] == 1
            assert planning["optcache.compile_plans"] == 1
            planning.clear()
            server.submit(submission)
            _, warm = server.drain()
        finally:
            server.shutdown()
        assert warm.outcome.optimizer_result.from_cache
        assert planning == {}
        assert _canonical(warm.outcome) == _canonical(cold.outcome)
        # same plan objects, not equal ones
        assert [
            block.plan for block in warm.outcome.compiled.last_level_blocks()
        ] == [
            block.plan for block in cold.outcome.compiled.last_level_blocks()
        ]

    def test_a_sessions_second_run_writes_no_dag_and_generates_no_plan(
            self, planning):
        """A session hands out masters as the server does, so its
        second run of a program is a warm request."""
        from repro import ElasticMLSession
        from repro.workloads import prepare_inputs, scenario

        session = ElasticMLSession(sample_cap=64, seed=self.SEED)
        args = prepare_inputs(
            session.hdfs, "LinregCG", scenario("XS", cols=100)
        )
        first = session.run("LinregCG", args)
        planning.clear()
        second = session.run("LinregCG", args)
        assert second.optimizer_result.from_cache
        assert planning == {}
        assert _canonical(second) == _canonical(first)


class TestReplaySeam:
    """A repeat request of a program with unknown sizes looks its
    dynamic recompilations and re-optimizations up in its master's
    replay tree: none of the functions that derive them runs."""

    def test_third_submission_of_mlogreg_derives_nothing(self, monkeypatch):
        from repro import ElasticMLServer, Submission
        from repro.compiler import statement_blocks as SB
        from repro.compiler.size_propagation import Propagator
        from repro.runtime import interpreter
        from repro.workloads import prepare_inputs, scenario

        calls = {}

        def spy(owner, name, counts=lambda *args: True):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                if counts(*args):
                    calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(ResourceOptimizer, "optimize")
        spy(interpreter, "recompile_block")
        spy(Propagator, "propagate_block")
        # own_dag is called by every writer; it copies a shared DAG only
        spy(SB, "own_dag", counts=lambda holder: holder.dag_shared)

        server = ElasticMLServer(sample_cap=64, max_workers=1)
        args = prepare_inputs(server.hdfs, "MLogreg", scenario("M"))
        submission = Submission(tenant="t", script="MLogreg", args=args, seed=3)
        try:
            for _ in range(2):
                server.submit(submission)
            first, second = server.drain()
            # seen once, then recorded: both runs derived everything
            # (after one initial optimization: R* and R*|rc, twice each)
            assert calls["optimize"] == 1 + 2 * (2 * 2)
            assert calls["recompile_block"] == 2 * 2
            assert first.outcome.result.recompilations == 2
            calls.clear()
            server.submit(submission)
            third = server.drain()[2]
            stats = server.stats()
        finally:
            server.shutdown()
        assert calls == {}
        assert third.outcome.result.recompilations == 2
        assert third.outcome.migrations == first.outcome.migrations == 1
        assert _canonical(third.outcome) == _canonical(first.outcome)
        assert _canonical(second.outcome) == _canonical(first.outcome)
        # two recompilations; two re-optimizations of two edges each
        assert (stats["replay.hits"], stats["replay.misses"]) == (6, 6)
