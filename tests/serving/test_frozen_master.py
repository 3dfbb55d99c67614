"""The program cache's structural sharing: a stored master is never
written again, copy-on-write DAGs are private to their run, and a run on
a handout is the run on a deep copy it replaced."""

import copy
import gc
import sys
import threading
import weakref

import pytest

from repro import (
    ElasticMLServer,
    ElasticMLSession,
    FaultKind,
    FaultPlan,
    FaultSpec,
    SessionConfig,
    Submission,
)
from repro.cluster import ResourceConfig
from repro.compiler import hops as H
from repro.compiler import statement_blocks as SB
from repro.compiler.pipeline import compile_program, plan_holders
from repro.compiler.runtime_prog import MRJobInstruction
from repro.pipeline import RunPipeline
from repro.runtime import SimulatedHDFS
from repro.scripts import SCRIPTS, load_script
from repro.workloads import prepare_inputs, scenario

SEED = 5


def _canonical(result, resource):
    """The benchmark harness's identity of one simulated run."""
    return (
        result.total_time, result.mr_jobs, tuple(result.prints),
        resource.cp_heap_mb, resource.mr_heap_mb,
        tuple(sorted(resource.mr_heap_per_block.values())),
    )


def _digest(compiled):
    """Everything a run could write on a program, by value — except the
    plans, which are compared by identity."""
    digest = [compiled.resource, compiled.planned, compiled.plan_cache]
    for holder in plan_holders(compiled):
        generic = isinstance(holder, SB.GenericBlock)
        roots = holder.hop_roots if generic else [holder.hop_root]
        digest.append((
            id(holder.plan), getattr(holder, "requires_recompile", None),
            holder.dag_shared,
        ))
        for hop in H.iter_dag(roots):
            digest.append((
                hop.hop_id, hop.mc.rows, hop.mc.cols, hop.mc.nnz,
                hop.mem_estimate, hop.output_mem, hop.exec_type,
                hop.method, hop.const_value,
                tuple(inp.hop_id for inp in hop.inputs),
            ))
    return digest


class TestMasterStaysFrozen:
    def test_served_mix_leaves_every_master_untouched(self):
        """Dynamic recompilation, adaptation with a CP migration, an
        explicit configuration and an AM-denial fallback all write HOP
        DAGs — none of them the master's."""
        server = ElasticMLServer(sample_cap=64, max_workers=2)
        try:
            mix = {
                "LinregCG": prepare_inputs(
                    server.hdfs, "LinregCG", scenario("XS", cols=100)
                ),
                "MLogreg": prepare_inputs(
                    server.hdfs, "MLogreg", scenario("S")
                ),
            }
            for script, args in mix.items():  # fills the program cache
                server.compile(load_script(script), args)
            masters = [
                master for _, master in server.program_cache._programs.values()
            ]
            assert len(masters) == 2
            before = [_digest(master) for master in masters]

            denial = FaultPlan.from_faults(
                FaultSpec(FaultKind.ALLOCATION_DENIED, at=0)
            )
            for script, args in mix.items():
                for extra in (
                    {}, {},  # optimizer-cache miss, then hit
                    {"resource": ResourceConfig(2048.0, 1024.0)},
                    {"chaos": denial},
                ):
                    server.submit(Submission(
                        tenant="t", script=script, args=args, seed=SEED,
                        **extra,
                    ))
            results = server.drain()
        finally:
            server.shutdown()
        assert all(r.ok for r in results), [r.error for r in results]
        mlogreg = [r.outcome for r in results[4:]]
        assert all(o.result.recompilations > 0 for o in mlogreg)
        assert any(o.migrations > 0 for o in mlogreg)
        assert mlogreg[3].chaos.fallbacks == 1
        assert server.program_cache.hits == 8  # only the two compiles missed

        assert [_digest(master) for master in masters] == before


def _mr_steps(compiled):
    """Every MR step's characteristics on a master's plans and on the
    plans of its stored decisions, by value."""
    plans = [holder.plan for holder in plan_holders(compiled)]
    for entry in compiled.decisions.values():
        plans.extend(entry["plans"])
    return [
        (step.opcode, repr(step.out_mc), [repr(mc) for mc in step.in_mcs])
        for plan in plans if plan is not None
        for ins in plan.instructions if isinstance(ins, MRJobInstruction)
        for step in ins.steps
    ]


class TestRunsDoNotWritePlans:
    def test_mr_steps_keep_their_compiled_characteristics(self):
        """A sparse PCA's MR steps measure other characteristics than
        compiled; the run keeps them to itself, so the decision plans
        the next tenant installs cost what they did before."""
        session = ElasticMLSession(sample_cap=64, seed=7)
        args = prepare_inputs(
            session.hdfs, "PCA", scenario("S", cols=1000, sparse=True)
        )
        source = load_script("PCA")
        compiled = session.compile(source, args)
        resource = session.optimize_cached(source, args, compiled).resource
        ((_, master),) = session.program_cache._programs.values()
        before = _mr_steps(master)
        assert before  # the decision runs MR jobs
        result = session.execute_program(compiled, resource, seed=7)
        assert result.mr_jobs > 0
        assert _mr_steps(master) == before

    def test_a_later_hit_costs_what_an_earlier_one_did(self):
        """The steps' write fed the cost model: a later tenant whose
        optimization hits the stored decision costs its plans as an
        earlier one did, before the run."""
        from repro.cost.model import CostModel

        session = ElasticMLSession(sample_cap=64, seed=7)
        args = prepare_inputs(
            session.hdfs, "PCA", scenario("S", cols=1000, sparse=True)
        )
        source = load_script("PCA")
        compiled = session.compile(source, args)
        resource = session.optimize_cached(source, args, compiled).resource

        def cost_of_a_hit():
            handout = session.compile(source, args)
            assert session.optimize_cached(source, args, handout).from_cache
            return CostModel(session.cluster).estimate_program(
                handout, resource
            )

        before = cost_of_a_hit()
        session.execute_program(compiled, resource, seed=7)
        assert cost_of_a_hit() == before


class TestDecisionLivesOnTheMaster:
    def test_an_evicted_masters_decision_dies_with_it(self):
        """With room for one master, serving A, B, A evicts A's first
        master and the decision on it: the second A enumerates again,
        to the same result."""
        server = ElasticMLServer(sample_cap=64, max_workers=1)
        server.program_cache.max_programs = 1
        try:
            a, b = (
                (script, prepare_inputs(
                    server.hdfs, script, scenario("XS", cols=100)
                ))
                for script in ("LinregDS", "LinregCG")
            )
            outcomes, first_master = [], None
            for script, args in (a, b, a):
                server.submit(Submission(
                    tenant="t", script=script, args=args, seed=SEED,
                ))
                served = server.drain()[-1]
                assert served.ok, served.error
                outcomes.append(served.outcome)
                if first_master is None:
                    (_, master), = server.program_cache._programs.values()
                    first_master = weakref.ref(master)
                    del master
        finally:
            server.shutdown()
        first, _, third = outcomes
        assert not third.optimizer_result.from_cache
        assert (server.opt_cache.hits, server.opt_cache.misses) == (0, 3)
        assert _canonical(third.result, third.resource) == _canonical(
            first.result, first.resource
        )
        gc.collect()
        assert first_master() is None


class TestCopyOnWriteIsPrivate:
    ROUNDS = 50
    #: MR-heavy vs all-CP plans of the same DAGs: operator selection
    #: annotates the hops differently under the two (and neither is the
    #: master's own 512/512, under which a handout arrives planned)
    RESOURCES = (ResourceConfig(1024.0, 512.0), ResourceConfig(16384.0, 2048.0))

    def test_two_threads_on_one_master_match_private_sessions(self):
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, "LinregCG", scenario("M"))
        references = []
        for resource in self.RESOURCES:
            session = ElasticMLSession(hdfs=hdfs, sample_cap=64, seed=SEED)
            outcome = session.run("LinregCG", args, resource=resource)
            references.append(_canonical(outcome.result, outcome.resource))
        assert references[0] != references[1]

        pipeline = RunPipeline(SessionConfig(), hdfs=hdfs, sample_cap=64)
        source = load_script("LinregCG")
        barrier = threading.Barrier(2)
        seen = [[], []]
        errors = []

        def tenant(index):
            try:
                for _ in range(self.ROUNDS):
                    compiled = pipeline.compile(source, args)
                    barrier.wait(timeout=60)
                    result = pipeline.execute_program(
                        compiled, self.RESOURCES[index], seed=SEED
                    )
                    seen[index].append(
                        _canonical(result, result.final_resource)
                    )
            except Exception as exc:  # surfaced below, with the thread's name
                barrier.abort()
                errors.append((index, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=tenant, args=(i,)) for i in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for index in (0, 1):
            assert seen[index] == [references[index]] * self.ROUNDS


def _outputs(hdfs, inputs):
    return {
        path: (f.mc.rows, f.mc.cols, f.mc.nnz, f.data.tobytes())
        for path, f in hdfs.files.items() if path not in inputs
    }


def _optimize_and_run(compiled, script, scn):
    """One whole run of ``compiled`` on a fresh file system; returns
    (canonical tuple, output matrices)."""
    hdfs = SimulatedHDFS(sample_cap=64)
    prepare_inputs(hdfs, script, scn)
    inputs = set(hdfs.files)
    pipeline = RunPipeline(
        SessionConfig(opt_cache=False), hdfs=hdfs, sample_cap=64
    )
    resource = pipeline.make_optimizer().optimize(compiled).resource
    result = pipeline.execute_program(compiled, resource, seed=SEED)
    return _canonical(result, result.final_resource), _outputs(hdfs, inputs)


class TestHandoutEqualsDeepCopy:
    """``copy.deepcopy(master)`` — what the program cache used to hand
    out — lives on here as the reference implementation."""

    @pytest.mark.parametrize("size", ["XS", "S"])
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_run_on_handout_equals_run_on_deep_copy(self, script, size):
        scn = scenario(size, cols=100)
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, script, scn)
        master = compile_program(load_script(script), args, hdfs.input_meta())
        frozen = _digest(master)

        reference = _optimize_and_run(copy.deepcopy(master), script, scn)
        assert _optimize_and_run(master.handout(), script, scn) == reference
        assert reference[1], "the script wrote no output matrix"
        assert _digest(master) == frozen
