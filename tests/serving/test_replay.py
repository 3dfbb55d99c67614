"""Run replay (DESIGN.md §15): a repeat request installs the dynamic
recompilations and runtime re-optimizations a run of the same master
recorded — and every simulated result, down to the final plans'
instruction text, is what a fresh session (which has no tree) computes.
"""

import gc
import pickle
import re
import sys
import weakref
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
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
from repro.compiler import replay
from repro.compiler import statement_blocks as SB
from repro.compiler.pipeline import plan_holders
from repro.cost.calibrate import (
    CalibrationProfile,
    cluster_signature,
    drifted_parameters,
)
from repro.pipeline import RunPipeline
from repro.runtime import SimulatedHDFS
from repro.runtime.matrix import MatrixObject
from repro.scripts import SCRIPTS, load_script
from repro.serving import ProgramCache
from repro.workloads import prepare_inputs, scenario

from tests.serving.test_frozen_master import _digest

SEED = 20150531


def _plan_text(compiled):
    """Every final plan's instruction text, ``requires_recompile`` and
    ``known_iterations``, with the per-process hop-id stamps of the
    temporaries renumbered in order of appearance."""
    lines = []
    for holder in plan_holders(compiled):
        lines.append(
            f"{type(holder).__name__} "
            f"recompile={getattr(holder, 'requires_recompile', None)}"
        )
        for ins in holder.plan.instructions:
            lines.append(str(ins))
            for step in getattr(ins, "steps", ()):
                lines.append(
                    f"  [{step.phase.value}] {step.method} {step.opcode} "
                    f"{[str(op) for op in step.inputs]} -> {step.output}"
                )
    for block in compiled.all_blocks():
        if isinstance(block, SB.ForBlock):
            lines.append(f"for: {block.known_iterations} iterations")
    stamps = {}
    return re.sub(
        r"_mVar(\d+)",
        lambda m: stamps.setdefault(m.group(1), f"_mVar#{len(stamps)}"),
        "\n".join(lines),
    )


def _identity(outcome):
    """Everything simulated about one run, by value; block ids are
    per-process stamps, so per-block heaps compare as sorted values."""
    result, resource = outcome.result, outcome.resource
    return (
        result.total_time, sorted(result.breakdown.items()), result.mr_jobs,
        tuple(result.prints), result.evictions, result.buffer_restores,
        result.migrations, result.recompilations,
        resource.cp_heap_mb, resource.mr_heap_mb,
        tuple(sorted(resource.mr_heap_per_block.values())),
        _plan_text(outcome.compiled),
    )


def _serve(server, script, args, **options):
    ticket = server.submit(Submission(
        tenant="t", script=script, args=args, seed=SEED, **options
    ))
    result = server.poll(ticket, timeout=300)
    assert result is not None and result.ok, result and result.error
    return result.outcome


def _replay_stats(server):
    stats = server.stats()
    return stats["replay.hits"], stats["replay.misses"], stats["replay.nodes"]


def _nodes(root):
    """Every node of the tree under ``root``, the root first."""
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(node.children.values())
    return found


# -- (a) oracle ---------------------------------------------------------------

class TestReplayEqualsFreshSession:
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_four_submissions_equal_the_session_run(self, script):
        """First sight, the recording run and two replays, for every
        size, shape and sparsity the cold benchmark serves."""
        server = ElasticMLServer(sample_cap=64, max_workers=1)
        replayed = 0
        try:
            for size in ("XS", "S", "M", "L"):
                for cols, sparse in ((1000, False), (1000, True), (100, False)):
                    scn = scenario(size, cols=cols, sparse=sparse)
                    session = ElasticMLSession(sample_cap=64, seed=SEED)
                    reference = _identity(session.run(script, prepare_inputs(
                        session.hdfs, script, scn, seed=SEED
                    )))
                    args = prepare_inputs(server.hdfs, script, scn, seed=SEED)
                    for submission in range(4):
                        before = _replay_stats(server)
                        outcome = _serve(server, script, args)
                        assert _identity(outcome) == reference, (
                            scn.label, submission
                        )
                        hits, misses, _ = np.subtract(
                            _replay_stats(server), before
                        )
                        # a program seen once is off the tree; the second
                        # run derives and records all, the others none
                        assert hits == 0 or submission > 1
                        assert misses == 0 or submission == 1
                        replayed += hits
        finally:
            server.shutdown()
        if script in ("MLogreg", "GLM"):
            assert replayed > 0  # the scripts with unknown sizes


# -- (b) adversarial, (c) frozen ------------------------------------------------

SCN = scenario("M")
PREFIX = "data/replay"
BASE = {"num_classes": 5, "seed": 7}
MIGRATION_FAILS = FaultPlan.from_faults(
    FaultSpec(FaultKind.MIGRATION_FAILURE, at=0)
)
ALLOCATION_DENIED = FaultPlan.from_faults(
    FaultSpec(FaultKind.ALLOCATION_DENIED, at=0)
)
EXPLICIT = ResourceConfig(2048.0, 1024.0)
#: (why, data written to the same paths, scenario, submission options)
SPARSE = scenario("M", sparse=True)
MIXED_RUNS = [
    ("first sight", BASE, SCN, {}),
    ("recording run", BASE, SCN, {}),
    ("replay", BASE, SCN, {}),
    ("other labels: a narrower table()", {"num_classes": 3, "seed": 7}, SCN, {}),
    ("other values: another convergence", {"num_classes": 5, "seed": 11}, SCN, {}),
    ("back on the recorded path", BASE, SCN, {}),
    ("adaptation off", BASE, SCN, {"adapt": False}),
    ("adaptation on", BASE, SCN, {}),
    ("adaptation off, replayed", BASE, SCN, {"adapt": False}),
    ("explicit configuration, first sight", BASE, SCN, {"resource": EXPLICIT}),
    ("explicit configuration, recording", BASE, SCN, {"resource": EXPLICIT}),
    ("explicit configuration, replayed", BASE, SCN, {"resource": EXPLICIT}),
    ("the migration fails", BASE, SCN, {"chaos": MIGRATION_FAILS}),
    ("clean", BASE, SCN, {}),
    ("the AM container is denied", BASE, SCN, {"chaos": ALLOCATION_DENIED}),
    ("the migration fails, replayed", BASE, SCN, {"chaos": MIGRATION_FAILS}),
    ("denied, replayed", BASE, SCN, {"chaos": ALLOCATION_DENIED}),
    ("clean again", BASE, SCN, {}),
    ("sparse X on the same paths: a stale master, a new tree",
     BASE, SPARSE, {}),
    ("sparse, recording", BASE, SPARSE, {}),
    ("sparse, replayed", BASE, SPARSE, {}),
    ("dense again: stale once more", BASE, SCN, {}),
    ("dense, recording", BASE, SCN, {}),
    ("dense, replayed", BASE, SCN, {}),
]
#: a recalibrated belief may start under another configuration (a first
#: sight) and re-optimizes on its own branch either way
RECALIBRATED = [
    ("recalibrated", BASE, SCN, {}),
    ("recalibrated again", BASE, SCN, {}),
    ("recalibrated, replayed", BASE, SCN, {}),
]


def _post_digest(post):
    """What a node keeps, by value: what its event returned (the two
    optimizer decisions, or None) and ``_digest`` of the frozen-master
    suite over the state it left (DAGs, plan identities, flags)."""
    if post is None:
        return None
    value, states = post
    if isinstance(value, tuple):
        value = [(repr(r.resource), r.cost) for r in value]
    else:  # None, or the plan a recompilation returned
        value = id(value)
    blocks, loops = [], []
    for state in states:
        if "hop_roots" in state:
            block = SB.GenericBlock(**{
                k: v for k, v in state.items() if k != "plan"
            })
            block.plan = state["plan"]
            blocks.append(block)
        elif "hop_root" in state:
            holder = SB.PredicateHolder(
                hop_root=state["hop_root"], dag_shared=state["dag_shared"]
            )
            holder.plan = state["plan"]
            blocks.append(SB.WhileBlock(predicate=holder))
        elif state:
            loops.append(sorted(state.items()))
    shim = SimpleNamespace(
        resource=None, planned=None, plan_cache=None,
        all_blocks=lambda: blocks,
    )
    return [value] + _digest(shim) + loops


@pytest.fixture(scope="class")
def mixed(request):
    """One server, one program, ``MIXED_RUNS`` then ``RECALIBRATED``:
    each result beside its fresh-session reference, every master (the
    server's and the sessions') with its program cache and its digest
    when stored, every node with its digest when attached."""
    patch = pytest.MonkeyPatch()
    request.addfinalizer(patch.undo)
    attached, stored = [], []
    attach, put = replay.ReplayNode.attach, ProgramCache.put

    def spy_attach(self, label, post=None):
        node = attach(self, label, post)
        if node is not None and node.post is post:
            attached.append((node, _post_digest(post)))
        return node

    def spy_put(self, source, args, input_meta, master):
        handout = put(self, source, args, input_meta, master)
        stored.append((self, master, _digest(master)))
        return handout

    patch.setattr(replay.ReplayNode, "attach", spy_attach)
    patch.setattr(ProgramCache, "put", spy_put)

    server = ElasticMLServer(sample_cap=64, max_workers=1)
    profile = CalibrationProfile(
        cluster_signature=cluster_signature(server.cluster),
        base=asdict(drifted_parameters(42)),
    )
    runs = []
    try:
        for why, data, scn, options in MIXED_RUNS + RECALIBRATED:
            belief = {}
            if (why, data, scn, options) in RECALIBRATED:
                server.apply_calibration(profile)
                belief = {"model_params": profile.parameters()}
            session = ElasticMLSession(sample_cap=64, seed=SEED, **belief)
            reference = session.run("MLogreg", prepare_inputs(
                session.hdfs, "MLogreg", scn, prefix=PREFIX, **data
            ), **options)
            args = prepare_inputs(
                server.hdfs, "MLogreg", scn, prefix=PREFIX, **data
            )
            before = _replay_stats(server)
            outcome = _serve(server, "MLogreg", args, **options)
            events = np.subtract(_replay_stats(server), before)
            runs.append((why, outcome, reference, tuple(events)))
        yield SimpleNamespace(
            runs=runs, attached=attached, stored=stored, server=server
        )
    finally:
        server.shutdown()


class TestOffTheRecordedPath:
    def test_every_run_equals_its_own_fresh_session(self, mixed):
        for why, outcome, reference, _ in mixed.runs:
            assert _identity(outcome) == _identity(reference), why

    def test_the_mix_leaves_and_rejoins_recorded_paths(self, mixed):
        """The sequence is adversarial only if runs really replay, fall
        off the tree mid-run, and migrate, fail to, or fall back."""
        by_why = {why: (o, events) for why, o, _, events in mixed.runs}
        # seen once: a mark on the tree, nothing looked up or recorded
        for why in ("first sight", "explicit configuration, first sight"):
            assert tuple(by_why[why][1][:2]) == (0, 0), why
        # ... and a stale master's tree goes with it, counters and all
        for why in ("sparse X on the same paths: a stale master, a new tree",
                    "dense again: stale once more"):
            assert all(delta < 0 for delta in by_why[why][1]), why
        outcome, (hits, events, _) = by_why["recording run"]
        assert hits == 0 and events > 0 and outcome.migrations == 1
        for why in ("replay", "back on the recorded path", "clean again",
                    "adaptation off, replayed", "denied, replayed",
                    "explicit configuration, replayed",
                    "the migration fails, replayed", "sparse, replayed",
                    "dense, replayed", "recalibrated, replayed"):
            hits, misses, nodes = by_why[why][1]
            assert hits > 0 and misses == nodes == 0, why
        assert by_why["replay"][1][0] == events
        for why in ("other labels: a narrower table()",
                    "other values: another convergence",
                    "explicit configuration, recording",
                    "sparse, recording", "dense, recording"):
            assert by_why[why][1][1] > 0, why
        assert by_why["adaptation off"][0].migrations == 0
        # the failed migration replays the decisions and re-derives
        # the plans of the configuration it stays in
        failed, (hits, misses, nodes) = by_why["the migration fails"]
        assert failed.chaos.migration_failures == 1 and failed.migrations == 0
        assert hits > 0 and misses > 0 and nodes > 0
        # (the fallback re-enumerates into the configuration the clean
        # runs start under: their recorded path is the denied run's too)
        assert by_why["the AM container is denied"][0].chaos.fallbacks == 1
        # recompilations shared with the old belief's runs, not R*
        assert any(
            by_why[why][1][0] > 0 and by_why[why][1][1] > 0
            for why in ("recalibrated", "recalibrated again")
        )
        assert mixed.server.program_cache.misses == 3  # two went stale

    def test_frozen_means_frozen(self, mixed):
        assert len(mixed.runs) >= 20
        assert sum(
            cache is mixed.server.program_cache for cache, _, _ in mixed.stored
        ) == 3
        for _, master, digest in mixed.stored:
            assert _digest(master) == digest
        kinds = set()
        for node, digest in mixed.attached:
            assert _post_digest(node.post) == digest
            kinds.add(None if node.post is None else (
                isinstance(node.post[0], tuple), bool(node.post[1])
            ))
        # start; recompile and replan; the decisions of a reoptimize
        assert kinds == {None, (False, True), (True, False)}
        # ... and the spy saw every node the live trees hold
        live = [m for _, m in mixed.server.program_cache._programs.values()]
        seen = {id(node) for node, _ in mixed.attached}
        for master in live:
            nodes = _nodes(master.replay)
            assert len(nodes) == master.replay.tree["nodes"]
            assert all(id(node) in seen for node in nodes[1:])


# -- exact keys -------------------------------------------------------------------

#: v is TRUE, 1 or 1.0 depending on X[1,1]; nothing else in the frame
#: of the first dynamic recompilation differs, and matrix(1, cols=TRUE)
#: has unknown columns where cols=1 has one
TYPED_SCALAR = """
X = read($X)
y = read($Y)
s = as.scalar(X[1,1])
v = 1.0
if (s > 2) { v = TRUE; s = 0 } else { if (s > 1) { v = 1; s = 0 } else { s = 0 } }
K = table(seq(1, nrow(y), 1), y)
if (nrow(K) > 0) { print("v=" + v) }
M = matrix(1, rows=ncol(K), cols=v)
Z = K %*% M
print(sum(Z))
"""


class TestExactKeys:
    def test_frame_key_never_aliases_equal_scalars_of_other_types(self):
        mc = SimpleNamespace(rows=0, cols=0, nnz=0)
        keys = [
            replay.frame_key({"v": (None, mc, value)})
            for value in (True, 1, 1.0, 0, 0.0, -0.0, False, "1", np.float64(1))
        ]
        assert len(set(keys)) == len(keys)
        assert replay.frame_key({"v": (None, mc, 0.1 + 0.2)}) == (
            replay.frame_key({"v": (None, mc, 0.30000000000000004)})
        )
        nan = replay.frame_key({"v": (None, mc, float("nan"))})
        assert nan not in keys  # (all NaNs fold alike: one key is sound)

    @staticmethod
    def _put_inputs(hdfs, first):
        sample = np.ones((8, 4))
        sample[0, 0] = first
        x = MatrixObject.from_sample(
            sample, logical_rows=10**6, logical_cols=1000
        )
        hdfs.put("X", x.mc, x.data)
        y = MatrixObject.from_sample(
            np.array([[1.0], [2.0], [3.0]] * 2), logical_rows=10**6,
            logical_cols=1,
        )
        hdfs.put("Y", y.mc, y.data)
        return {"X": "X", "Y": "Y"}

    def test_true_one_and_one_point_zero_through_one_master(self):
        server = ElasticMLServer(sample_cap=64, max_workers=1)
        times = {}
        try:
            for first in (3.0, 3.0, 1.5, 0.5, 3.0, 1.5, 0.5):
                session = ElasticMLSession(sample_cap=64, seed=SEED)
                reference = session.run(
                    TYPED_SCALAR, self._put_inputs(session.hdfs, first)
                )
                outcome = _serve(
                    server, TYPED_SCALAR, self._put_inputs(server.hdfs, first)
                )
                assert _identity(outcome) == _identity(reference), first
                times[first] = outcome.total_time
            assert server.program_cache.misses == 1
            hits, misses, _ = _replay_stats(server)
            assert hits == misses > 0  # each value recorded, then replayed
        finally:
            server.shutdown()
        # the three values are one key under ``==``; TRUE compiles apart
        assert times[3.0] != times[1.5]


# -- (d) threads ----------------------------------------------------------------

class TestConcurrentRunsOfOneMaster:
    THREADS = 8

    def test_eight_threads_on_a_cold_tree(self):
        session = ElasticMLSession(sample_cap=64, seed=SEED)
        reference = _identity(session.run("MLogreg", prepare_inputs(
            session.hdfs, "MLogreg", SCN
        )))
        server = ElasticMLServer(sample_cap=64, max_workers=self.THREADS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            args = prepare_inputs(server.hdfs, "MLogreg", SCN)
            # one master, seen once: nothing but the mark on its tree
            assert _identity(_serve(server, "MLogreg", args)) == reference
            (_, master), = server.program_cache._programs.values()
            assert master.replay.tree["nodes"] == 2
            tickets = [
                server.submit(Submission(
                    tenant=f"t{i}", script="MLogreg", args=args, seed=SEED
                ))
                for i in range(self.THREADS)
            ]
            results = [server.poll(t, timeout=300) for t in tickets]
        finally:
            sys.setswitchinterval(interval)
        try:
            assert all(r is not None and r.ok for r in results), results
            for result in results:
                assert _identity(result.outcome) == reference
            tree = master.replay.tree
            nodes = _nodes(master.replay)
            assert len(nodes) == tree["nodes"]
            # a sequential run of the same program is one path: eight
            # racing ones attached nothing beside it
            assert all(len(node.children) <= 1 for node in nodes)
            events = tree["hits"] + tree["misses"]
            assert events % self.THREADS == 0 and tree["misses"] >= (
                events // self.THREADS
            )
            # every run ended on the path's last node, whoever attached it
            assert {
                id(r.outcome.compiled.replay) for r in results
            } == {id(nodes[-1])}
            misses = tree["misses"]
            assert _identity(_serve(server, "MLogreg", args)) == reference
            assert tree["misses"] == misses
        finally:
            server.shutdown()


# -- (e) bounds -------------------------------------------------------------------

class TestBounds:
    def test_an_evicted_masters_tree_is_unreachable(self):
        hdfs = SimulatedHDFS(sample_cap=64)
        pipeline = RunPipeline(SessionConfig(), hdfs=hdfs, sample_cap=64)
        pipeline.program_cache.max_programs = 1
        args = prepare_inputs(hdfs, "MLogreg", SCN)
        for _ in range(2):  # first sight, recording run
            compiled = pipeline.compile(load_script("MLogreg"), args)
            resource = pipeline.optimize_cached(
                load_script("MLogreg"), args, compiled
            ).resource
            pipeline.execute_program(compiled, resource, seed=SEED)
        tree = weakref.ref(compiled.replay)  # the path's last node
        assert tree().tree["nodes"] > 2
        del compiled
        gc.collect()
        assert tree() is not None  # the master keeps it

        other = prepare_inputs(hdfs, "LinregDS", scenario("XS", cols=100))
        pipeline.compile(load_script("LinregDS"), other)
        assert pipeline.program_cache.evictions == 1
        gc.collect()
        assert tree() is None

    def test_a_full_tree_stops_recording_never_replaying(self, monkeypatch):
        monkeypatch.setattr(replay, "MAX_NODES", 12)
        server = ElasticMLServer(sample_cap=64, max_workers=1, trace=True)
        try:
            # a stream of distinct frames: every width of table() is
            # another path through the one master
            deltas = []
            for classes in (3, 3, 3, 4, 5, 6, 3, 6):
                data = {"num_classes": classes, "seed": 7}
                session = ElasticMLSession(sample_cap=64, seed=SEED)
                reference = _identity(session.run("MLogreg", prepare_inputs(
                    session.hdfs, "MLogreg", SCN, prefix=PREFIX, **data
                )))
                args = prepare_inputs(
                    server.hdfs, "MLogreg", SCN, prefix=PREFIX, **data
                )
                before = _replay_stats(server)
                assert _identity(_serve(server, "MLogreg", args)) == reference
                after = _replay_stats(server)
                assert after[2] <= 12
                deltas.append(tuple(np.subtract(after, before)))
            assert after[2] == 12 and server.program_cache.misses == 1
            seen, recorded, replayed, *others, again, last = deltas
            # (root and mark; then the path of a run's six events)
            assert seen == (0, 0, 2) and recorded == (0, 6, 6)
            assert replayed == (6, 0, 0)
            # other widths share a prefix, then grow branches until the
            # tree is full; what fell off it derives, every time ...
            assert sum(nodes for _, _, nodes in others) == 4
            assert last[1] > 0 and last[2] == 0
            # ... while the recorded path still replays whole
            assert again == replayed
            assert any(
                event["event"] == "replay.bound_reached"
                for event in server.tracer.events
            )
            assert server.tracer.counter("replay.hits.recompile") > 0
            assert server.tracer.counter("replay.misses.reoptimize") > 0
            assert server.tracer.counter("replay.hits.replan") > 0
        finally:
            server.shutdown()

    def test_a_pickled_program_leaves_the_tree_behind(self):
        server = ElasticMLServer(sample_cap=64, max_workers=1)
        try:
            args = prepare_inputs(server.hdfs, "MLogreg", SCN)
            empty = server.compile(load_script("MLogreg"), args)
            assert empty.replay.tree["nodes"] == 1
            size = len(pickle.dumps(empty))
            for _ in range(2):
                _serve(server, "MLogreg", args)
            grown = server.compile(load_script("MLogreg"), args)
            assert grown.replay.tree["nodes"] > 4
            assert len(pickle.dumps(grown)) <= size
            assert pickle.loads(pickle.dumps(grown)).replay is None
        finally:
            server.shutdown()
