"""The run pipeline: compile -> optimize -> execute, written once.

The paper has one client path (Section 3 initial optimization -> AM
launch -> Section 4 runtime adaptation).  :class:`RunPipeline` is that
path plus the environment it runs in; the session, the multi-tenant
server and the trace simulator are callers that add only what is theirs
(spans and outcome assembly, admission and tickets, the virtual clock):

* :meth:`~RunPipeline.compile` — DML source to a handout of a frozen
  master :class:`~repro.compiler.pipeline.CompiledProgram`, through the
  pipeline's :class:`ProgramCache`;
* :meth:`~RunPipeline.optimize_cached` — the initial resource decision,
  through the cross-run :class:`~repro.api.OptimizerResultCache`, which
  keeps it on the master;
* :meth:`~RunPipeline.execute_program` — one interpreter run.  The only
  place outside :mod:`repro.runtime` that wires a fault injector, an
  HDFS view, the serial runtime adapter and the calibration collector
  to an :class:`~repro.runtime.Interpreter`.

Everything that differs between callers is an argument of
``execute_program`` (``resource``, ``seed``, ``load``); the pipeline
never asks who is calling and emits no spans of its own.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import replace

from repro.chaos import FaultInjector
from repro.cluster import paper_cluster
from repro.compiler.pipeline import compile_program
from repro.compiler.replay import ReplayNode
from repro.cost.calibrate import (
    DEFAULT_MIN_SAMPLES,
    CalibrationCollector,
    fit_profile,
    resolve_profile,
)
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.obs import get_tracer, use_tracer
from repro.optimizer import ResourceAdapter, ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP

#: sentinel distinguishing "not passed" from an explicit None
UNSET = object()


class ProgramCache:
    """Master compiled programs, the one cross-run cache of a pipeline.

    Keyed by (source, args) with a per-entry signature over the
    shape/sparsity metadata of the files the program *reads* (outputs a
    run writes back to HDFS never invalidate).  A stored master is
    frozen — nothing reachable from it is written again — and ``get``
    and ``put`` return a ``CompiledProgram.handout()`` of it: a per-run
    shell with the master's block ids.  What runs learn about the
    program hangs on the master and lives and dies with it: its
    optimizer decision (``decisions``, kept by
    :class:`~repro.api.OptimizerResultCache`) and its run-replay tree
    (:mod:`repro.compiler.replay`).  A run that must write a HOP DAG
    copies that block's DAG first (``statement_blocks.own_dag``).
    """

    def __init__(self, max_programs=32):
        self.max_programs = max_programs
        self.hits = 0
        self.misses = 0
        #: masters dropped by the LRU bound
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> (reads_sig, master CompiledProgram), LRU order
        self._programs = {}

    @staticmethod
    def _key(source, args):
        text = repr((source, sorted((args or {}).items())))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @staticmethod
    def _reads_sig(read_set, input_meta):
        sig = []
        for path in sorted(read_set):
            mc = input_meta.get(path)
            if mc is None:
                return None  # a read input disappeared: never matches
            sig.append((path, mc.rows, mc.cols, mc.nnz))
        return tuple(sig)

    def get(self, source, args, input_meta):
        """A handout of the cached master, or None."""
        key = self._key(source, args)
        with self._lock:
            reads_sig, master = self._programs.get(key, (None, None))
            if master is not None and reads_sig != self._reads_sig(
                master.reads, input_meta
            ):
                del self._programs[key]  # stale metadata
                master = None
            if master is None:
                self.misses += 1
                return None
            self._programs[key] = self._programs.pop(key)
            self.hits += 1
        return master.handout()

    def put(self, source, args, input_meta, master):
        """Store a pristine master, frozen from here on (the caller
        gives up the right to run or replan it); returns a handout."""
        key = self._key(source, args)
        sig = self._reads_sig(master.reads, input_meta)
        master.decisions = {}
        if any(b.requires_recompile for b in master.last_level_blocks()):
            # only a program with unknown sizes has events to replay
            master.replay = ReplayNode()
        with self._lock:
            self._programs[key] = (sig, master)
            while len(self._programs) > self.max_programs:
                self._programs.pop(next(iter(self._programs)))
                self.evictions += 1
        return master.handout()

    def replay_counts(self):
        """Run-replay ``hits``/``misses``/``nodes``, summed over the
        trees of the live masters."""
        with self._lock:
            trees = [
                master.replay.tree for _, master in self._programs.values()
                if master.replay is not None
            ]
        return {
            name: sum(tree[name] for tree in trees)
            for name in ("hits", "misses", "nodes")
        }


class RunPipeline:
    """The run environment and the three stages every run goes through.

    Base class of :class:`~repro.api.ElasticMLSession` and
    :class:`~repro.serving.ElasticMLServer`, so the environment
    attributes below are plain attributes of both.  Every pipeline
    owns a :class:`ProgramCache`: a run gets a handout of a frozen
    master, whose optimizer decision and replay tree every later run of
    the same program reuses.
    """

    def __init__(self, config, cluster=None, params=None, hdfs=None,
                 sample_cap=DEFAULT_SAMPLE_CAP, *, retry_policy=None,
                 model_params=None, collector=UNSET):
        #: consolidated knobs (:class:`~repro.api.SessionConfig`)
        self.config = config
        self.cluster = cluster if cluster is not None else paper_cluster()
        #: simulated hardware truth: the constants the runtime charges
        self.params = params if params is not None else DEFAULT_PARAMETERS
        #: active calibration profile (from config or apply_calibration)
        self.calibration_profile = resolve_profile(
            config.calibration_profile, self.cluster
        )
        #: optimizer/cost-model belief: explicit ``model_params``, else
        #: the calibration profile's fitted constants, else ``params``.
        #: The truth/belief split is what calibration narrows.
        if model_params is not None:
            self.model_params = model_params
        elif self.calibration_profile is not None:
            self.model_params = self.calibration_profile.parameters()
        else:
            self.model_params = self.params
        #: calibration sample sink fed by every execution (internally
        #: locked; None unless ``config.calibrate`` or passed explicitly)
        if collector is UNSET:
            collector = CalibrationCollector() if config.calibrate else None
        self.calibration = collector
        #: serializes fit/apply so concurrent calibrations cannot
        #: interleave belief updates
        self._calib_lock = threading.Lock()
        self.sample_cap = sample_cap
        self.hdfs = (
            hdfs if hdfs is not None
            else SimulatedHDFS(sample_cap=sample_cap)
        )
        #: cross-run optimizer decisions, kept on the masters (None
        #: when ``config.opt_cache`` is off)
        self.opt_cache = config.build_opt_cache()
        #: retry/backoff policy for fault recovery
        #: (:class:`repro.chaos.RetryPolicy`); None = the default policy
        self.retry_policy = retry_policy
        #: frozen master programs, handed out per run
        self.program_cache = ProgramCache()
        #: telemetry of the owner; fits are recorded on it when enabled
        self.tracer = None

    # -- compile -------------------------------------------------------------

    def compile(self, source, args):
        """A handout of the master compiled from DML source against the
        HDFS input metadata (compiled on a program-cache miss)."""
        input_meta = self.hdfs.input_meta()
        compiled = self.program_cache.get(source, args, input_meta)
        if compiled is None:
            compiled = self.program_cache.put(
                source, args, input_meta,
                compile_program(source, args, input_meta),
            )
        return compiled

    # -- optimize ------------------------------------------------------------

    @property
    def optimizer_options(self):
        """The configured default :class:`OptimizerOptions`."""
        return self.config.optimizer_options()

    def make_optimizer(self, options=None, **overrides):
        """Build an optimizer from the configured defaults.

        ``options`` replaces the defaults wholesale; keyword overrides
        (``grid_cp``, ``grid_mr``, ``m``, ``w``, ``time_budget``,
        ``enable_pruning``) patch individual fields of either.
        """
        opts = options if options is not None else self.optimizer_options
        if overrides:
            opts = replace(opts, **overrides)
        return ResourceOptimizer(
            self.cluster, self.model_params, options=opts
        )

    def optimize_cached(self, source, args, compiled):
        """Initial resource optimization, consulting the cross-run
        result cache.

        On a hit the enumeration is skipped entirely: the cache leaves
        the handout planned under its master's decision and a result
        with :attr:`OptimizerResult.from_cache` set is returned.
        """
        cache = self.opt_cache
        if cache is None:
            return self.make_optimizer().optimize(compiled)
        key = cache.signature(
            source, args, self.hdfs.input_meta(), self.cluster,
            self.model_params, self.optimizer_options, compiled=compiled,
        )
        cached = cache.lookup(key, compiled)
        if cached is not None:
            return cached
        result = self.make_optimizer().optimize(compiled)
        cache.store(key, compiled, result)
        return result

    # -- execute -------------------------------------------------------------

    def execute_program(self, compiled, resource, *, seed=0, adapt=True,
                        chaos=None, load=None):
        """Execute ``compiled`` under ``resource``; returns the
        :class:`~repro.runtime.ExecutionResult`.

        ``chaos`` (a :class:`repro.chaos.FaultPlan`) gets a fresh
        :class:`~repro.chaos.FaultInjector` per execution, so fault
        schedules restart deterministically at every run, attached to a
        private HDFS *view*: the file namespace stays shared, the
        injector slot does not, so one run's read faults never fire in
        another's.  ``load`` is a background
        :class:`~repro.cluster.load.ClusterLoad`.
        """
        injector = (
            FaultInjector(chaos, retry_policy=self.retry_policy)
            if chaos is not None else None
        )
        # the enumeration's plan memo cannot hit at run time (a dynamic
        # recompilation invalidates before it looks up): not kept alive
        # for as long as a RunOutcome keeps the program
        compiled.plan_cache = None
        interpreter = Interpreter(
            self.cluster,
            params=self.params,
            hdfs=self.hdfs.view(injector=injector),
            sample_cap=self.sample_cap,
            adapter=(
                ResourceAdapter(self.make_optimizer()) if adapt else None
            ),
            seed=seed,
            cluster_load=load,
            injector=injector,
            collector=self.calibration,
        )
        return interpreter.run(compiled, resource)

    # -- calibration ---------------------------------------------------------

    def fit_calibration(self, min_samples=None, apply=False):
        """Fit a :class:`~repro.cost.calibrate.CalibrationProfile` from
        the samples the executions fed the collector.

        Requires ``config.calibrate=True`` (or an explicit collector).
        The fit starts from the current belief (``model_params``), so
        components below the sample floor keep their present constants.
        With ``apply`` the fitted profile immediately becomes the belief
        for subsequent optimizations.
        """
        if self.calibration is None:
            raise RuntimeError(
                "no calibration samples are collected; construct with "
                "SessionConfig(calibrate=True)"
            )
        floor = (
            min_samples if min_samples is not None else DEFAULT_MIN_SAMPLES
        )
        tracer = (
            self.tracer if self.tracer is not None and self.tracer.enabled
            else get_tracer()
        )
        with self._calib_lock, use_tracer(tracer):
            profile = fit_profile(
                self.calibration, self.cluster,
                base_params=self.model_params, min_samples=floor,
            )
            if apply:
                self.apply_calibration(profile)
        return profile

    def apply_calibration(self, profile):
        """Adopt ``profile`` (a CalibrationProfile or a path to one) as
        the cost-model belief; returns the resolved profile."""
        profile = resolve_profile(profile, self.cluster)
        self.calibration_profile = profile
        self.model_params = profile.parameters()
        return profile
