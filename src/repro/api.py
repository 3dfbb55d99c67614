"""High-level public API.

:class:`ElasticMLSession` ties the pieces together the way SystemML's
YARN client does (paper Figure 2(b)): it owns a simulated cluster and
HDFS, compiles DML scripts against the HDFS input metadata, runs the
resource optimizer to decide the initial CP/MR configuration, and
executes programs with optional runtime resource adaptation.

Typical use::

    from repro import ElasticMLSession, scenario
    from repro.workloads import prepare_inputs

    session = ElasticMLSession(trace=True)
    args = prepare_inputs(session.hdfs, "LinregCG", scenario("M"))
    outcome = session.run("LinregCG", args)
    print(outcome.resource.describe(), outcome.total_time)
    print(outcome.trace.render())       # span tree + counters
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace

from repro.cluster import ResourceConfig
from repro.compiler.pipeline import (
    CompiledProgram,
    compile_plans,
    compile_program,
    plan_holders,
)
from repro.cost import CostModel
from repro.obs import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.optimizer import OptimizerOptions, OptimizerResult
from repro.pipeline import RunPipeline
from repro.runtime import ExecutionResult
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP
from repro.scripts import SCRIPTS, load_script


@dataclass(frozen=True)
class RunOutcome:
    """Everything produced by one end-to-end run (immutable)."""

    result: ExecutionResult = None
    resource: ResourceConfig = None
    optimizer_result: OptimizerResult | None = None
    compiled: CompiledProgram = None
    #: telemetry of the run; None unless the session traces
    trace: Tracer | None = None

    @property
    def total_time(self):
        """Simulated execution seconds."""
        return self.result.total_time

    @property
    def prints(self):
        """The script's own print() output lines."""
        return self.result.prints

    @property
    def migrations(self):
        """CP application-master migrations performed (Section 4)."""
        return self.result.migrations

    @property
    def estimated_cost(self):
        """The optimizer's estimated cost (seconds), or None when the
        run used an explicit configuration."""
        if self.optimizer_result is None:
            return None
        return self.optimizer_result.cost

    @property
    def chaos(self):
        """Fault/recovery accounting (:class:`repro.chaos.ChaosReport`),
        or None when the run was not fault-injected."""
        if self.result is None:
            return None
        return self.result.chaos


@dataclass(frozen=True)
class SessionConfig:
    """Consolidated session/serving knobs.

    One immutable object configures sessions and the multi-tenant
    :class:`~repro.serving.ElasticMLServer` with the same vocabulary;
    change a knob on a live session with
    ``session.config = dataclasses.replace(session.config, grid_m=5)``.
    """

    # -- optimizer grid (Section 5.1 defaults: Hybrid, m = 15) -------------
    grid_cp: str = "hybrid"
    grid_mr: str = "hybrid"
    grid_m: int = 15
    # -- caches -------------------------------------------------------------
    #: ablation switch: disable the memoizing plan/cost cache
    enable_plan_cache: bool = True
    #: keep optimizer decisions across runs (:class:`OptimizerResultCache`)
    opt_cache: bool = True
    # -- calibration (repro.cost.calibrate) --------------------------------
    #: collect per-component (work, seconds) samples during execution,
    #: fittable into a CalibrationProfile via ``fit_calibration()``
    calibrate: bool = False
    #: a :class:`~repro.cost.calibrate.CalibrationProfile` (or a path to
    #: a saved one) whose fitted constants become the optimizer's and
    #: cost model's *belief*; the simulated hardware truth (``params``)
    #: is unaffected
    calibration_profile: object = None
    # -- multi-tenant serving ----------------------------------------------
    #: per-tenant memory quota as a fraction of total cluster memory,
    #: enforced by the serving resource manager (None = no quotas)
    tenant_quota_share: float | None = None

    def __post_init__(self):
        self.optimizer_options()  # an unknown grid name is a typed error here

    def optimizer_options(self):
        """This configuration as :class:`OptimizerOptions`."""
        return OptimizerOptions(
            grid_cp=self.grid_cp,
            grid_mr=self.grid_mr,
            m=self.grid_m,
            enable_plan_cache=self.enable_plan_cache,
        )

    def build_opt_cache(self):
        """A fresh cross-run cache per this config (None if disabled)."""
        return OptimizerResultCache() if self.opt_cache else None


@dataclass
class OptimizerResultCache:
    """Cross-run cache of resource-optimization decisions.

    Repeated tenants (the Figure 12 multi-tenant throughput path) run
    the same script on the same data shape over and over; the grid
    enumeration re-derives the identical configuration every time.
    This cache keys the decision by everything it depends on — the
    script text, the script arguments, the shape/sparsity metadata of
    every referenced input file, the cluster configuration, the
    cost-model parameters, and the optimizer options
    (:meth:`OptimizerOptions.decision_signature`) — so a hit can skip
    enumeration outright.

    The decision lives on the frozen master it was made for
    (``CompiledProgram.decisions``, shared by every handout) and dies
    with it; a store under a new key (the belief moved, say) replaces
    the master's one decision.  A hit installs the stored plans on the
    handout holder by holder.  A program compiled outside a
    :class:`~repro.pipeline.ProgramCache` has no ``decisions`` and
    always misses.  This object only counts; its lock keeps a store's
    replacement whole under concurrent tenants.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    _lock: object = field(default_factory=threading.RLock, repr=False,
                          compare=False)

    @staticmethod
    def signature(source, args, input_meta, cluster, params, options,
                  compiled):
        """Hash of everything the optimization decision depends on."""
        args = args or {}
        reads = sorted(
            (name, mc.rows, mc.cols, mc.nnz)
            for name, mc in input_meta.items()
            if name in compiled.reads
        )
        key_text = repr((
            source,
            sorted(args.items()),
            reads,
            repr(cluster),
            repr(params),
            options.decision_signature(),
        ))
        return hashlib.sha256(key_text.encode("utf-8")).hexdigest()

    def lookup(self, key, compiled):
        """Return the :class:`OptimizerResult` stored on ``compiled``'s
        master under ``key``, or None on a miss.  A hit leaves
        ``compiled`` planned under the cached configuration."""
        entry = (compiled.decisions or {}).get(key)
        outcome = "misses" if entry is None else "hits"
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
        get_tracer().incr(f"optcache.{outcome}")
        if entry is None:
            return None
        resource = ResourceConfig(
            cp_heap_mb=entry["cp_heap_mb"],
            mr_heap_mb=entry["mr_heap_mb"],
            mr_heap_per_block=dict(entry["vector"]),
        )
        for holder, plan in zip(plan_holders(compiled), entry["plans"]):
            holder.plan = plan
        compiled.resource = resource
        compiled.planned = True
        return OptimizerResult(
            resource=resource,
            cost=entry["cost"],
            stats=replace(entry["stats"]),
            from_cache=True,
            frontier=entry["frontier"],
        )

    def store(self, key, compiled, result):
        """Keep one optimization outcome on ``compiled``'s master under
        ``key``, replacing the decision it held.

        Results without a configuration, or produced under an expired
        time budget (they depend on wall clock, not just inputs), are
        not cacheable; neither is a program with no master.
        """
        if (compiled.decisions is None or result.resource is None
                or result.stats.budget_exhausted):
            return False
        # the enumeration leaves plan-cache plans behind; a hit must
        # install what a plain regeneration builds
        compile_plans(compiled, result.resource)
        entry = {
            "plans": [holder.plan for holder in plan_holders(compiled)],
            "cp_heap_mb": result.resource.cp_heap_mb,
            "mr_heap_mb": result.resource.mr_heap_mb,
            "vector": tuple(sorted(result.resource.mr_heap_per_block.items())),
            "frontier": result.frontier,
            "cost": result.cost,
            "stats": replace(result.stats),
        }
        with self._lock:
            compiled.decisions.clear()
            compiled.decisions[key] = entry
            self.stores += 1
        get_tracer().incr("optcache.stores")
        return True


class ElasticMLSession(RunPipeline):
    """A client session against one simulated cluster.

    The run environment and the compile/optimize/execute stages are the
    shared :class:`~repro.pipeline.RunPipeline`; the session adds the
    per-run tracer, its defaults (``seed``, ``chaos``, ``load``) and
    :class:`RunOutcome` assembly.  Knobs live on a :class:`SessionConfig`
    passed as ``config``.  Multi-tenant serving is
    :class:`repro.serving.ElasticMLServer` (or its sharded front end),
    built directly — on ``session.hdfs`` to share the session's inputs.
    """

    def __init__(self, cluster=None, params=None, hdfs=None,
                 sample_cap=DEFAULT_SAMPLE_CAP, seed=0, *,
                 config=None, trace=False, tracer=None, chaos=None,
                 retry_policy=None, model_params=None, load=None):
        super().__init__(
            config if config is not None else SessionConfig(),
            cluster, params, hdfs, sample_cap,
            retry_policy=retry_policy, model_params=model_params,
        )
        self.seed = seed
        #: telemetry: False (off), True (fresh Tracer per run), or a
        #: Tracer instance shared across runs
        self.trace = trace
        #: the tracer of the most recent traced run (or the shared one)
        self.tracer = tracer
        #: default fault-injection plan (:class:`repro.chaos.FaultPlan`)
        #: applied to every run unless overridden per call
        self.chaos = chaos
        #: background cluster-load model (:class:`repro.cluster.load
        #: .ClusterLoad`): slows MR phases
        self.load = load

    # -- compilation -----------------------------------------------------

    def compile_script(self, source, args, resource=None):
        """Compile DML source against the session's HDFS metadata."""
        return compile_program(source, args, self.hdfs.input_meta(), resource)

    def compile_registered(self, name, args, resource=None):
        """Compile one of the bundled scripts (LinregDS, ..., GLM)."""
        return self.compile_script(load_script(name), args, resource)

    # -- optimization ----------------------------------------------------

    def optimize(self, compiled, options=None, **overrides):
        """Run initial resource optimization on a compiled program."""
        return self.make_optimizer(options, **overrides).optimize(compiled)

    # -- execution ---------------------------------------------------------

    def execute(self, compiled, resource, adapt=True, chaos=None):
        """Execute under an explicit configuration.

        ``chaos`` (a :class:`repro.chaos.FaultPlan`) overrides the
        session default; fault schedules restart deterministically at
        every run.
        """
        return self.execute_program(
            compiled, resource, seed=self.seed, adapt=adapt,
            chaos=chaos if chaos is not None else self.chaos,
            load=self.load,
        )

    def run(self, script_or_name, args=None, *, resource=None, adapt=True,
            optimize=True, chaos=None):
        """Compile, optimize, and execute in one call.

        ``script_or_name`` is either a bundled script name (``"LinregCG"``
        — see :data:`repro.scripts.SCRIPTS`) or DML source text.  When
        ``resource`` is given (or ``optimize=False``) the resource
        optimizer is skipped; ``adapt`` toggles runtime resource
        adaptation (Section 4); ``chaos`` (a
        :class:`repro.chaos.FaultPlan`) injects deterministic faults
        into the execution, with per-run accounting on
        :attr:`RunOutcome.chaos`.  When the session traces, the returned
        :attr:`RunOutcome.trace` carries the run's span tree (compile /
        optimize / execute phases), counters, and events.
        """
        source = (
            load_script(script_or_name)
            if script_or_name in SCRIPTS
            else script_or_name
        )
        tracer = self._run_tracer()
        with use_tracer(tracer):
            with tracer.span("session.run"):
                with tracer.span("compile"):
                    compiled = self.compile(source, args)
                optimizer_result = None
                if resource is None and optimize:
                    with tracer.span("optimize"):
                        optimizer_result = self.optimize_cached(
                            source, args, compiled
                        )
                    resource = optimizer_result.resource
                elif resource is None:
                    resource = ResourceConfig(
                        cp_heap_mb=512.0, mr_heap_mb=512.0
                    )
                with tracer.span("execute"):
                    result = self.execute(
                        compiled, resource, adapt=adapt, chaos=chaos
                    )
        return RunOutcome(
            result=result,
            resource=result.final_resource,
            optimizer_result=optimizer_result,
            compiled=compiled,
            trace=tracer if tracer.enabled else None,
        )

    def _run_tracer(self):
        """The tracer for one run(): the shared instance, a fresh one,
        or the null tracer, per the session's ``trace`` setting."""
        if isinstance(self.trace, Tracer):
            self.tracer = self.trace
        elif self.trace:
            self.tracer = Tracer()
        else:
            return NULL_TRACER
        return self.tracer

    # -- analysis helpers --------------------------------------------------

    def estimate_cost(self, compiled, resource):
        """What-if cost of a program under a configuration (seconds).

        Plans and costs a handout of ``compiled``: the program itself —
        plans, statistics, hop annotations — stays exactly as it was.
        """
        what_if = compile_plans(compiled.handout(), resource)
        return CostModel(
            self.cluster, self.model_params
        ).estimate_program(what_if, resource)
