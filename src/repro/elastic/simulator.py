"""Deterministic virtual-time simulation of a multi-tenant trace.

A :class:`TraceSimulator` replays an :class:`~repro.elastic.trace
.ElasticTrace` against a single :class:`~repro.cluster.yarn
.ResourceManager` in *virtual* time: a single-threaded event loop over
arrival and finish events, FIFO admission under the paper's
1.5x-heap-container rule, and — with ``elastic=True`` — the Brain's
memory-elastic admission ladder plus mid-run rescaling driven by the
simulated cluster occupancy.  Runs execute eagerly (the simulated
interpreter) at their admission instant; their simulated duration
schedules the finish event.

Everything is deterministic: no wall clock, no threads, no RNG beyond
the seeded trace and the seeded kernels — so two simulations of the
same (trace, cluster, policy) are identical down to every rescale
decision, which is what the replay harness and the property suite
assert.  The elastic and static arms of ``bench_elastic`` are two
simulations differing only in the ``elastic`` flag.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.chaos import FaultPlan
from repro.cluster import ResourceManager, small_cluster
from repro.cluster.resources import GrantedResource
from repro.cost import CostModel
from repro.elastic.brain import BrainPolicy, ElasticBrain
from repro.obs import Tracer, use_tracer
from repro.scripts import SCRIPTS, load_script
from repro.workloads import prepare_inputs, scenario


@dataclass
class SimulatedRun:
    """One admitted trace entry and its simulated execution."""

    entry: object
    admitted_s: float
    finish_s: float
    wait_s: float
    container_mb: int
    #: granted fraction at admission (1.0 = ideal)
    fraction: float
    #: mid-run rescale decisions taken by this run's Brain
    rescales: int
    #: (time, utilization, fraction) per Brain poll
    decisions: list
    outcome: object

    @property
    def duration_s(self):
        return self.finish_s - self.admitted_s


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated arm."""

    label: str
    elastic: bool
    runs: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    makespan_s: float = 0.0
    #: memory-time integral over makespan (allocated MB-seconds over
    #: total capacity MB-seconds)
    utilization: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def mean_wait_s(self):
        if not self.runs:
            return 0.0
        return sum(run.wait_s for run in self.runs) / len(self.runs)

    @property
    def total_spill_s(self):
        return self.counters.get("elastic.spill_s", 0.0)

    def summary(self):
        """JSON-ready digest (benchmarks, CLI)."""
        elastic_counters = {
            name: value for name, value in sorted(self.counters.items())
            if name.startswith(("elastic.", "yarn.quota"))
        }
        return {
            "label": self.label,
            "elastic": self.elastic,
            "completed": len(self.runs),
            "rejected": len(self.rejected),
            "makespan_s": round(self.makespan_s, 3),
            "utilization": round(self.utilization, 4),
            "mean_wait_s": round(self.mean_wait_s, 3),
            "total_spill_s": round(self.total_spill_s, 3),
            "rescales": int(self.counters.get("elastic.rescales", 0)),
            "elastic_admissions": int(
                self.counters.get("elastic.elastic_admissions", 0)
            ),
            "counters": elastic_counters,
        }


class TraceSimulator:
    """Virtual-time replay of a trace on one simulated cluster.

    The occupancy signal fed to each run's Brain is the sum of the AM
    containers of runs admitted *before* it (plus any ``background``
    load schedule) — a run never observes later admissions, which keeps
    the loop causal and deterministic.
    """

    def __init__(self, trace, *, cluster=None, params=None, config=None,
                 elastic=False, brain_policy=None, background=None,
                 quota_share=None, sample_cap=64, session=None):
        from repro.api import ElasticMLSession, SessionConfig

        self.trace = trace
        self.cluster = cluster if cluster is not None else small_cluster()
        self.elastic = elastic
        self.brain_policy = (
            brain_policy if brain_policy is not None else BrainPolicy()
        )
        self.background = background
        self.quota_share = quota_share
        self.tracer = Tracer()
        self.session = session if session is not None else ElasticMLSession(
            cluster=self.cluster, params=params, sample_cap=sample_cap,
            config=config if config is not None else SessionConfig(),
        )
        self._prepared = {}

    # -- input preparation ---------------------------------------------------

    def prepare(self):
        """Generate the deterministic input data of every recipe the
        trace references (idempotent)."""
        for script, size, cols in self.trace.workloads():
            key = (script, size, cols)
            if key not in self._prepared:
                self._prepared[key] = prepare_inputs(
                    self.session.hdfs, script, scenario(size, cols=cols)
                )
        return self._prepared

    def args_for(self, entry):
        return self._prepared[(entry.script, entry.size, entry.cols)]

    # -- the event loop ------------------------------------------------------

    def run(self, label=None):
        with use_tracer(self.tracer):
            return self._run(
                label if label is not None
                else ("brain" if self.elastic else "static")
            )

    def _run(self, label):
        self.prepare()
        rm = ResourceManager(self.cluster)
        total_mb = float(self.cluster.total_memory_mb)
        intervals = []  # (admit_s, finish_s, container_mb)

        def occupancy(t):
            used = sum(mb for start, end, mb in intervals if start <= t < end)
            load = used / total_mb if total_mb > 0 else 0.0
            if self.background is not None:
                load += self.background.utilization(t)
            return min(load, 1.0)

        if self.quota_share:
            quota_mb = max(
                self.cluster.min_allocation_mb,
                int(self.quota_share * total_mb),
            )
            for tenant in self.trace.tenants():
                rm.set_tenant_quota(tenant, quota_mb)

        result = SimulationResult(label=label, elastic=self.elastic)
        sequence = itertools.count()
        events = []  # (time, seq, kind, payload)
        for entry in self.trace.entries:
            heapq.heappush(
                events, (entry.arrival_s, next(sequence), "arrival", entry)
            )
        waiting = []  # FIFO queue of pending entries
        head = None  # the waiting head's (compiled, optimizer result)
        clock = 0.0
        while events or waiting:
            if not events:
                # nothing will ever free capacity for the waiting head;
                # admission marks such entries rejected, so this is a bug
                raise RuntimeError(
                    f"simulation deadlock: {len(waiting)} entries waiting "
                    "with no scheduled events"
                )
            clock, _, kind, payload = heapq.heappop(events)
            self._handle(kind, payload, rm, waiting)
            # drain simultaneous events before re-running admission
            while events and events[0][0] == clock:
                _, _, kind, payload = heapq.heappop(events)
                self._handle(kind, payload, rm, waiting)
            # FIFO admission pass (head-of-line blocking, as the paper's
            # throughput setup models)
            while waiting:
                if head is None:
                    # once per entry, however many passes it stays blocked
                    head = self._prepare_entry(waiting[0])
                admitted = self._try_admit(
                    waiting[0], head, rm, clock, occupancy, intervals,
                    events, sequence, result,
                )
                if not admitted:
                    break
                waiting.pop(0)
                head = None
        if result.runs:
            result.makespan_s = max(run.finish_s for run in result.runs)
            busy = sum(
                (end - start) * mb for start, end, mb in intervals
            )
            if result.makespan_s > 0 and total_mb > 0:
                result.utilization = busy / (total_mb * result.makespan_s)
        result.counters = dict(self.tracer.counters)
        return result

    def _handle(self, kind, payload, rm, waiting):
        if kind == "arrival":
            waiting.append(payload)
        else:  # finish: release the run's AM container
            rm.release(payload)

    # -- admission -----------------------------------------------------------

    def _prepare_entry(self, entry):
        """Compile and optimize one trace entry (the pipeline's first two
        stages); returns ``(compiled, optimizer result)``."""
        args = self.args_for(entry)
        source = (
            load_script(entry.script) if entry.script in SCRIPTS
            else entry.script
        )
        compiled = self.session.compile(source, args)
        return compiled, self.session.optimize_cached(source, args, compiled)

    def _try_admit(self, entry, prepared, rm, clock, occupancy, intervals,
                   events, sequence, result):
        compiled, opt_result = prepared
        ideal = opt_result.resource
        ideal_container = ideal.container_request_mb(self.cluster)
        if rm.never_fits(ideal_container, entry.tenant):
            # would never fit even an empty cluster / this quota
            self.tracer.incr("elastic.admission_impossible")
            result.rejected.append(entry)
            return True  # pop it, don't block the line forever

        brain = None
        fraction = 1.0
        if self.elastic:
            brain = ElasticBrain(
                policy=self.brain_policy, cluster=self.cluster,
                utilization=occupancy, tenant=entry.tenant,
                base_time=clock,
            )
            admitted_fraction = brain.admission_fraction(
                ideal, rm, tenant=entry.tenant
            )
            if admitted_fraction is None:
                return False  # wait for capacity
            fraction = admitted_fraction
            if fraction < 1.0 and not self._spill_acceptable(
                compiled, ideal, fraction
            ):
                # predicted elastic slowdown too high: queue instead
                self.tracer.incr("elastic.admission_vetoes")
                return False
            brain.fraction = fraction
        else:
            if not rm.can_fit(ideal_container, tenant=entry.tenant):
                return False

        granted = (
            ideal if fraction >= 1.0
            else GrantedResource.of(ideal, fraction, self.cluster)
        )
        container = rm.try_allocate(
            granted.container_request_mb(self.cluster), tenant=entry.tenant
        )
        if container is None:
            return False
        if fraction < 1.0:
            self.tracer.incr("elastic.elastic_admissions")

        exec_result = self.session.execute_program(
            compiled, ideal, seed=entry.seed, adapt=entry.adapt,
            chaos=(
                FaultPlan.from_rate(entry.chaos_seed, entry.fault_rate)
                if entry.chaos_seed is not None else None
            ),
            load=self.background, brain=brain,
        )
        finish = clock + exec_result.total_time
        intervals.append((clock, finish, container.memory_mb))
        heapq.heappush(events, (finish, next(sequence), "finish", container))
        from repro.api import RunOutcome

        result.runs.append(SimulatedRun(
            entry=entry,
            admitted_s=clock,
            finish_s=finish,
            wait_s=clock - entry.arrival_s,
            container_mb=container.memory_mb,
            fraction=fraction,
            rescales=brain.rescales if brain is not None else 0,
            decisions=list(brain.decisions) if brain is not None else [],
            outcome=RunOutcome(
                result=exec_result,
                resource=exec_result.final_resource,
                optimizer_result=opt_result,
                compiled=compiled,
            ),
        ))
        return True

    def _spill_acceptable(self, compiled, ideal, fraction):
        """Cost-model gate on elastic admission: the granted estimate
        (ideal plans, granted timing + spill term) must stay within
        ``max_spill_slowdown`` of the ideal estimate."""
        model = CostModel(self.cluster, self.session.model_params)
        est_ideal = model.estimate_program(compiled, ideal)
        granted = GrantedResource.of(ideal, fraction, self.cluster)
        est_granted = CostModel(
            self.cluster, self.session.model_params
        ).estimate_program(compiled, granted)
        if est_ideal <= 0:
            return True
        return est_granted / est_ideal <= self.brain_policy.max_spill_slowdown


def simulate_arms(trace, *, cluster=None, params=None, config=None,
                  brain_policy=None, background=None, quota_share=None,
                  sample_cap=64):
    """Run the static and Brain arms of a trace; returns
    ``(static, brain)`` :class:`SimulationResult` pairs — the benchmark
    comparison in one call."""
    static = TraceSimulator(
        trace, cluster=cluster, params=params, config=config,
        elastic=False, background=background, quota_share=quota_share,
        sample_cap=sample_cap,
    ).run()
    brain = TraceSimulator(
        trace, cluster=cluster, params=params, config=config,
        elastic=True, brain_policy=brain_policy, background=background,
        quota_share=quota_share, sample_cap=sample_cap,
    ).run()
    return static, brain
