"""Deterministic virtual-time simulation of a multi-tenant trace.

A :class:`TraceSimulator` replays an :class:`~repro.elastic.trace
.ElasticTrace` against a single :class:`~repro.cluster.yarn
.ResourceManager` in *virtual* time: a single-threaded event loop over
arrival and finish events, FIFO admission under the paper's
1.5x-heap-container rule, and — with ``elastic=True`` — frontier
admission: an entry whose ideal container does not fit runs now in the
largest smaller one that does, at the point of its cost frontier
(:attr:`~repro.optimizer.OptimizerResult.frontier`) that container
holds, until it ends.  The walk down the frontier stops at the first
point the optimizer costed above :data:`MAX_SLOWDOWN` times the
winner.  Runs execute eagerly (the simulated interpreter) at their
admission instant, at the configuration they were admitted at; their
simulated duration schedules the finish event.

Everything is deterministic: no wall clock, no threads, no RNG beyond
the seeded trace and the seeded kernels — so two simulations of the
same (trace, cluster) are identical down to every admission, which is
what the replay harness and the property suite assert.  The elastic
and static arms of ``bench_elastic`` are two simulations differing only
in the ``elastic`` flag.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.chaos import FaultPlan
from repro.cluster import ResourceConfig, ResourceManager, small_cluster
from repro.cluster.admission import AdmissionCore
from repro.obs import Tracer, use_tracer
from repro.scripts import SCRIPTS, load_script
from repro.workloads import prepare_inputs, scenario

#: elastic admission offers no frontier point the optimizer costed
#: above this factor of the winner's cost: the entry queues instead
MAX_SLOWDOWN = 2.5


def frontier_offers(opt_result, cluster):
    """What elastic admission offers for one optimized entry: container
    MB -> the configuration to run at, largest first.  The winner's
    container, then each cost-frontier point's, walked down from the
    winner until a point costs more than :data:`MAX_SLOWDOWN` times it
    (several points sharing a container keep the cheapest)."""
    ideal = opt_result.resource
    offers = {ideal.container_request_mb(cluster): ideal}
    below = opt_result.frontier.below(ideal.cp_heap_mb)
    for rc, cost, vector in reversed(below):
        if cost > MAX_SLOWDOWN * opt_result.cost:
            break
        offers.setdefault(
            cluster.container_mb_for_heap(rc),
            ResourceConfig(rc, ideal.mr_heap_mb, dict(vector)),
        )
    return offers


@dataclass
class SimulatedRun:
    """One admitted trace entry and its simulated execution."""

    entry: object
    admitted_s: float
    finish_s: float
    wait_s: float
    container_mb: int
    #: the configuration the entry was admitted at: the optimizer's
    #: winner, or a point of its cost frontier
    resource: ResourceConfig
    outcome: object


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
            "elastic_admissions": int(
                self.counters.get("elastic.elastic_admissions", 0)
            ),
            "counters": elastic_counters,
        }


class TraceSimulator:
    """Virtual-time replay of a trace on one simulated cluster."""

    def __init__(self, trace, *, cluster=None, params=None, config=None,
                 elastic=False, quota_share=None, sample_cap=64):
        from repro.api import ElasticMLSession, SessionConfig

        self.trace = trace
        self.cluster = cluster if cluster is not None else small_cluster()
        self.elastic = elastic
        self.quota_share = quota_share
        self.tracer = Tracer()
        self.session = ElasticMLSession(
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
                else ("elastic" if self.elastic else "static")
            )

    def _run(self, label):
        self.prepare()
        rm = ResourceManager(self.cluster)
        total_mb = float(self.cluster.total_memory_mb)
        intervals = []  # (admit_s, finish_s, container_mb)
        if self.quota_share:
            quota_mb = max(
                self.cluster.min_allocation_mb,
                int(self.quota_share * total_mb),
            )
            for tenant in self.trace.tenants():
                rm.set_tenant_quota(tenant, quota_mb)

        result = SimulationResult(label=label, elastic=self.elastic)
        core = AdmissionCore(rm)  # the paper's FIFO heap rule
        sequence = itertools.count()
        events = []  # (time, seq, kind, payload)
        for entry in self.trace.entries:
            heapq.heappush(
                events, (entry.arrival_s, next(sequence), "arrival", entry)
            )
        offered = {}  # ticket -> _offer() result, until the entry starts
        while events:
            clock = events[0][0]
            # drain simultaneous events before re-running admission
            while events and events[0][0] == clock:
                _, ticket, kind, payload = heapq.heappop(events)
                if kind == "finish":
                    core.release([payload])
                    continue
                offer = self._offer(payload, ticket, core)
                if offer is None:
                    # would never fit even an empty cluster / this quota
                    self.tracer.incr("elastic.admission_impossible")
                    result.rejected.append(payload)
                else:
                    offered[ticket] = offer
            for request, (container,) in core.grant():
                run = self._start(*offered.pop(request.ticket), container, clock)
                result.runs.append(run)
                intervals.append((clock, run.finish_s, container.memory_mb))
                heapq.heappush(
                    events, (run.finish_s, next(sequence), "finish", container)
                )
        if core.waiting:
            # nothing will ever free capacity for the waiting head; the
            # core refuses such entries up front, so this is a bug
            raise RuntimeError(
                f"simulation deadlock: {len(core.waiting)} entries waiting "
                "with no scheduled events"
            )
        if result.runs:
            result.makespan_s = max(run.finish_s for run in result.runs)
            busy = sum(
                (end - start) * mb for start, end, mb in intervals
            )
            if result.makespan_s > 0 and total_mb > 0:
                result.utilization = busy / (total_mb * result.makespan_s)
        result.counters = dict(self.tracer.counters)
        return result

    # -- admission -----------------------------------------------------------

    def _offer(self, entry, ticket, core):
        """An entry arrives: compile and optimize it (the pipeline's
        first two stages, once per entry) and queue it for its AM
        container.  With ``elastic=True`` the containers of
        :func:`frontier_offers` ride along as the request's smaller
        acceptable sizes.  Returns what :meth:`_start` needs, or None
        when the entry can never be placed."""
        args = self.args_for(entry)
        source = (
            load_script(entry.script) if entry.script in SCRIPTS
            else entry.script
        )
        compiled = self.session.compile(source, args)
        opt_result = self.session.optimize_cached(source, args, compiled)
        if self.elastic:
            offers = frontier_offers(opt_result, self.cluster)
        else:
            ideal = opt_result.resource
            offers = {ideal.container_request_mb(self.cluster): ideal}
        ideal_mb, *shrunk_mb = offers
        if core.offer(ticket, entry.tenant, ideal_mb, shrunk_mb) is None:
            return None
        return entry, compiled, opt_result, offers

    def _start(self, entry, compiled, opt_result, offers, container,
               clock):
        """Execute an admitted entry at its admission instant, at the
        configuration its container holds; returns its
        :class:`SimulatedRun`."""
        from repro.api import RunOutcome

        resource = offers[container.memory_mb]
        if resource is not opt_result.resource:
            self.tracer.incr("elastic.elastic_admissions")
        exec_result = self.session.execute_program(
            compiled, resource, seed=entry.seed, adapt=entry.adapt,
            chaos=(
                FaultPlan.from_rate(entry.chaos_seed, entry.fault_rate)
                if entry.chaos_seed is not None else None
            ),
        )
        return SimulatedRun(
            entry=entry,
            admitted_s=clock,
            finish_s=clock + exec_result.total_time,
            wait_s=clock - entry.arrival_s,
            container_mb=container.memory_mb,
            resource=resource,
            outcome=RunOutcome(
                result=exec_result,
                resource=exec_result.final_resource,
                optimizer_result=opt_result,
                compiled=compiled,
            ),
        )


def simulate_arms(trace, *, cluster=None, params=None, config=None,
                  quota_share=None, sample_cap=64):
    """Run the static and elastic-admission arms of a trace; returns
    the ``(static, elastic)`` :class:`SimulationResult` pair — the
    benchmark comparison in one call."""
    return tuple(
        TraceSimulator(
            trace, cluster=cluster, params=params, config=config,
            elastic=elastic, quota_share=quota_share,
            sample_cap=sample_cap,
        ).run()
        for elastic in (False, True)
    )
