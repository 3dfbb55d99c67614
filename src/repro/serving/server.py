"""The multi-tenant serving layer: :class:`ElasticMLServer`.

One server owns one simulated cluster and HDFS and accepts concurrent
tenant :class:`Submission`\\ s.  Each submission flows through

1. **prepare** — the :class:`~repro.pipeline.RunPipeline` compile stage
   (through the pipeline's :class:`~repro.pipeline.ProgramCache` of
   frozen master programs, handed out as per-run shells over the
   master's HOP DAGs: same block identities for every tenant, nothing
   copied) and optimize stage (through the
   :class:`~repro.api.OptimizerResultCache`, whose hit installs the
   plans of the decision kept on the master);
2. **admission** — block until the paper's 1.5x-heap AM container fits
   under the active :class:`~repro.serving.admission.AdmissionPolicy`
   (Section 5.3: allocated AM containers bound concurrency);
3. **execute** — the pipeline's execute stage: a private
   :class:`~repro.runtime.Interpreter` against a per-run HDFS view, so
   fault injection and adaptation never leak between tenants.

Simulated results are deterministic: they depend only on the program,
the input metadata, the configuration, and the submission seed — never
on admission interleaving — so a tenant's result is identical to the
same run on a private :class:`~repro.api.ElasticMLSession`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api import RunOutcome, SessionConfig
from repro.cluster.admission import AdmissionCore
from repro.cluster.yarn import ResourceManager
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.pipeline import UNSET, ProgramCache, RunPipeline  # noqa: F401
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP
from repro.scripts import SCRIPTS, load_script
from repro.serving.admission import make_policy


class AdmissionCancelled(Exception):
    """A submission parked in admission was aborted by shutdown()."""


def default_serving_workers():
    """Serving thread-pool size scaled to the host: one thread per CPU,
    clamped to [2, 8] — the floor so admission never self-deadlocks
    behind one long run, the ceiling for the simulated runtime's
    diminishing returns."""
    return max(2, min(8, os.cpu_count() or 1))


@dataclass(frozen=True)
class Submission:
    """One tenant's unit of work: a script to compile/optimize/execute."""

    #: owning tenant (admission fairness + accounting key)
    tenant: str
    #: bundled script name (see :data:`repro.scripts.SCRIPTS`) or DML text
    script: str
    #: $-argument bindings
    args: dict = field(default_factory=dict)
    #: explicit configuration (skips the resource optimizer)
    resource: object = None
    #: runtime resource adaptation (Section 4)
    adapt: bool = True
    #: fault plan (:class:`repro.chaos.FaultPlan`) for this submission
    chaos: object = None
    #: interpreter sampling seed
    seed: int = 0

    @property
    def source(self):
        return (
            load_script(self.script)
            if self.script in SCRIPTS
            else self.script
        )


@dataclass(frozen=True)
class SubmissionResult:
    """Terminal record of one submission."""

    ticket: int
    tenant: str
    #: "completed" | "failed" | "rejected" | "cancelled"
    status: str
    outcome: RunOutcome | None = None
    error: str | None = None
    #: granted AM container size (0 if never admitted)
    container_mb: int = 0
    #: wall-clock seconds queued for admission
    wait_s: float = 0.0
    #: wall-clock seconds from submit to terminal state
    latency_s: float = 0.0

    @property
    def ok(self):
        return self.status == "completed"

    @property
    def total_time(self):
        """Simulated execution seconds (None unless completed)."""
        return self.outcome.total_time if self.outcome is not None else None


#: the terminal statuses of a :class:`SubmissionResult`
STATUSES = ("completed", "failed", "rejected", "cancelled")


class TicketLedger:
    """The front door of serving, written once for both front ends.

    Tickets, the queue bound, the recorder hook and every submission's
    terminal :class:`SubmissionResult` live here under one condition
    variable; ``poll()``/``drain()``/``results()`` read them.  A front
    end supplies ``_dispatch_locked`` (hand an accepted submission to
    whatever runs it) and reports each outcome through
    ``_settle_locked``.  The ``serving.*`` status counts of ``stats()``
    are counted from these results, so they hold with tracing off.
    """

    def __init__(self, queue_limit, recorder):
        self.queue_limit = queue_limit
        #: optional :class:`~repro.elastic.TraceRecorder` capturing every
        #: accepted submission as a replayable trace entry
        self.recorder = recorder
        self._cond = threading.Condition()
        self._tickets = itertools.count(1)
        self._order = []
        self._results = {}
        self._closed = False

    def submit(self, submission):
        """Queue a :class:`Submission`; returns its ticket.

        Rejects immediately (a terminal ``"rejected"`` result, not an
        exception) when the queue bound is reached.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is shut down")
            backlog = len(self._order) + 1 - len(self._results)
            full = self.queue_limit and backlog > self.queue_limit
            if self.recorder is not None and not full:
                # a refused recording raises before a ticket exists
                # that drain() would wait for
                self.recorder.record(submission)
            ticket = next(self._tickets)
            if full:
                self._settle_locked(SubmissionResult(
                    ticket=ticket, tenant=submission.tenant,
                    status="rejected",
                    error=f"queue limit {self.queue_limit} reached",
                ))
            else:
                self._dispatch_locked(ticket, submission)
            # issued only once dispatched: nothing settles it before
            # the lock is released
            self._order.append(ticket)
        return ticket

    def poll(self, ticket, timeout=None):
        """The ticket's :class:`SubmissionResult`, or None while it is
        still queued/running (waits up to ``timeout`` seconds)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while ticket not in self._results:
                if deadline is None:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return self._results[ticket]

    def drain(self):
        """Block until every accepted submission is terminal; returns
        all results in submission order."""
        with self._cond:
            while len(self._results) < len(self._order):
                self._cond.wait()
            return [self._results[t] for t in self._order]

    def results(self):
        """Terminal results so far, in submission order."""
        with self._cond:
            return [
                self._results[t] for t in self._order if t in self._results
            ]

    def _close(self):
        """Refuse further submissions; True if already closed."""
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        return already

    def _settle_locked(self, result):
        self._results[result.ticket] = result
        self._cond.notify_all()

    def _status_counts_locked(self):
        """``serving.submitted`` and one ``serving.<status>`` count per
        terminal status, counted from the results."""
        counts = Counter(r.status for r in self._results.values())
        return {
            "serving.submitted": len(self._order),
            **{f"serving.{status}": counts[status] for status in STATUSES},
        }


class ElasticMLServer(RunPipeline, TicketLedger):
    """Multi-tenant serving front end over one simulated cluster.

    ``submit()`` returns immediately with an integer ticket; a bounded
    thread pool prepares submissions concurrently, the admission policy
    gates execution on AM-container capacity, and ``poll()``/``drain()``
    surface :class:`SubmissionResult` records.  Every tenant runs
    through the server's own :class:`~repro.pipeline.RunPipeline`
    stages, so all of them share its belief, calibration collector and
    :class:`~repro.pipeline.ProgramCache` — with each master's
    optimizer decision and run-replay tree — bounded to
    ``program_cache_entries`` masters.
    """

    def __init__(self, cluster=None, params=None, hdfs=None,
                 sample_cap=DEFAULT_SAMPLE_CAP, config=None,
                 policy=None, max_workers=None,
                 queue_limit=1024, retry_policy=None, trace=False,
                 program_cache_entries=32, model_params=None,
                 collector=UNSET, recorder=None, admission_cluster=None):
        config = config if config is not None else SessionConfig()
        RunPipeline.__init__(
            self, config, cluster, params, hdfs, sample_cap,
            retry_policy=retry_policy, model_params=model_params,
            collector=collector,
        )
        TicketLedger.__init__(self, queue_limit, recorder)
        self.program_cache.max_programs = program_cache_entries
        #: the capacity admission runs against.  Normally the full
        #: cluster; a :class:`~repro.serving.shard.ShardedElasticMLServer`
        #: passes its shard's node partition here so concurrency is
        #: bounded shard-locally while optimizer/cost/quota computations
        #: (everything result-affecting) still see ``self.cluster`` —
        #: the partition keeps the node size, so reject-vs-wait verdicts
        #: are identical to the unsharded server's.
        self.admission_cluster = (
            admission_cluster if admission_cluster is not None
            else self.cluster
        )
        self.rm = ResourceManager(self.admission_cluster)
        #: waiting set + policy + RM; every call is made under
        #: ``self._cond`` (the core itself takes no lock)
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.core = AdmissionCore(self.rm, policy)
        self.trace = bool(trace)
        #: server-wide telemetry; per-submission tracers are absorbed
        #: here (serving.* counters, one ``tenant.<name>`` root span per
        #: submission)
        self.tracer = Tracer() if self.trace else NULL_TRACER
        #: wiring, not configuration: a shard worker sets this to a
        #: callable that ships each processed submission's terminal
        #: result to the parent process.  Called from the completing
        #: thread, outside the server's lock.
        self.on_result = None

        self._executor = ThreadPoolExecutor(
            max_workers=(
                max_workers if max_workers is not None
                else default_serving_workers()
            ),
            thread_name_prefix="repro-serve",
        )
        #: ticket -> granted container, handed from the granting thread
        #: to the submission's own thread
        self._granted = {}
        #: containers granted so far (``serving.admitted``)
        self._admitted = 0

    # -- submission lifecycle ----------------------------------------------

    def _dispatch_locked(self, ticket, submission):
        self._executor.submit(self._process, ticket, submission)

    def shutdown(self, wait=True):
        """Stop accepting submissions and (optionally) wait for the
        in-flight ones.

        Submissions parked in admission are aborted with a terminal
        ``"cancelled"`` result (they can never be granted once the
        server stops releasing containers), so ``shutdown(wait=True)``
        returns even with a backlog queued behind a full cluster.
        """
        self._close()
        self._executor.shutdown(wait=wait)

    def stats(self):
        """Serving counters + shared-cache effectiveness, one dict."""
        with self._cond:
            counters = self._status_counts_locked()
            counters["serving.admitted"] = self._admitted
            counters["serving.waiting"] = len(self.core.waiting)
        counters.update({
            "program_cache.hits": self.program_cache.hits,
            "program_cache.misses": self.program_cache.misses,
            "program_cache.evictions": self.program_cache.evictions,
            "optcache.hits":
                self.opt_cache.hits if self.opt_cache is not None else 0,
            "optcache.misses":
                self.opt_cache.misses if self.opt_cache is not None else 0,
        })
        for name, count in self.program_cache.replay_counts().items():
            counters[f"replay.{name}"] = count
        counters["tenant_usage_mb"] = self.rm.usage_by_tenant()
        counters["yarn.quota_denials"] = self.tracer.counter(
            "yarn.quota_denials"
        )
        counters["calib.samples"] = (
            self.calibration.total_samples
            if self.calibration is not None else 0
        )
        counters["calib.fitted_params"] = (
            len(self.calibration_profile.fitted)
            if self.calibration_profile is not None else 0
        )
        return counters

    # -- cross-tenant calibration -------------------------------------------

    def fit_calibration(self, min_samples=None, apply=True):
        """:meth:`RunPipeline.fit_calibration` over the samples every
        tenant execution fed the shared collector, applied by default:
        the fitted constants immediately become the belief used to
        optimize subsequent submissions (the cross-tenant sharing this
        server exists for)."""
        return super().fit_calibration(min_samples, apply)

    # -- per-submission pipeline -------------------------------------------

    def _process(self, ticket, submission):
        tracer = Tracer() if self.trace else NULL_TRACER
        started = time.monotonic()
        with use_tracer(tracer):
            with tracer.span(f"tenant.{submission.tenant}", ticket=ticket):
                try:
                    result = self._serve(
                        ticket, submission, tracer, started
                    )
                except AdmissionCancelled as exc:
                    tracer.incr("serving.cancelled")
                    result = SubmissionResult(
                        ticket=ticket, tenant=submission.tenant,
                        status="cancelled",
                        error=str(exc),
                        latency_s=time.monotonic() - started,
                    )
                except Exception as exc:  # tenant isolation: never bring
                    tracer.incr("serving.failed")  # the server down
                    result = SubmissionResult(
                        ticket=ticket, tenant=submission.tenant,
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                        latency_s=time.monotonic() - started,
                    )
        self._finish(result, tracer)

    def _serve(self, ticket, submission, tracer, started):
        with tracer.span("serve.prepare"):
            source = submission.source
            compiled = self.compile(source, submission.args)
            if submission.resource is not None:
                optimizer_result = None
                resource = submission.resource
            else:
                optimizer_result = self.optimize_cached(
                    source, submission.args, compiled
                )
                resource = optimizer_result.resource
            container_mb = resource.container_request_mb(self.cluster)

        self._ensure_quota(submission.tenant)
        queued = time.monotonic()
        container = self._acquire(ticket, submission.tenant, container_mb)
        if container is None:
            # would wait for capacity (or its own quota) forever
            tracer.incr("serving.rejected")
            return SubmissionResult(
                ticket=ticket, tenant=submission.tenant,
                status="rejected",
                error=(
                    f"AM container of {container_mb} MB can never be "
                    "placed on this cluster"
                ),
                container_mb=container_mb,
                latency_s=time.monotonic() - started,
            )
        wait_s = time.monotonic() - queued
        tracer.incr("serving.admitted")
        if tracer.enabled:
            tracer.gauge(
                f"serving.tenant_share.{submission.tenant}",
                self.rm.tenant_share(submission.tenant),
            )
        try:
            with tracer.span("serve.execute"):
                exec_result = self.execute_program(
                    compiled, resource, seed=submission.seed,
                    adapt=submission.adapt, chaos=submission.chaos,
                )
        finally:
            self._release(container)
        tracer.incr("serving.completed")
        outcome = RunOutcome(
            result=exec_result,
            resource=exec_result.final_resource,
            optimizer_result=optimizer_result,
            compiled=compiled,
            trace=tracer if tracer.enabled else None,
        )
        return SubmissionResult(
            ticket=ticket, tenant=submission.tenant, status="completed",
            outcome=outcome, container_mb=container.memory_mb,
            wait_s=wait_s, latency_s=time.monotonic() - started,
        )

    def _ensure_quota(self, tenant):
        """Apply ``config.tenant_quota_share`` to this tenant (idempotent;
        quotas are per-tenant so they can only be installed once the
        tenant is seen)."""
        share = self.config.tenant_quota_share
        if share is not None and self.rm.tenant_quota_mb(tenant) is None:
            self.rm.set_tenant_quota(tenant, max(
                self.cluster.min_allocation_mb,
                int(share * self.cluster.total_memory_mb),
            ))

    # -- admission ----------------------------------------------------------

    def _acquire(self, ticket, tenant, container_mb):
        """Block until the admission core grants this submission its AM
        container; None when it can never be placed.  Raises
        :class:`AdmissionCancelled` once shutdown() makes a grant
        impossible."""
        with self._cond:
            if self.core.offer(ticket, tenant, container_mb) is None:
                return None
            self._grant_locked()
            while ticket not in self._granted:
                # checked after granting: a grant that squeaked in
                # before shutdown still runs to completion
                if self._closed:
                    self.core.withdraw(ticket)
                    raise AdmissionCancelled(
                        "server shut down while queued for admission"
                    )
                self._cond.wait()
            return self._granted.pop(ticket)

    def _release(self, container):
        with self._cond:
            self.core.release([container])
            self._grant_locked()

    def _grant_locked(self):
        """Hand every container the core grants to its waiting thread."""
        for request, (container,) in self.core.grant():
            self._granted[request.ticket] = container
            self._admitted += 1
            self._cond.notify_all()

    def _finish(self, result, tracer):
        with self._cond:
            if self.tracer.enabled and tracer.enabled:
                self.tracer.absorb(tracer)
            self._settle_locked(result)
        if self.on_result is not None:
            self.on_result(result)
