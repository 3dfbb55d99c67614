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
2. **admission** — the ticket, not a thread, waits until the paper's
   1.5x-heap AM container fits under the active
   :class:`~repro.serving.admission.AdmissionPolicy` (Section 5.3:
   allocated AM containers bound concurrency);
3. **execute** — a pool task the grant dispatches (an immediate grant
   runs on the preparing thread): the pipeline's execute stage on a
   private :class:`~repro.runtime.Interpreter` against a per-run HDFS
   view, so fault injection and adaptation never leak between tenants.

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


#: the error of a ticket still waiting for admission at shutdown
CANCELLED = "server shut down before admission"


def default_serving_workers():
    """Serving thread-pool size scaled to the host: one thread per CPU,
    clamped to [2, 8] — the ceiling for the simulated runtime's
    diminishing returns; no thread waits for capacity, so the floor
    stays only until a one-thread measurement shows it serves as well."""
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


class _Run:
    """One submission between its two pool tasks: prepare fills it,
    execute reads it, :meth:`ElasticMLServer._finish` settles it."""

    def __init__(self, ticket, submission, tracer):
        self.ticket = ticket
        self.submission = submission
        self.tracer = tracer
        self.started = time.monotonic()
        #: the ``tenant.<name>`` root span, open until the run settles;
        #: one thread at a time writes the tracer
        self.root = tracer.span(f"tenant.{submission.tenant}", ticket=ticket)
        self.root.__enter__()
        self.optimizer_result = self.container = None


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
        deadline = None if timeout is None else time.monotonic() + timeout
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
        #: the capacity admission runs against: the full cluster, or a
        #: shard's node partition (same node size, so reject-vs-wait
        #: verdicts match the unsharded server's); optimizer, cost and
        #: quota computations (all that affects results) see ``cluster``
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
        #: server-wide telemetry absorbing every submission's tracer
        #: (serving.* counters, one ``tenant.<name>`` root span each)
        self.tracer = Tracer() if self.trace else NULL_TRACER
        #: wiring, not configuration: a shard worker sets this to ship
        #: each terminal result to the parent process; the settling
        #: thread calls it outside the server's lock
        self.on_result = None

        if max_workers is None:
            max_workers = default_serving_workers()
        self._executor = ThreadPoolExecutor(
            max_workers, thread_name_prefix="repro-serve"
        )
        #: ticket -> :class:`_Run` of every request waiting in the core
        self._waiting = {}
        #: containers granted so far (``serving.admitted``)
        self._admitted = 0

    # -- submission lifecycle ----------------------------------------------

    def _dispatch_locked(self, ticket, submission):
        self._executor.submit(self._prepare, ticket, submission)

    def shutdown(self, wait=True):
        """Stop accepting submissions and (optionally) wait for the
        in-flight ones.  Every ticket not yet admitted ends
        ``"cancelled"``, also one prepared after this call; a granted
        ticket runs to completion, so ``shutdown(wait=True)`` returns
        even with a backlog queued behind a full cluster."""
        self._close()
        with self._cond:
            waiting, self._waiting = self._waiting, {}
            for ticket in waiting:
                self.core.withdraw(ticket)
        for run in waiting.values():
            self._finish(run, "cancelled", error=CANCELLED)
        # nothing is offered once closed, so no grant submits after this
        self._executor.shutdown(wait=wait)

    def stats(self):
        """Serving counters + shared-cache effectiveness, one dict."""
        with self._cond:
            counters = self._status_counts_locked()
            counters["serving.admitted"] = self._admitted
            counters["serving.waiting"] = len(self.core.waiting)
            counters["serving.waiting_on_quota"] = sum(
                not self.rm.quota_allows(r.tenant, r.container_mb)
                for r in self.core.waiting.values()
            )
        cache = self.opt_cache
        counters.update({
            "program_cache.hits": self.program_cache.hits,
            "program_cache.misses": self.program_cache.misses,
            "program_cache.evictions": self.program_cache.evictions,
            "optcache.hits": cache.hits if cache is not None else 0,
            "optcache.misses": cache.misses if cache is not None else 0,
        })
        for name, count in self.program_cache.replay_counts().items():
            counters[f"replay.{name}"] = count
        counters["tenant_usage_mb"] = self.rm.usage_by_tenant()
        calibration, profile = self.calibration, self.calibration_profile
        counters["calib.samples"] = (
            calibration.total_samples if calibration is not None else 0
        )
        counters["calib.fitted_params"] = (
            len(profile.fitted) if profile is not None else 0
        )
        return counters

    # -- cross-tenant calibration -------------------------------------------

    def fit_calibration(self, min_samples=None, apply=True):
        """:meth:`RunPipeline.fit_calibration` over the samples every
        tenant execution fed the shared collector, applied by default:
        the fitted constants become the belief that optimizes later
        submissions (the cross-tenant sharing this server exists for)."""
        return super().fit_calibration(min_samples, apply)

    # -- per-submission pipeline: two pool tasks, no thread waits -----------

    def _prepare(self, ticket, submission):
        """Pool task 1: compile, optimize, size the AM container and
        offer it to the admission core.  This thread executes it only if
        the offering locked step grants it, else a later grant does; a
        grant that raises withdraws the offer, so this task settles it."""
        run = _Run(ticket, submission, Tracer() if self.trace else NULL_TRACER)
        try:
            with use_tracer(run.tracer):
                with run.tracer.span("serve.prepare"):
                    source = submission.source
                    run.compiled = self.compile(source, submission.args)
                    run.resource = submission.resource
                    if run.resource is None:
                        run.optimizer_result = self.optimize_cached(
                            source, submission.args, run.compiled
                        )
                        run.resource = run.optimizer_result.resource
                    container_mb = run.resource.container_request_mb(
                        self.cluster
                    )
                with self._cond:
                    self._ensure_quota(submission.tenant)
                    closed = self._closed
                    offered = not closed and self.core.offer(
                        ticket, submission.tenant, container_mb
                    ) is not None
                    if offered:
                        run.queued = time.monotonic()
                        self._waiting[ticket] = run
                        try:
                            self._grant_locked(keep=ticket)
                        except Exception:  # only this task settles it
                            self._waiting.pop(ticket, None)
                            self.core.withdraw(ticket)
                            raise
                    own = run.container is not None
        except Exception as exc:  # tenant isolation: never bring
            error = f"{type(exc).__name__}: {exc}"  # the server down
            return self._finish(run, "failed", run.container, error=error)
        if closed:
            self._finish(run, "cancelled", error=CANCELLED)
        elif not offered:  # would wait for capacity (or quota) forever
            self._finish(run, "rejected", container_mb=container_mb, error=(
                f"AM container of {container_mb} MB can never be placed "
                "on this cluster"
            ))
        elif own:
            self._execute(run)

    def _execute(self, run):
        """Pool task 2, dispatched by the grant: run the program in its
        AM container; settling releases the container."""
        tracer, submission = run.tracer, run.submission
        try:
            with use_tracer(tracer):
                tracer.incr("serving.admitted")
                if tracer.enabled:
                    tracer.gauge(
                        f"serving.tenant_share.{submission.tenant}",
                        self.rm.tenant_share(submission.tenant),
                    )
                with tracer.span("serve.execute"):
                    exec_result = self.execute_program(
                        run.compiled, run.resource, seed=submission.seed,
                        adapt=submission.adapt, chaos=submission.chaos,
                    )
            outcome = RunOutcome(
                result=exec_result, resource=exec_result.final_resource,
                optimizer_result=run.optimizer_result, compiled=run.compiled,
                trace=tracer if tracer.enabled else None,
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return self._finish(run, "failed", run.container, error=error)
        self._finish(
            run, "completed", run.container, outcome=outcome,
            container_mb=run.container.memory_mb, wait_s=run.wait_s,
        )

    def _ensure_quota(self, tenant):
        """Apply ``config.tenant_quota_share`` to ``tenant`` once it is
        seen (quotas are per tenant; idempotent)."""
        share = self.config.tenant_quota_share
        if share is not None and self.rm.tenant_quota_mb(tenant) is None:
            self.rm.set_tenant_quota(tenant, max(
                self.cluster.min_allocation_mb,
                int(share * self.cluster.total_memory_mb),
            ))

    def _grant_locked(self, keep=None):
        """Submit execute for each granted run but ``keep``'s, whose own
        thread runs it (a thread hand-off costs a warm request ~10 % CPU).
        Grants are drawn first: no execute starts while this thread counts
        allocations on a tracer; one drawn before a raise still runs."""
        runs = []
        try:
            for request, containers in self.core.grant():
                run = self._waiting.pop(request.ticket)
                (run.container,) = containers
                run.wait_s = time.monotonic() - run.queued
                self._admitted += 1
                runs.append(run)
        finally:
            for run in runs:
                if run.ticket != keep:
                    self._executor.submit(self._execute, run)

    def _finish(self, run, status, container=None, **fields):
        """Settle ``run`` under its tracer, release its container and
        grant the next tickets in one locked step; ``failed`` if they raise."""
        with use_tracer(run.tracer), self._cond:
            try:
                if container is not None:
                    self.core.release([container])
                    self._grant_locked()
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                status, fields = "failed", {"error": error}
            run.tracer.incr(f"serving.{status}")
            run.root.__exit__(None, None, None)
            if self.tracer.enabled and run.tracer.enabled:
                self.tracer.absorb(run.tracer)
            result = SubmissionResult(
                ticket=run.ticket, tenant=run.submission.tenant,
                status=status, latency_s=time.monotonic() - run.started,
                **fields,
            )
            self._settle_locked(result)
        if self.on_result is not None:
            self.on_result(result)
