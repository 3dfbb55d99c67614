"""Sharded multi-process serving: :class:`ShardedElasticMLServer`.

The single-process :class:`~repro.serving.server.ElasticMLServer` is
GIL-bound: its thread pool interleaves compile/optimize/execute on one
core.  This front end partitions the simulated cluster into N
node-disjoint shards (:meth:`~repro.cluster.config.ClusterConfig.partition`)
and runs one full ``ElasticMLServer`` per shard in its own *process*,
so shards prepare and execute truly in parallel.

Architecture::

    parent process                      shard worker process (xN)
    ─────────────────────────          ──────────────────────────────
    submit() ── route ──► cmd queue ─► main loop ─► ElasticMLServer
    poll()/drain() ◄─ collector ◄── event queue ◄─ completion hook
    stats()/shutdown()                  (results, stats, final+tracer)

* **Routing** is deterministic: a :class:`ConsistentHashRouter` maps the
  tenant (or the program, with ``affinity="program"``) to a shard, so a
  tenant's repeat submissions always land where its masters live, each
  with its optimizer decision and replay tree (``ProgramCache``).
* **Determinism**: each shard server optimizes and executes against the
  *full* cluster config — only its admission ``ResourceManager`` sees
  the shard's node partition (``admission_cluster``).  Simulated
  results depend only on (program, input metadata, config, seed), so
  every tenant's result is byte-identical to its serial single-session
  run regardless of shard count, and a 1-shard front end is
  byte-identical to a plain ``ElasticMLServer``.
* **Spec transport**: the worker spec (cluster, params, HDFS file
  metadata) is the ``Process`` argument.  Under ``fork`` (where the
  platform has it) it is inherited copy-on-write; under ``spawn``
  multiprocessing pickles it.  Workers start lazily on the first
  ``submit()``, so all inputs must be prepared on ``hdfs`` before then.
* **Telemetry**: each shard runs its own tracer; at shutdown the final
  per-shard tracer dicts are absorbed into the parent tracer via
  :meth:`~repro.obs.Tracer.absorb`, whose counter/gauge merges are
  order-independent.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from dataclasses import replace

from repro.api import SessionConfig
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import SimulatedHDFS
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP
from repro.serving.admission import ConsistentHashRouter, make_policy
from repro.serving.server import SubmissionResult


def _ship_result(result, global_ticket):
    """Rewrite a shard-local result for the parent: global ticket, and
    without the compiled program, the per-submission tracer and the
    optimizer's CP-point records — the heavyweight fields nobody polls
    across a process boundary.  The canonical identity fields
    (``outcome.result``, ``outcome.resource``) always survive."""
    result = replace(result, ticket=global_ticket)
    if result.outcome is None:
        return result
    opt = result.outcome.optimizer_result
    outcome = replace(
        result.outcome, compiled=None, trace=None,
        optimizer_result=None if opt is None else replace(opt, points=[]),
    )
    return replace(result, outcome=outcome)


def _shard_worker_main(spec, cmd_queue, event_queue):
    """Entry point of one shard process: run a private
    ``ElasticMLServer`` over the shard's cluster partition, shipping
    terminal results (and, on shutdown, final stats + tracer) to the
    parent through the shared event queue."""
    from repro.serving.server import ElasticMLServer

    shard_id = spec["shard_id"]
    server = ElasticMLServer(
        cluster=spec["cluster"],
        params=spec["params"],
        hdfs=spec["hdfs"],
        sample_cap=spec["sample_cap"],
        config=spec["config"],
        policy=spec["policy"],
        max_workers=spec["max_workers"],
        queue_limit=0,  # the parent enforces the global queue bound
        retry_policy=spec["retry_policy"],
        trace=spec["trace"],
        model_params=spec["model_params"],
        admission_cluster=spec["admission_cluster"],
    )
    if server.tracer.enabled:
        server.tracer.gauge("shard.id", shard_id)
    tickets = {}  # local ticket -> global ticket, while in flight
    lock = threading.Lock()

    def ship(result):
        """Completion hook: the thread that finished a submission puts
        its result on the event queue itself."""
        with lock:
            global_ticket = tickets.pop(result.ticket)
        event_queue.put((
            "result", shard_id, _ship_result(result, global_ticket)
        ))

    server.on_result = ship

    while True:
        cmd = cmd_queue.get()
        kind = cmd[0]
        if kind == "submit":
            _, global_ticket, submission = cmd
            # the lock spans submit() so the completion cannot look the
            # ticket up before it is mapped
            with lock:
                try:
                    tickets[server.submit(submission)] = global_ticket
                except Exception as exc:
                    event_queue.put((
                        "result", shard_id,
                        SubmissionResult(
                            ticket=global_ticket, tenant=submission.tenant,
                            status="failed",
                            error=f"{type(exc).__name__}: {exc}",
                        ),
                    ))
        elif kind == "stats":
            _, req_id = cmd
            event_queue.put(("stats", shard_id, req_id, server.stats()))
        elif kind == "shutdown":
            server.shutdown(wait=True)  # every result is shipped by now
            event_queue.put((
                "final", shard_id, server.stats(),
                server.tracer.to_dict() if server.tracer.enabled else None,
            ))
            return


class ShardedElasticMLServer:
    """Multi-process serving front end over a partitioned cluster.

    Drop-in for :class:`~repro.serving.server.ElasticMLServer`:
    ``submit()`` returns a global ticket, ``poll()``/``drain()``/
    ``results()``/``stats()``/``shutdown()`` behave identically.  See
    the module docstring for the architecture.

    Shard processes start lazily on the first ``submit()`` so that
    inputs prepared on ``self.hdfs`` beforehand are visible to every
    shard (fork inherits them; spawn pickles them at start).
    """

    def __init__(self, shards=2, cluster=None, params=None, hdfs=None,
                 sample_cap=DEFAULT_SAMPLE_CAP, config=None,
                 policy="heap-rule", max_workers=None, queue_limit=1024,
                 retry_policy=None, trace=False, model_params=None,
                 recorder=None, affinity="tenant"):
        from repro.cluster import paper_cluster

        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if isinstance(policy, str):
            make_policy(policy)  # fail here, not in every shard worker
        self.config = config if config is not None else SessionConfig()
        self.cluster = cluster if cluster is not None else paper_cluster()
        self.params = params
        self.model_params = model_params
        self.hdfs = (
            hdfs if hdfs is not None
            else SimulatedHDFS(sample_cap=sample_cap)
        )
        self.sample_cap = sample_cap
        self.num_shards = shards
        self.partitions = self.cluster.partition(shards)
        self.policy = policy
        self.max_workers = max_workers
        self.queue_limit = queue_limit
        self.retry_policy = retry_policy
        self.recorder = recorder
        self.trace = bool(trace)
        self.tracer = Tracer() if self.trace else NULL_TRACER
        #: how shard processes start: fork where the platform has it
        self.start_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self.router = ConsistentHashRouter(shards, affinity=affinity)

        self._cond = threading.Condition()
        self._tickets = itertools.count(1)
        self._order = []
        self._results = {}
        #: global ticket -> (shard, tenant) while in flight
        self._inflight = {}
        self._closed = False
        self._started = False
        self._procs = []
        self._cmds = []
        self._events = None
        self._collector = None
        self._stats_ids = itertools.count(1)
        #: shard -> (req_id, stats dict) of the freshest reply
        self._shard_stats = {}
        self._final_stats = {}
        self._finals = threading.Event()
        self._joined = False
        self._parent_rejected = 0

    # -- worker lifecycle ---------------------------------------------------

    def _spec(self, shard_id):
        return {
            "shard_id": shard_id,
            "cluster": self.cluster,
            "admission_cluster": self.partitions[shard_id],
            "params": self.params,
            "model_params": self.model_params,
            "hdfs": self.hdfs,
            "sample_cap": self.sample_cap,
            "config": self.config,
            "policy": self.policy,
            "max_workers": self.max_workers,
            "retry_policy": self.retry_policy,
            "trace": self.trace,
        }

    def _start_locked(self):
        ctx = mp.get_context(self.start_method)
        self._events = ctx.Queue()
        for shard_id in range(self.num_shards):
            cmd_queue = ctx.Queue()
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(self._spec(shard_id), cmd_queue, self._events),
                name=f"repro-shard-{shard_id}",
                daemon=True,  # orphaned shards die with the parent
            )
            proc.start()
            self._procs.append(proc)
            self._cmds.append(cmd_queue)
        self._collector = threading.Thread(
            target=self._collect, name="repro-shard-collector", daemon=True
        )
        self._collector.start()
        self._started = True
        if self.tracer.enabled:
            self.tracer.gauge("shard.count", self.num_shards)
            self.tracer.event(
                "shard.start",
                shards=self.num_shards,
                start_method=self.start_method,
            )

    def _collect(self):
        import queue as queue_mod

        finals = 0
        while finals < self.num_shards:
            try:
                event = self._events.get(timeout=0.5)
            except queue_mod.Empty:
                dead = self._reap_dead_locked()
                finals += dead
                continue
            kind = event[0]
            if kind == "result":
                self._on_result(event[2])
            elif kind == "stats":
                _, shard_id, req_id, stats = event
                with self._cond:
                    self._shard_stats[shard_id] = (req_id, stats)
                    self._cond.notify_all()
            elif kind == "final":
                _, shard_id, stats, tracer_dict = event
                finals += 1
                with self._cond:
                    self._final_stats[shard_id] = stats
                    if tracer_dict is not None and self.tracer.enabled:
                        self.tracer.absorb(Tracer.from_dict(tracer_dict))
                    self._cond.notify_all()
        self._finals.set()
        with self._cond:
            self._cond.notify_all()

    def _reap_dead_locked(self):
        """Synthesize failures for shards that died without a final
        (crash/kill), so drain() and shutdown() cannot hang."""
        reaped = 0
        with self._cond:
            for shard_id, proc in enumerate(self._procs):
                if proc.is_alive() or shard_id in self._final_stats:
                    continue
                self._final_stats[shard_id] = {}
                reaped += 1
                for ticket, (shard, tenant) in list(self._inflight.items()):
                    if shard != shard_id:
                        continue
                    del self._inflight[ticket]
                    self._results[ticket] = SubmissionResult(
                        ticket=ticket, tenant=tenant, status="failed",
                        error=f"shard worker {shard_id} died",
                    )
                self._cond.notify_all()
        return reaped

    def _on_result(self, result):
        with self._cond:
            self._inflight.pop(result.ticket, None)
            self._results[result.ticket] = result
            self._cond.notify_all()

    # -- submission lifecycle -----------------------------------------------

    def submit(self, submission):
        """Route a :class:`~repro.serving.Submission` to its shard;
        returns a global ticket.  Rejects with a terminal ``"rejected"``
        result when the global queue bound is reached."""
        with self._cond:
            if self._closed:
                raise RuntimeError("ShardedElasticMLServer is shut down")
            if not self._started:
                self._start_locked()
            backlog = len(self._order) + 1 - len(self._results)
            full = self.queue_limit and backlog > self.queue_limit
            if self.recorder is not None and not full:
                # a refused recording raises before a ticket exists
                # that drain() would wait for
                self.recorder.record(submission)
            ticket = next(self._tickets)
            self._order.append(ticket)
            if full:
                self._parent_rejected += 1
                self._results[ticket] = SubmissionResult(
                    ticket=ticket, tenant=submission.tenant,
                    status="rejected",
                    error=f"queue limit {self.queue_limit} reached",
                )
                self._cond.notify_all()
                return ticket
            _key, shard = self.router.route(submission)
            self._inflight[ticket] = (shard, submission.tenant)
        self._cmds[shard].put(("submit", ticket, submission))
        return ticket

    def poll(self, ticket, timeout=None):
        """The ticket's :class:`~repro.serving.SubmissionResult`, or
        None while it is still queued/running (waits up to ``timeout``
        seconds)."""
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

    def shutdown(self, wait=True):
        """Stop accepting submissions, drain the shards, absorb their
        tracers, and reap the worker processes.

        With ``wait=False`` the teardown continues on a background
        thread; ``drain()``/``poll()`` keep working meanwhile.
        """
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if not self._started:
            self._finals.set()
            return
        if not already:
            for cmd_queue in self._cmds:
                cmd_queue.put(("shutdown",))
        if wait:
            self._join()
        else:
            threading.Thread(
                target=self._join, name="repro-shard-reaper", daemon=True
            ).start()

    def _join(self):
        self._finals.wait(timeout=300)
        with self._cond:
            if self._joined:
                return
            self._joined = True
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        with self._cond:
            # anything still unresolved after every shard finalized
            # (worker died mid-flight) gets a terminal failure so
            # drain() cannot hang
            for ticket, (shard, tenant) in list(self._inflight.items()):
                del self._inflight[ticket]
                self._results[ticket] = SubmissionResult(
                    ticket=ticket, tenant=tenant, status="failed",
                    error=f"shard worker {shard} died",
                )
            self._cond.notify_all()

    # -- stats --------------------------------------------------------------

    def stats(self):
        """Aggregated serving counters: the per-shard
        ``ElasticMLServer.stats()`` dicts summed key-wise, plus the
        front end's own shard and queue counters and the
        raw per-shard dicts under ``"per_shard"``."""
        per_shard = self._snapshot_shard_stats()
        merged = {}
        for stats in per_shard.values():
            for key, value in stats.items():
                if isinstance(value, dict):
                    bucket = merged.setdefault(key, {})
                    for sub, amount in value.items():
                        bucket[sub] = bucket.get(sub, 0) + amount
                elif isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        with self._cond:
            merged["serving.submitted"] = (
                merged.get("serving.submitted", 0) + self._parent_rejected
            )
            merged["serving.rejected"] = (
                merged.get("serving.rejected", 0) + self._parent_rejected
            )
            merged["shard.count"] = self.num_shards
            merged["shard.start_method"] = self.start_method
            merged["per_shard"] = {
                shard: dict(stats) for shard, stats in per_shard.items()
            }
        return merged

    def _snapshot_shard_stats(self):
        """Fresh per-shard stats: live shards are asked over their
        command queues; shut-down (or dead) shards answer with their
        final snapshot."""
        with self._cond:
            if not self._started:
                return {}
            finals = dict(self._final_stats)
        if len(finals) >= self.num_shards:
            return finals
        req_id = next(self._stats_ids)
        for shard_id, cmd_queue in enumerate(self._cmds):
            if shard_id not in finals:
                cmd_queue.put(("stats", req_id))
        deadline = time.monotonic() + 30
        with self._cond:
            while time.monotonic() < deadline:
                snapshot = dict(self._final_stats)
                for shard_id, (seen, stats) in self._shard_stats.items():
                    if shard_id not in snapshot and seen == req_id:
                        snapshot[shard_id] = stats
                if len(snapshot) >= self.num_shards:
                    return snapshot
                self._cond.wait(0.5)
            return snapshot
