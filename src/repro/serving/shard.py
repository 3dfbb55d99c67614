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
  tenant to a shard, so a tenant's repeat submissions always land where
  its masters live, each with its optimizer decision and replay tree
  (``ProgramCache``), and each shard server holds the tenant's quota
  (``tenant_quota_share``) once.
* **Determinism**: each shard server optimizes and executes against the
  *full* cluster config — only its admission ``ResourceManager`` sees
  the shard's node partition (``admission_cluster``).  Simulated
  results depend only on (program, input metadata, config, seed), so
  every tenant's result is byte-identical to its serial single-session
  run regardless of shard count, and a 1-shard front end is
  byte-identical to a plain ``ElasticMLServer``.
* **Spec transport**: the shard server's constructor arguments
  (cluster, params, HDFS file metadata, ...) are the ``Process``
  argument.  Under ``fork`` (where the
  platform has it) it is inherited copy-on-write; under ``spawn``
  multiprocessing pickles it.  Workers start lazily on the first
  ``submit()``, so all inputs must be prepared on ``hdfs`` before then.
* **Ledger**: the parent is a :class:`~repro.serving.server.TicketLedger`
  like the plain server — its own tickets, queue bound and terminal
  results — so ``stats()`` counts ``serving.*`` statuses itself and
  sums only what the shards alone know (admissions, waiting, caches,
  replay).
* **Telemetry**: each shard runs its own tracer; at shutdown the final
  per-shard tracer dicts are absorbed into the parent tracer via
  :meth:`~repro.obs.Tracer.absorb`, whose counter/gauge merges are
  order-independent.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import queue
import threading
import time
from dataclasses import replace

from repro.api import SessionConfig
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import SimulatedHDFS
from repro.runtime.matrix import DEFAULT_SAMPLE_CAP
from repro.serving.admission import ConsistentHashRouter
from repro.serving.server import (
    ElasticMLServer,
    SubmissionResult,
    TicketLedger,
)


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


def _shard_worker_main(shard_id, server_kwargs, cmd_queue, event_queue):
    """Entry point of one shard process: run a private
    ``ElasticMLServer`` over the shard's cluster partition, shipping
    terminal results (and, on shutdown, final stats + tracer) to the
    parent through the shared event queue."""
    # the parent enforces the global queue bound
    server = ElasticMLServer(queue_limit=0, **server_kwargs)
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
            # ticket up before it is mapped (unbounded, unrecorded and
            # open until "shutdown", the shard's submit never refuses)
            with lock:
                tickets[server.submit(submission)] = global_ticket
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


class ShardedElasticMLServer(TicketLedger):
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
                 max_workers=None, queue_limit=1024, retry_policy=None,
                 trace=False, model_params=None, recorder=None):
        from repro.cluster import paper_cluster

        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        super().__init__(queue_limit, recorder)
        self.config = config if config is not None else SessionConfig()
        self.cluster = cluster if cluster is not None else paper_cluster()
        self.hdfs = (
            hdfs if hdfs is not None
            else SimulatedHDFS(sample_cap=sample_cap)
        )
        self.num_shards = shards
        self.partitions = self.cluster.partition(shards)
        self.tracer = Tracer() if trace else NULL_TRACER
        #: how shard processes start: fork where the platform has it
        self.start_method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self.router = ConsistentHashRouter(shards)
        #: what every shard's ElasticMLServer is built with, besides
        #: its node partition
        self._server_kwargs = dict(
            cluster=self.cluster, params=params, hdfs=self.hdfs,
            sample_cap=sample_cap, config=self.config,
            max_workers=max_workers, retry_policy=retry_policy,
            trace=trace, model_params=model_params,
        )

        #: global ticket -> (shard, tenant) while in flight
        self._inflight = {}
        self._started = False
        self._procs = []
        self._cmds = []
        self._events = None
        self._stats_ids = itertools.count(1)
        #: shard -> (req_id, stats dict) of the freshest reply
        self._shard_stats = {}
        #: shard -> its last stats; ``{}`` for a shard that died
        self._final_stats = {}
        self._finals = threading.Event()
        self._joined = False

    # -- worker lifecycle ---------------------------------------------------

    def _start_locked(self):
        ctx = mp.get_context(self.start_method)
        self._events = ctx.Queue()
        for shard_id, partition in enumerate(self.partitions):
            cmd_queue = ctx.Queue()
            server_kwargs = dict(
                self._server_kwargs, admission_cluster=partition
            )
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(shard_id, server_kwargs, cmd_queue, self._events),
                name=f"repro-shard-{shard_id}",
                daemon=True,  # orphaned shards die with the parent
            )
            proc.start()
            self._procs.append(proc)
            self._cmds.append(cmd_queue)
        threading.Thread(
            target=self._collect, name="repro-shard-collector", daemon=True
        ).start()
        self._started = True
        if self.tracer.enabled:
            self.tracer.gauge("shard.count", self.num_shards)
            self.tracer.event(
                "shard.start",
                shards=self.num_shards,
                start_method=self.start_method,
            )

    def _collect(self):
        finals = 0
        while finals < self.num_shards:
            try:
                event = self._events.get(timeout=0.5)
            except queue.Empty:
                finals += self._reap_dead()
                continue
            kind = event[0]
            with self._cond:
                if kind == "result":
                    result = event[2]
                    # a ticket failed for a dead shard stays failed
                    if self._inflight.pop(result.ticket, None):
                        self._settle_locked(result)
                elif kind == "stats":
                    _, shard_id, req_id, stats = event
                    self._shard_stats[shard_id] = (req_id, stats)
                    self._cond.notify_all()
                elif kind == "final":
                    _, shard_id, stats, tracer_dict = event
                    finals += 1
                    self._final_stats[shard_id] = stats
                    if tracer_dict is not None and self.tracer.enabled:
                        self.tracer.absorb(Tracer.from_dict(tracer_dict))
                    self._cond.notify_all()
        self._finals.set()

    def _reap_dead(self):
        """Finalize the shards that died without a final (crash/kill)
        so drain() and shutdown() cannot hang; returns how many."""
        with self._cond:
            dead = {
                shard_id for shard_id, proc in enumerate(self._procs)
                if not proc.is_alive() and shard_id not in self._final_stats
            }
            for shard_id in dead:
                self._final_stats[shard_id] = {}
            self._fail_inflight_locked(dead)
        return len(dead)

    def _fail_inflight_locked(self, shards):
        """A failed result for every in-flight ticket of ``shards``."""
        for ticket, (shard, tenant) in list(self._inflight.items()):
            if shard in shards:
                del self._inflight[ticket]
                self._settle_locked(SubmissionResult(
                    ticket=ticket, tenant=tenant, status="failed",
                    error=f"shard worker {shard} died",
                ))

    # -- submission lifecycle -----------------------------------------------

    def _dispatch_locked(self, ticket, submission):
        """Route to the submission's shard; a shard already reaped
        fails it at once."""
        if not self._started:
            self._start_locked()
        shard = self.router.route(submission)
        self._inflight[ticket] = (shard, submission.tenant)
        if shard in self._final_stats:
            self._fail_inflight_locked({shard})
        else:
            self._cmds[shard].put(("submit", ticket, submission))

    def shutdown(self, wait=True):
        """Stop accepting submissions, drain the shards, absorb their
        tracers, and reap the worker processes.

        With ``wait=False`` the teardown continues on a background
        thread; ``drain()``/``poll()`` keep working meanwhile.
        """
        already = self._close()
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
            # every shard is gone: whatever is still in flight died
            # with its worker
            self._fail_inflight_locked(range(self.num_shards))

    # -- stats --------------------------------------------------------------

    def stats(self):
        """Aggregated serving counters: the ``serving.*`` statuses from
        the front end's own results, what only the shards know (their
        ``ElasticMLServer.stats()`` dicts summed key-wise), the shard
        counters, and the raw per-shard dicts under ``"per_shard"``."""
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
            # a shard's statuses miss the front end's queue rejections
            # and the tickets of a dead shard
            merged.update(self._status_counts_locked())
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
