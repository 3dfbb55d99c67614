"""Task-parallel resource optimizer (paper Appendix C, Figure 17).

Appendix C only *distributes* Algorithm 1's outer loop, so this module
holds dispatch and nothing else: :class:`ParallelResourceOptimizer` is
the serial :class:`ResourceOptimizer` with the loop over the CP grid
fanned out to a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
master generates the grids, takes **one snapshot** of the compiled
program (plan cache and cost model included) that reaches each worker
at pool startup, and dispatches *batched* chunks of CP grid points, so
one IPC round trip amortizes hundreds of :func:`recompile_block_plan` +
:meth:`CostModel.estimate_block` calls.  Workers map the serial loop's
own :func:`~repro.optimizer.enumerate.enumerate_cp_point` over their
chunk against their private program copy and return its
:class:`~repro.optimizer.enumerate.CPPoint` records plus work-counter
deltas; the master sums the counters and hands the points, in ascending
``r_c`` order, to the serial fold — and therefore chooses the
byte-identical ``(resource, cost)`` the serial optimizer would.

Enumeration stays in-process — the inherited serial loop — when the
grid is too small to amortize a pool (``auto_serial_points``), when a
``time_budget`` is set (a deadline that stops at the first exhausted
``r_c`` in ascending order is sequential by definition), and for block
scopes (workers hold the whole program).

The points carry the measured durations of Appendix C's three task
kinds; :func:`schedule_makespan` list-schedules them on k workers,
which is how Figure 18's speedup shape is reported on hosts with fewer
cores than the paper's.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.errors import OptimizationError
from repro.obs import get_tracer
from repro.optimizer.enumerate import (
    OptimizerResult,
    OptimizerStats,
    ResourceOptimizer,
    count_work,
    enumerate_cp_point,
    fold_cp_points,
)

#: recognised worker snapshot transports
SNAPSHOT_MODES = ("auto", "fork", "pickle")

#: adaptive chunk sizing targets this many chunks per worker: large
#: enough chunks to amortize IPC, small enough that a straggler chunk
#: cannot idle the rest of the pool for long
TARGET_CHUNKS_PER_WORKER = 4

#: default ``auto_serial_points`` of the session layer: below this many
#: enumeration points (CP grid x MR grid x blocks) enumeration stays
#: in-process.  Calibrated on the Table-1 programs: MLogreg M (1440
#: points, 41 ms serial) loses badly to a 4-worker pool while GLM M
#: (6192 points, ~700 ms serial) amortizes it
DEFAULT_AUTO_SERIAL_POINTS = 4096


@dataclass
class TaskRecord:
    """Measured duration of one optimizer task (for makespan modelling)."""

    kind: str  # "baseline" | "enum" | "agg"
    rc: float = 0.0
    block_id: int = 0
    duration: float = 0.0


@dataclass
class ParallelOptimizerResult(OptimizerResult):
    task_records: list = field(default_factory=list)
    num_workers: int = 1
    #: where the enumeration ran: "process" (the pool) or "serial"
    #: (in-process)
    backend: str = "serial"
    #: task chunks dispatched to the pool
    tasks_dispatched: int = 0
    #: serialized snapshot size shipped to workers (0 under fork
    #: inheritance — nothing is serialized)
    snapshot_bytes: int = 0
    #: r_c points per dispatched chunk
    chunk_points: int = 0
    #: worker start method actually used: "fork" (copy-on-write
    #: inheritance) or the multiprocessing default for pickle transport
    start_method: str = ""
    #: per-phase wall-clock breakdown of a pool run
    snapshot_s: float = 0.0
    dispatch_s: float = 0.0
    enumerate_s: float = 0.0
    fold_s: float = 0.0


class ParallelResourceOptimizer(ResourceOptimizer):
    """Grid enumeration fanned out over a pool of worker processes."""

    result_class = ParallelOptimizerResult

    def __init__(self, cluster, params=None, grid_cp="hybrid",
                 grid_mr="hybrid", m=15, w=2.0, num_workers=4,
                 enable_plan_cache=True, auto_serial_points=0,
                 enable_vector_costing=True, chunk_points=None,
                 snapshot="auto", options=None):
        super().__init__(
            cluster, params, grid_cp=grid_cp, grid_mr=grid_mr, m=m, w=w,
            enable_plan_cache=enable_plan_cache,
            enable_vector_costing=enable_vector_costing, options=options,
        )
        if options is not None:
            num_workers = options.num_workers
            auto_serial_points = options.auto_serial_points
            chunk_points = options.chunk_points
            snapshot = options.snapshot
        if snapshot not in SNAPSHOT_MODES:
            raise ValueError(
                f"unknown snapshot mode {snapshot!r}; "
                f"expected one of {SNAPSHOT_MODES}"
            )
        self.num_workers = max(1, num_workers)
        #: CP grid points per dispatched task chunk; None sizes chunks
        #: adaptively — see :meth:`_resolve_chunk_points`
        self.chunk_points = chunk_points
        #: worker snapshot transport: "auto" picks fork inheritance when
        #: the platform supports it, pickle otherwise
        self.snapshot = snapshot
        #: in-process threshold (0 = off): see
        #: :attr:`OptimizerOptions.auto_serial_points`
        self.auto_serial_points = auto_serial_points

    def _resolve_chunk_points(self, n_src):
        """r_c points per chunk: explicit knob, or adaptive sizing that
        targets :data:`TARGET_CHUNKS_PER_WORKER` chunks per worker (the
        old one-r_c-per-chunk default paid one IPC round trip per grid
        point, which dominated small per-point work)."""
        if self.chunk_points is not None:
            return max(1, self.chunk_points)
        return max(
            1,
            math.ceil(n_src / (self.num_workers * TARGET_CHUNKS_PER_WORKER)),
        )

    def _resolve_snapshot(self):
        """The snapshot transport to use: "fork" or "pickle"."""
        if self.snapshot != "auto":
            return self.snapshot
        return (
            "fork" if "fork" in mp.get_all_start_methods() else "pickle"
        )

    def _optimize(self, compiled, scope_blocks, fixed_cp_mb):
        result = super()._optimize(compiled, scope_blocks, fixed_cp_mb)
        tracer = get_tracer()
        if tracer.enabled and result.backend == "process":
            span = tracer.current_span
            span.set("backend", result.backend)
            span.set("workers", result.num_workers)
            tracer.incr("optpar.tasks", result.tasks_dispatched)
            tracer.incr("optpar.enum_records", len(result.task_records))
            tracer.gauge("optpar.workers", result.num_workers)
            tracer.gauge("optpar.snapshot_bytes", result.snapshot_bytes)
            tracer.gauge("optpar.chunk_points", result.chunk_points)
            tracer.incr("optpar.phase.snapshot_s", result.snapshot_s)
            tracer.incr("optpar.phase.dispatch_s", result.dispatch_s)
            tracer.incr("optpar.phase.enumerate_s", result.enumerate_s)
            tracer.incr("optpar.phase.fold_s", result.fold_s)
            # pool workers traced into the void (their processes hold no
            # tracer): mirror the counters the serial loop would have
            # recorded on the session tracer
            tracer.incr("cost.invocations", result.stats.cost_invocations)
            tracer.incr("costcache.hits", result.stats.cost_memo_hits)
            tracer.incr("plancache.hits", result.stats.plan_cache_hits)
            tracer.incr("plancache.misses", result.stats.plan_cache_misses)
        return result

    def _search(self, compiled, blocks, src, srm, cache, cost_blocks,
                deadline, result):
        """Where the CP grid is enumerated: the worker pool, or — when
        the grid is too small to amortize one, a deadline makes the
        walk sequential, or the scope is not the whole program the
        workers hold — the inherited in-process loop."""
        work = len(src) * len(srm) * max(1, len(blocks))
        use_pool = deadline is None and cost_blocks is None
        if work < self.auto_serial_points:
            use_pool = False
            tracer = get_tracer()
            tracer.incr("optpar.auto_serial")
            tracer.event("optimizer.auto_serial", work=work,
                         threshold=self.auto_serial_points)
        if use_pool:
            points = self._dispatch(compiled, blocks, src, srm, cache,
                                    result)
        else:
            points = super()._search(compiled, blocks, src, srm, cache,
                                     cost_blocks, deadline, result)
        result.task_records = _task_records(points)
        return points

    def _dispatch(self, compiled, blocks, src, srm, cache, result):
        """Enumerate ``src`` on the pool and fold the points."""
        result.backend = "process"
        result.num_workers = self.num_workers
        # one snapshot reaches every worker; the freshly attached plan
        # cache (holding the plans the program arrived with) rides along
        # inside ``compiled``, the cost model's emptied memo beside it
        state = {
            "compiled": compiled,
            "cost_model": self.cost_model,
            "min_mb": self.cluster.min_heap_mb,
            "srm": srm,
            "use_cache": cache is not None,
            "prune": self.enable_pruning,
            "vectorize": self.enable_vector_costing,
        }
        mode = self._resolve_snapshot()

        batch = self._resolve_chunk_points(len(src))
        chunks = [src[i:i + batch] for i in range(0, len(src), batch)]
        result.tasks_dispatched = len(chunks)
        result.chunk_points = batch

        t0 = time.perf_counter()
        if mode == "fork":
            # zero-copy transport: the snapshot rides into the workers
            # through fork's copy-on-write address space — nothing is
            # serialized.  Workers mutate only their private COW pages.
            result.start_method = "fork"
            pool_kwargs = dict(
                mp_context=mp.get_context("fork"),
                initializer=_fork_worker_init,
            )
        else:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            result.snapshot_bytes = len(payload)
            result.start_method = mp.get_start_method()
            pool_kwargs = dict(
                initializer=_process_worker_init,
                initargs=(payload,),
            )
        result.snapshot_s = time.perf_counter() - t0

        by_rc = {}
        t0 = time.perf_counter()
        try:
            if mode == "fork":
                # hold the lock across pool creation + submission: the
                # executor forks workers lazily during submit, and every
                # fork must see *this* optimizer's snapshot global
                _FORK_LOCK.acquire()
                _set_fork_snapshot(state)
            pool = ProcessPoolExecutor(
                max_workers=self.num_workers, **pool_kwargs
            )
            try:
                futures = [
                    pool.submit(_process_enumerate_chunk, chunk)
                    for chunk in chunks
                ]
            finally:
                if mode == "fork":
                    _FORK_LOCK.release()
            result.dispatch_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            with pool:
                try:
                    for future in as_completed(futures):
                        chunk_points, chunk_stats = future.result()
                        for point in chunk_points:
                            by_rc[point.rc] = point
                        result.stats.add_work(chunk_stats)
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        finally:
            if mode == "fork":
                # unpin ours; a concurrent optimizer may have parked its own
                with _FORK_LOCK:
                    if _FORK_SNAPSHOT is state:
                        _set_fork_snapshot(None)
        result.enumerate_s = time.perf_counter() - t0
        if len(by_rc) != len(src):
            raise OptimizationError(
                "process enumeration lost grid points: "
                f"expected {len(src)}, got {len(by_rc)}"
            )

        t0 = time.perf_counter()
        points = [by_rc[rc] for rc in src]
        # workers only mutated their snapshot copies: the fold leaves
        # the master program compiled under the returned configuration
        fold_cp_points(result, points, compiled, blocks,
                       self.cluster.min_heap_mb, cache)
        result.fold_s = time.perf_counter() - t0
        return points


def _task_records(points):
    """The points' measured durations as Appendix C task records."""
    records = []
    for point in points:
        records.append(TaskRecord("baseline", point.rc, 0, point.baseline_s))
        records.extend(
            TaskRecord("enum", point.rc, block_id, seconds)
            for block_id, seconds in point.enum_s
        )
        records.append(TaskRecord("agg", point.rc, 0, point.agg_s))
    return records


# -- process-pool worker side ------------------------------------------------
#
# Worker state lives in a module global set by the pool initializer: the
# snapshot reaches each worker exactly once — unpickled from the
# initializer payload under pickle transport, or inherited copy-on-write
# under fork transport — and is reused for every task chunk, so
# per-chunk IPC carries only grid points and their result records.

_WORKER_STATE = None

#: fork-transport snapshot: the master parks the state dict here, holds
#: :data:`_FORK_LOCK` across pool creation + submission (the executor
#: forks workers lazily), and clears it once all chunks completed.  The
#: children's :func:`_fork_worker_init` reads their inherited copy —
#: mutations stay in private copy-on-write pages, so concurrent
#: optimizers and later master work never observe worker state.
_FORK_SNAPSHOT = None
_FORK_LOCK = threading.Lock()


def _set_fork_snapshot(state):
    global _FORK_SNAPSHOT
    _FORK_SNAPSHOT = state


def _adopt_worker_state(state):
    """Make a snapshot dict this process's private worker state (shared
    by the pickle and fork initializers)."""
    global _WORKER_STATE
    compiled = state["compiled"]
    _WORKER_STATE = dict(
        state,
        blocks=list(compiled.last_level_blocks()),
        cache=compiled.plan_cache if state["use_cache"] else None,
    )


def _process_worker_init(payload):
    """Pool initializer (pickle transport): unpack the snapshot."""
    _adopt_worker_state(pickle.loads(payload))


def _fork_worker_init():
    """Pool initializer (fork transport): adopt the snapshot this
    process inherited copy-on-write at fork time."""
    if _FORK_SNAPSHOT is None:  # pragma: no cover - master bug
        raise OptimizationError("fork snapshot missing in worker")
    _adopt_worker_state(_FORK_SNAPSHOT)


def _process_enumerate_chunk(rcs):
    """Map :func:`enumerate_cp_point` over a chunk of CP grid points on
    this worker's snapshot; returns ``(points, stats)`` where ``stats``
    holds the chunk's work-counter deltas."""
    st = _WORKER_STATE
    stats = OptimizerStats()
    with count_work(stats, st["compiled"], st["cost_model"], st["cache"]):
        points = [
            enumerate_cp_point(
                st["compiled"], st["blocks"], rc, st["min_mb"], st["srm"],
                st["cost_model"], st["cache"], prune=st["prune"],
                vectorize=st["vectorize"], stats=stats,
            )
            for rc in rcs
        ]
    return points, stats


def schedule_makespan(records, num_workers, include_pipelining=True):
    """List-scheduling makespan of the measured task durations on
    ``num_workers`` workers.

    Models the paper's architecture: the master's per-r_c baseline
    compilations pipeline with worker enumeration (a worker can start a
    r_c's enum tasks only after that baseline finished), and each agg
    task additionally waits for its r_c's enum tasks.
    """
    baselines = [r for r in records if r.kind == "baseline"]
    master_time = 0.0
    release = {}
    for rec in sorted(baselines, key=lambda r: r.rc):
        master_time += rec.duration
        release[rec.rc] = master_time

    workers = [0.0] * max(1, num_workers)
    enum_done = {}
    for rec in [r for r in records if r.kind == "enum"]:
        idx = min(range(len(workers)), key=lambda i: workers[i])
        start = max(
            workers[idx], release.get(rec.rc, 0.0) if include_pipelining else 0.0
        )
        workers[idx] = start + rec.duration
        enum_done[rec.rc] = max(enum_done.get(rec.rc, 0.0), workers[idx])
    for rec in [r for r in records if r.kind == "agg"]:
        idx = min(range(len(workers)), key=lambda i: workers[i])
        start = max(workers[idx], enum_done.get(rec.rc, release.get(rec.rc, 0.0)))
        workers[idx] = start + rec.duration
    return max([master_time] + workers) if include_pipelining else (
        master_time + max(workers)
    )
