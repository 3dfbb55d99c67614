"""Task-parallel resource optimizer (paper Appendix C, Figure 17).

Two backends share one public class, :class:`ParallelResourceOptimizer`:

* ``backend="process"`` (the default) — real wall-clock parallelism on
  a :class:`~concurrent.futures.ProcessPoolExecutor`.  The master
  generates the grids, pickles **one snapshot** of the compiled program
  (plan cache included) that ships to each worker at pool startup, and
  dispatches *batched* task chunks: each chunk covers every
  ``(r_c, block)`` enumeration point of one or more CP grid points, so
  one IPC round trip amortizes hundreds of
  :func:`recompile_block_plan` + :meth:`CostModel.estimate_block`
  calls.  Workers run the exact per-``r_c`` loop of the serial
  optimizer (baseline compile, prune, per-block MR enumeration,
  whole-program aggregate costing) against their private program copy,
  plan cache, and cost memo, and return the chosen per-block MR vector,
  the aggregate cost, measured task durations, and counter deltas.  The
  master merges worker stats/cache counters back, replays the serial
  selection rule (:func:`update_best`) over the CP grid in ascending
  order, and therefore chooses the byte-identical ``(resource, cost)``
  the serial optimizer would.

* ``backend="thread"`` — the paper's master/worker architecture with a
  central task queue (``Enum_Srm`` / ``Agg_rc`` tasks, lock-free memo
  updates).  CPython's GIL prevents real compute parallelism here, so
  alongside the measured wall clock the module provides
  :func:`schedule_makespan` — a list-scheduling model over the measured
  per-task durations that reports what a k-worker schedule achieves
  (used for Figure 18's speedup shape; the benchmark prints model and
  measured process-backend reality side by side).
"""

from __future__ import annotations

import copy
import math
import multiprocessing as mp
import pickle
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from repro.cluster.resources import ResourceConfig
from repro.compiler.pipeline import recompile_block_plan
from repro.compiler.plan_cache import PlanCache
from repro.cost import CostModel
from repro.errors import OptimizationError
from repro.obs import get_tracer, use_tracer
from repro.optimizer.enumerate import (
    OptimizerResult,
    OptimizerStats,
    ResourceOptimizer,
    enumerate_block_mr,
    update_best,
)
from repro.optimizer.grids import collect_memory_estimates_mb, generate_grid
from repro.optimizer.pruning import prune_program_blocks

#: recognised enumeration backends
BACKENDS = ("process", "thread")

#: recognised worker snapshot transports (process backend)
SNAPSHOT_MODES = ("auto", "fork", "pickle")

#: adaptive chunk sizing targets this many chunks per worker: large
#: enough chunks to amortize IPC, small enough that a straggler chunk
#: cannot idle the rest of the pool for long
TARGET_CHUNKS_PER_WORKER = 4

#: default auto-backend threshold used by the session layer: below this
#: many enumeration points (CP grid x MR grid x blocks) the process
#: backend falls back to serial.  Calibrated on the Table-1 programs:
#: MLogreg M (1440 points, 41 ms serial) loses badly to a 4-worker pool
#: while GLM M (6192 points, ~700 ms serial) amortizes it
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
    #: which enumeration backend produced this result
    backend: str = "thread"
    #: task chunks dispatched to the pool (process backend)
    tasks_dispatched: int = 0
    #: serialized snapshot size shipped to workers (0 under fork
    #: inheritance — nothing is serialized)
    snapshot_bytes: int = 0
    #: r_c points per dispatched chunk (process backend)
    chunk_points: int = 0
    #: worker start method actually used: "fork" (copy-on-write
    #: inheritance) or the multiprocessing default for pickle transport
    start_method: str = ""
    #: per-phase wall-clock breakdown of the process backend
    snapshot_s: float = 0.0
    dispatch_s: float = 0.0
    enumerate_s: float = 0.0
    fold_s: float = 0.0


class ParallelResourceOptimizer:
    """Grid enumeration fanned out over worker processes or threads."""

    def __init__(self, cluster, params=None, grid_cp="hybrid",
                 grid_mr="hybrid", m=15, w=2.0, num_workers=4,
                 enable_plan_cache=True, backend="process",
                 auto_serial_points=0, enable_vector_costing=True,
                 chunk_points=None, snapshot="auto", options=None):
        if options is not None:
            grid_cp, grid_mr = options.grid_cp, options.grid_mr
            m, w = options.m, options.w
            enable_plan_cache = options.enable_plan_cache
            num_workers = options.num_workers
            backend = options.backend
            auto_serial_points = options.auto_serial_points
            enable_vector_costing = options.enable_vector_costing
            chunk_points = options.chunk_points
            snapshot = options.snapshot
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown enumeration backend {backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if snapshot not in SNAPSHOT_MODES:
            raise ValueError(
                f"unknown snapshot mode {snapshot!r}; "
                f"expected one of {SNAPSHOT_MODES}"
            )
        self.cluster = cluster
        self.params = params
        self.grid_cp = grid_cp
        self.grid_mr = grid_mr
        self.m = m
        self.w = w
        self.num_workers = max(1, num_workers)
        #: ablation switch: disable the memoizing plan/cost cache
        self.enable_plan_cache = enable_plan_cache
        #: ablation switch: disable vectorized MR-grid batch costing
        self.enable_vector_costing = enable_vector_costing
        #: "process" (wall-clock parallel) or "thread" (Appendix C model)
        self.backend = backend
        #: CP grid points per dispatched task chunk (process backend);
        #: None sizes chunks adaptively — see :meth:`_resolve_chunk_points`
        self.chunk_points = chunk_points
        #: worker snapshot transport: "auto" picks fork inheritance when
        #: the platform supports it, pickle otherwise
        self.snapshot = snapshot
        #: auto backend policy threshold (0 = off): see
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

    def _enumeration_work(self, compiled):
        """Upper bound on enumeration points: CP grid x MR grid x
        last-level blocks (the auto backend policy's work measure)."""
        estimates = collect_memory_estimates_mb(compiled)
        min_mb = self.cluster.min_heap_mb
        max_mb = self.cluster.max_heap_mb
        src = generate_grid(self.grid_cp, min_mb, max_mb, estimates,
                            self.m, self.w)
        srm = generate_grid(self.grid_mr, min_mb, max_mb, estimates,
                            self.m, self.w)
        blocks = len(list(compiled.last_level_blocks()))
        return len(src) * len(srm) * max(1, blocks)

    def _serial_fallback(self, compiled, work):
        """Run the serial optimizer on a grid too small to amortize the
        process pool (IPC + snapshot pickling dominate), repackaged so
        callers still see a backend-annotated result."""
        tracer = get_tracer()
        tracer.incr("optpar.auto_serial")
        tracer.event("optimizer.auto_serial", work=work,
                     threshold=self.auto_serial_points)
        serial = ResourceOptimizer(
            self.cluster, self.params, grid_cp=self.grid_cp,
            grid_mr=self.grid_mr, m=self.m, w=self.w,
            enable_plan_cache=self.enable_plan_cache,
            enable_vector_costing=self.enable_vector_costing,
        ).optimize(compiled)
        return ParallelOptimizerResult(
            resource=serial.resource,
            cost=serial.cost,
            stats=serial.stats,
            cp_profile=serial.cp_profile,
            num_workers=1,
            backend="serial",
            tasks_dispatched=0,
        )

    def optimize(self, compiled):
        tracer = get_tracer()
        if self.backend == "process" and self.auto_serial_points > 0:
            work = self._enumeration_work(compiled)
            if work < self.auto_serial_points:
                return self._serial_fallback(compiled, work)
        with tracer.span(
            "optimizer.optimize", scope="program",
            backend=self.backend, workers=self.num_workers,
        ) as span:
            if self.backend == "process":
                result = self._optimize_process(compiled)
            else:
                result = self._optimize_thread(compiled)
            if tracer.enabled:
                span.set("cost_s", result.cost)
                span.set("resource", result.resource.describe()
                         if result.resource else None)
                tracer.incr("optimizer.runs")
                tracer.incr("optimizer.pruned_small",
                            result.stats.pruned_small)
                tracer.incr("optimizer.pruned_unknown",
                            result.stats.pruned_unknown)
                tracer.incr("optimizer.grid_points",
                            len(result.cp_profile))
                tracer.incr("optpar.tasks", result.tasks_dispatched)
                tracer.incr("optpar.enum_records",
                            len(result.task_records))
                tracer.gauge("optpar.workers", result.num_workers)
                if result.backend == "process":
                    tracer.gauge("optpar.snapshot_bytes",
                                 result.snapshot_bytes)
                    tracer.gauge("optpar.chunk_points",
                                 result.chunk_points)
                    tracer.incr("optpar.phase.snapshot_s",
                                result.snapshot_s)
                    tracer.incr("optpar.phase.dispatch_s",
                                result.dispatch_s)
                    tracer.incr("optpar.phase.enumerate_s",
                                result.enumerate_s)
                    tracer.incr("optpar.phase.fold_s", result.fold_s)
                if self.backend == "process":
                    # pool workers traced into the void (their processes
                    # hold no tracer): mirror the counters the serial
                    # path would have recorded on the session tracer —
                    # thread workers share this tracer and have already
                    # incremented them directly
                    tracer.incr("cost.invocations",
                                result.stats.cost_invocations)
                    tracer.incr("costcache.hits",
                                result.stats.cost_memo_hits)
                    tracer.incr("plancache.hits",
                                result.stats.plan_cache_hits)
                    tracer.incr("plancache.misses",
                                result.stats.plan_cache_misses)
            return result

    # -- process backend -----------------------------------------------------

    def _optimize_process(self, compiled):
        start = time.perf_counter()
        compiled.stats.reset()
        min_mb = self.cluster.min_heap_mb
        max_mb = self.cluster.max_heap_mb
        estimates = collect_memory_estimates_mb(compiled)
        src = generate_grid(self.grid_cp, min_mb, max_mb, estimates,
                            self.m, self.w)
        srm = generate_grid(self.grid_mr, min_mb, max_mb, estimates,
                            self.m, self.w)
        if not src or not srm:
            raise OptimizationError("empty resource grid")

        result = ParallelOptimizerResult(
            num_workers=self.num_workers, backend="process"
        )
        result.stats = OptimizerStats(cp_points=len(src), mr_points=len(srm))
        blocks = list(compiled.last_level_blocks())
        result.stats.total_blocks = len(blocks)

        # one snapshot ships to every worker: attach a fresh (empty)
        # plan cache first so workers inherit caching without a second
        # message (None detaches any stale cache from a previous run)
        cache = PlanCache() if self.enable_plan_cache else None
        compiled.plan_cache = cache
        state = {
            "compiled": compiled,
            "cluster": self.cluster,
            "params": self.params,
            "min_mb": min_mb,
            "srm": srm,
            "enable_plan_cache": self.enable_plan_cache,
            "enable_vector_costing": self.enable_vector_costing,
        }
        mode = self._resolve_snapshot()

        batch = self._resolve_chunk_points(len(src))
        chunks = [src[i:i + batch] for i in range(0, len(src), batch)]
        result.tasks_dispatched = len(chunks)
        result.chunk_points = batch

        points = {}  # rc -> packed worker-reported point tuple
        totals = [0] * 7  # counter deltas, see _process_enumerate_chunk
        t0 = time.perf_counter()
        if mode == "fork":
            # zero-copy transport: the snapshot rides into the workers
            # through fork's copy-on-write address space — nothing is
            # serialized.  Workers mutate only their private COW pages.
            ctx = mp.get_context("fork")
            payload = None
            result.snapshot_bytes = 0
            result.start_method = "fork"
            pool_kwargs = dict(
                mp_context=ctx,
                initializer=_fork_worker_init,
                initargs=(),
            )
        else:
            ctx = None
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            result.snapshot_bytes = len(payload)
            result.start_method = mp.get_start_method()
            pool_kwargs = dict(
                initializer=_process_worker_init,
                initargs=(payload,),
            )
        result.snapshot_s = time.perf_counter() - t0

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
                        chunk_points, *deltas = future.result()
                        for point in chunk_points:
                            points[point[0]] = point
                        for i, delta in enumerate(deltas):
                            totals[i] += delta
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        finally:
            if mode == "fork":
                _set_fork_snapshot(None)  # unpin the snapshot's memory
        result.enumerate_s = time.perf_counter() - t0
        if len(points) != len(src):
            raise OptimizationError(
                "process enumeration lost grid points: "
                f"expected {len(src)}, got {len(points)}"
            )

        t0 = time.perf_counter()
        # pruning is reported at the first CP point, exactly like the
        # serial optimizer (MR usage is maximal at min heap)
        _, _, _, pruned_small, pruned_unknown, remaining, _ = points[src[0]]
        result.stats.pruned_small = pruned_small
        result.stats.pruned_unknown = pruned_unknown
        result.stats.remaining_blocks = remaining

        # replay the serial selection rule over the CP grid in ascending
        # order: identical update_best sequence => identical choice
        best_resource = None
        best_cost = float("inf")
        for rc in src:
            _, vector, cost, _, _, _, records = points[rc]
            chosen = ResourceConfig(
                cp_heap_mb=rc,
                mr_heap_mb=min_mb,
                mr_heap_per_block=dict(vector),
            )
            result.cp_profile.append((rc, cost))
            best_resource, best_cost = update_best(
                best_resource, best_cost, chosen, cost
            )
            result.task_records.extend(
                TaskRecord(*record) for record in records
            )

        # leave the master program compiled under the returned
        # configuration (workers only mutated their snapshot copies)
        for block in blocks:
            recompile_block_plan(compiled, block, best_resource, cache=cache)
        compiled.resource = best_resource
        result.fold_s = time.perf_counter() - t0

        result.resource = best_resource
        result.cost = best_cost
        result.stats.optimization_time = time.perf_counter() - start
        (compilations, cost_invocations, cost_memo_hits, cache_hits,
         cache_misses, mr_points_skipped, mr_points_batched) = totals
        result.stats.block_compilations = (
            compiled.stats.block_compilations + compilations
        )
        result.stats.cost_invocations = cost_invocations
        result.stats.cost_memo_hits = cost_memo_hits
        result.stats.mr_points_skipped = mr_points_skipped
        result.stats.mr_points_batched = mr_points_batched
        if cache is not None:
            result.stats.plan_cache_hits = cache.hits + cache_hits
            result.stats.plan_cache_misses = cache.misses + cache_misses
        return result

    # -- thread backend ------------------------------------------------------

    def _optimize_thread(self, compiled):
        """Master/worker enumeration with a central task queue.

        The master enumerates CP memory budgets, performs the per-r_c
        baseline compilation and pruning, and enqueues ``Enum_Srm``
        tasks (one per remaining (r_c, block): enumerate the MR
        dimension, update the shared memo) and ``Agg_rc`` tasks (once
        all block entries for r_c are present, compile the program under
        the memoized vector and record the aggregate cost).  Workers own
        deep copies of the program so concurrent recompilation never
        races; memo updates are lock-free dictionary writes (exactly the
        design of the paper).
        """
        start = time.perf_counter()
        compiled.stats.reset()
        min_mb = self.cluster.min_heap_mb
        max_mb = self.cluster.max_heap_mb
        estimates = collect_memory_estimates_mb(compiled)
        src = generate_grid(self.grid_cp, min_mb, max_mb, estimates,
                            self.m, self.w)
        srm = generate_grid(self.grid_mr, min_mb, max_mb, estimates,
                            self.m, self.w)

        result = ParallelOptimizerResult(
            num_workers=self.num_workers, backend="thread"
        )
        result.stats = OptimizerStats(cp_points=len(src), mr_points=len(srm))

        cache = None
        if self.enable_plan_cache:
            # attach before workers deep-copy the program: each copy gets
            # its own empty PlanCache sharing the master's thresholds
            cache = PlanCache()
            compiled.plan_cache = cache

        memo = {}  # (rc, block_id) -> (ri, cost)
        expected = {}  # rc -> set of block ids workers must fill
        agg_costs = {}  # rc -> program cost
        records = []
        records_lock = threading.Lock()
        errors = []  # first worker exception wins, re-raised after join
        tasks = queue.Queue()
        stop = object()
        tasks_dispatched = 0

        def record(kind, rc, block_id, duration):
            with records_lock:
                records.append(TaskRecord(kind, rc, block_id, duration))

        # master phase: per-rc baseline compilation and pruning, task gen
        blocks = list(compiled.last_level_blocks())
        result.stats.total_blocks = len(blocks)
        baseline_costs = {}
        master_cost_model = CostModel(self.cluster, self.params)
        for rc in src:
            t0 = time.perf_counter()
            baseline = ResourceConfig(cp_heap_mb=rc, mr_heap_mb=min_mb)
            for block in blocks:
                recompile_block_plan(compiled, block, baseline, cache=cache)
            remaining, pruned_small, pruned_unknown = prune_program_blocks(
                blocks
            )
            if rc == src[0]:
                result.stats.pruned_small = len(pruned_small)
                result.stats.pruned_unknown = len(pruned_unknown)
                result.stats.remaining_blocks = len(remaining)
            expected[rc] = {b.block_id for b in remaining}
            for block in remaining:
                baseline_costs[(rc, block.block_id)] = (
                    master_cost_model.estimate_block(
                        compiled, block, baseline,
                        use_memo=cache is not None,
                    )
                )
            record("baseline", rc, 0, time.perf_counter() - t0)
            for block in remaining:
                tasks.put(("enum", rc, block.block_id))
                tasks_dispatched += 1
            tasks.put(("agg", rc, None))
            tasks_dispatched += 1
        result.tasks_dispatched = tasks_dispatched

        worker_caches = []
        worker_cost_models = []
        worker_compilations = []

        # workers inherit the master's tracer explicitly: the active
        # tracer is thread-local, so a freshly spawned thread would
        # otherwise record into the process default
        master_tracer = get_tracer()

        # workers
        def worker():
            with use_tracer(master_tracer):
                _worker_loop()

        def _worker_loop():
            try:
                local = copy.deepcopy(compiled)
                local_blocks = {
                    b.block_id: b for b in local.last_level_blocks()
                }
                local_cache = local.plan_cache if cache is not None else None
                cost_model = CostModel(self.cluster, self.params)
                compiled_at_copy = local.stats.block_compilations
                with records_lock:
                    if local_cache is not None:
                        worker_caches.append(local_cache)
                    worker_cost_models.append(cost_model)
            except Exception as exc:  # noqa: BLE001 - reported to master
                with records_lock:
                    errors.append(exc)
                # drain so tasks.join() cannot hang on our share of tasks
                while True:
                    task = tasks.get()
                    if task is stop:
                        tasks.put(stop)
                        return
                    tasks.task_done()
            while True:
                task = tasks.get()
                if task is stop:
                    tasks.put(stop)
                    with records_lock:
                        worker_compilations.append(
                            local.stats.block_compilations - compiled_at_copy
                        )
                    return
                try:
                    if errors:
                        continue  # a worker failed: just drain the queue
                    kind, rc, block_id = task
                    t0 = time.perf_counter()
                    if kind == "enum":
                        block = local_blocks[block_id]
                        best, _ = enumerate_block_mr(
                            local, block, rc, min_mb, srm, cost_model,
                            baseline_costs[(rc, block_id)],
                            cache=local_cache,
                            vectorize=self.enable_vector_costing,
                        )
                        memo[(rc, block_id)] = best  # lock-free update
                        record("enum", rc, block_id,
                               time.perf_counter() - t0)
                    else:  # agg: probe until all block entries are present
                        failed = False
                        while not all(
                            (rc, bid) in memo for bid in expected[rc]
                        ):
                            if errors:
                                # the producer died; entries never arrive
                                failed = True
                                break
                            time.sleep(0.0005)
                        if not failed:
                            chosen = ResourceConfig(
                                cp_heap_mb=rc,
                                mr_heap_mb=min_mb,
                                mr_heap_per_block={
                                    bid: memo[(rc, bid)][0]
                                    for bid in expected[rc]
                                },
                            )
                            for block in local_blocks.values():
                                recompile_block_plan(
                                    local, block, chosen, cache=local_cache
                                )
                            agg_costs[rc] = cost_model.estimate_program(
                                local, chosen
                            )
                            record("agg", rc, 0, time.perf_counter() - t0)
                except Exception as exc:  # noqa: BLE001 - reported to master
                    with records_lock:
                        errors.append(exc)
                finally:
                    # unconditionally, or tasks.join() deadlocks when a
                    # task raises
                    tasks.task_done()

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(self.num_workers)
        ]
        for thread in threads:
            thread.start()
        tasks.join()
        tasks.put(stop)
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        if not agg_costs:
            raise OptimizationError(
                "parallel enumeration produced no grid points"
            )

        # same selection rule as the serial optimizer: walk the CP grid
        # in ascending order, keep the cheapest, break near-ties towards
        # the minimal footprint
        best_resource = None
        best_cost = float("inf")
        for rc in src:
            if rc not in agg_costs:
                continue
            chosen = ResourceConfig(
                cp_heap_mb=rc,
                mr_heap_mb=min_mb,
                mr_heap_per_block={
                    bid: memo[(rc, bid)][0] for bid in expected[rc]
                },
            )
            best_resource, best_cost = update_best(
                best_resource, best_cost, chosen, agg_costs[rc]
            )

        # leave the master program compiled under the returned
        # configuration (workers only mutated their deep copies)
        for block in blocks:
            recompile_block_plan(compiled, block, best_resource, cache=cache)
        compiled.resource = best_resource

        result.resource = best_resource
        result.cost = best_cost
        result.cp_profile = sorted(agg_costs.items())
        result.task_records = records
        result.stats.optimization_time = time.perf_counter() - start
        result.stats.block_compilations = (
            compiled.stats.block_compilations + sum(worker_compilations)
        )
        result.stats.cost_invocations = (
            master_cost_model.invocations
            + sum(cm.invocations for cm in worker_cost_models)
        )
        result.stats.cost_memo_hits = (
            master_cost_model.memo_hits
            + sum(cm.memo_hits for cm in worker_cost_models)
        )
        if cache is not None:
            # fold the per-worker caches back into the master's: counter
            # totals for the stats, and worker-generated plans so later
            # recompilations (e.g. runtime adaptation) start warm
            for worker_cache in worker_caches:
                cache.merge(worker_cache)
            result.stats.plan_cache_hits = cache.hits
            result.stats.plan_cache_misses = cache.misses
        return result


# -- process-pool worker side ------------------------------------------------
#
# Worker state lives in a module global set by the pool initializer: the
# snapshot reaches each worker exactly once — unpickled from the
# initializer payload under pickle transport, or inherited copy-on-write
# under fork transport — and is reused for every task chunk, so
# per-chunk IPC carries only grid points and packed result tuples.

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


def _build_worker_state(state):
    """Materialize this process's private worker state from a snapshot
    dict (shared by the pickle and fork initializers)."""
    compiled = state["compiled"]
    return {
        "compiled": compiled,
        "blocks": list(compiled.last_level_blocks()),
        "cache": compiled.plan_cache if state["enable_plan_cache"] else None,
        "cost_model": CostModel(state["cluster"], state["params"]),
        "min_mb": state["min_mb"],
        "srm": state["srm"],
        "vectorize": state.get("enable_vector_costing", False),
    }


def _process_worker_init(payload):
    """Pool initializer (pickle transport): unpack the snapshot."""
    global _WORKER_STATE
    _WORKER_STATE = _build_worker_state(pickle.loads(payload))


def _fork_worker_init():
    """Pool initializer (fork transport): adopt the snapshot this
    process inherited copy-on-write at fork time."""
    global _WORKER_STATE
    if _FORK_SNAPSHOT is None:  # pragma: no cover - master bug
        raise OptimizationError("fork snapshot missing in worker")
    _WORKER_STATE = _build_worker_state(_FORK_SNAPSHOT)


def _process_enumerate_chunk(rcs):
    """Run the full per-r_c enumeration for a chunk of CP grid points.

    Mirrors the serial optimizer's inner loop exactly (baseline compile,
    prune, baseline costing, per-block MR enumeration, whole-program
    aggregate costing) so the reported costs are the byte-identical
    floats the serial optimizer computes.  Returns a packed tuple
    ``(points, *counter_deltas)`` — positional, not keyed, to keep the
    per-chunk result payload small (the master unpacks by position).
    """
    st = _WORKER_STATE
    compiled = st["compiled"]
    cache = st["cache"]
    cost_model = st["cost_model"]
    comp0 = compiled.stats.block_compilations
    inv0, memo0 = cost_model.invocations, cost_model.memo_hits
    hits0 = cache.hits if cache is not None else 0
    miss0 = cache.misses if cache is not None else 0
    local_stats = OptimizerStats()
    points = [_enumerate_rc(st, rc, local_stats) for rc in rcs]
    return (
        points,
        compiled.stats.block_compilations - comp0,
        cost_model.invocations - inv0,
        cost_model.memo_hits - memo0,
        (cache.hits - hits0) if cache is not None else 0,
        (cache.misses - miss0) if cache is not None else 0,
        local_stats.mr_points_skipped,
        local_stats.mr_points_batched,
    )


def _enumerate_rc(st, rc, local_stats):
    """One CP grid point, start to finish, on this worker's snapshot.

    Returns the packed tuple ``(rc, vector_items, cost, pruned_small,
    pruned_unknown, remaining, records)``.
    """
    compiled, blocks = st["compiled"], st["blocks"]
    cache, cost_model = st["cache"], st["cost_model"]
    min_mb, srm = st["min_mb"], st["srm"]
    records = []

    t0 = time.perf_counter()
    baseline = ResourceConfig(cp_heap_mb=rc, mr_heap_mb=min_mb)
    for block in blocks:
        recompile_block_plan(compiled, block, baseline, cache=cache)
    remaining, pruned_small, pruned_unknown = prune_program_blocks(blocks)
    memo = {}
    for block in remaining:
        memo[block.block_id] = (
            min_mb,
            cost_model.estimate_block(
                compiled, block, baseline, use_memo=cache is not None
            ),
        )
    records.append(("baseline", rc, 0, time.perf_counter() - t0))

    for block in remaining:
        t1 = time.perf_counter()
        memo[block.block_id], _ = enumerate_block_mr(
            compiled, block, rc, min_mb, srm, cost_model,
            memo[block.block_id][1], cache=cache, stats=local_stats,
            vectorize=st["vectorize"],
        )
        records.append(("enum", rc, block.block_id,
                        time.perf_counter() - t1))

    t2 = time.perf_counter()
    chosen = ResourceConfig(
        cp_heap_mb=rc,
        mr_heap_mb=min_mb,
        mr_heap_per_block={bid: ri for bid, (ri, _) in memo.items()},
    )
    for block in blocks:
        recompile_block_plan(compiled, block, chosen, cache=cache)
    cost = cost_model.estimate_program(compiled, chosen)
    records.append(("agg", rc, 0, time.perf_counter() - t2))

    return (
        rc,
        tuple(chosen.mr_heap_per_block.items()),
        cost,
        len(pruned_small),
        len(pruned_unknown),
        len(remaining),
        records,
    )


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
