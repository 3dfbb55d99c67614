"""Layer attribution: replay each request by hand, with a span per call.

``ElasticMLServer._serve`` is a fixed sequence of calls into the layers
(program cache, compiler, optimizer cache, optimizer, resource manager,
interpreter).  :class:`LayerReplay` makes the same calls, in the same
order, through the same *public* functions, on caches of its own — and
wraps each in a harness span.  Nothing inside ``src/`` is instrumented.
Its result must equal the serial reference like any served result.

Functions that sit inside another layer's call (the parser inside
``compile_program``, the cost model inside ``optimize``) or are too
short to time once (admission, routing, a buffer-pool insert) are
measured by the *probes* at the bottom: the same public function called
in a loop on representative state.
"""

from __future__ import annotations

import itertools
import pickle
import statistics
import time
import types
from dataclasses import replace

from repro.api import SessionConfig
from repro.cluster import paper_cluster
from repro.cluster.yarn import ResourceManager
from repro.compiler.pipeline import compile_plans, compile_program
from repro.compiler.plan_cache import PlanCache
from repro.cost import CostModel
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.dml import parse
from repro.optimizer import ResourceAdapter, ResourceOptimizer
from repro.runtime import Interpreter, SimulatedHDFS
from repro.runtime.bufferpool import BufferPool
from repro.scripts import load_script
from repro.serving import HeapRulePolicy, Submission
from repro.serving.admission import ConsistentHashRouter, PendingRequest
from repro.serving.server import ProgramCache

import harness
import measure
import spans as S

class LayerReplay:
    """One server's worth of state, driven one call at a time."""

    def __init__(self, recorder, seed, programs):
        self.recorder = recorder
        self.seed = seed
        self.config = SessionConfig()
        self.cluster = paper_cluster()
        self.params = DEFAULT_PARAMETERS
        self.hdfs = SimulatedHDFS(sample_cap=harness.SAMPLE_CAP)
        self.args = harness.prepare_all(self.hdfs, programs, seed)
        self.program_cache = ProgramCache()
        self.opt_cache = self.config.build_opt_cache()
        self.plan_cache = PlanCache()
        self.rm = ResourceManager(self.cluster)
        self.policy = HeapRulePolicy()
        self.options = self.config.optimizer_options()
        #: (script, OptimizerStats) of every optimizer run, in span order
        self.optimizer_runs = []
        #: (compiled, resource) of the latest run of each program
        self.last_compiled = {}
        self._baseline = (0, 0, 0, 0)

    def warm_up(self, programs):
        """Run each program once so every cache of the replay hits."""
        for rid, program in enumerate(programs):
            self.run(-1 - rid, harness.Request(program, "tenant-00"))

    def start_measuring(self, recorder):
        """Switch spans on and count cache traffic from here."""
        self.recorder = recorder
        self.optimizer_runs = []
        self._baseline = self._cache_counts()

    def _cache_counts(self):
        return (
            self.program_cache.hits, self.program_cache.misses,
            self.opt_cache.hits, self.opt_cache.misses,
        )

    def hit_ratios(self):
        """(program cache, optimizer cache) hit ratios since
        :meth:`start_measuring`."""
        p_hits, p_misses, o_hits, o_misses = (
            now - before
            for now, before in zip(self._cache_counts(), self._baseline)
        )
        return (
            _ratio(p_hits, p_hits + p_misses),
            _ratio(o_hits, o_hits + o_misses),
        )

    def run(self, rid, request):
        """Serve ``request`` by hand; returns (canonical result,
        ExecutionResult, seconds the whole request took)."""
        span = self.recorder.span
        program = request.program
        args = self.args[program]
        started = time.perf_counter()
        with span(S.REQUEST, rid):
            source = load_script(program.script)
            input_meta = self.hdfs.input_meta()
            with span("serving.program_get", rid):
                compiled = self.program_cache.get(source, args, input_meta)
            if compiled is None:
                with span("compiler.compile_program", rid):
                    master = compile_program(source, args, input_meta)
                with span("serving.program_put", rid):
                    compiled = self.program_cache.put(
                        source, args, input_meta, master
                    )
            with span("api.optcache_signature", rid):
                key = self.opt_cache.signature(
                    source, args, self.hdfs.input_meta(), self.cluster,
                    self.params, self.options, compiled=compiled,
                )
            with span("api.optcache_lookup", rid):
                decision = self.opt_cache.lookup(key, compiled)
            if decision is not None:
                with span("compiler.compile_plans", rid):
                    compile_plans(compiled, decision.resource)
            else:
                with span("optimizer.optimize", rid):
                    decision = ResourceOptimizer(
                        self.cluster, self.params, options=self.options
                    ).optimize(compiled)
                self.optimizer_runs.append((program.script, decision.stats))
                with span("api.optcache_store", rid):
                    self.opt_cache.store(key, compiled, decision)
            resource = decision.resource
            compiled.plan_cache = self.plan_cache
            container_mb = resource.container_request_mb(self.cluster)
            with span("serving.admit", rid):
                pending = PendingRequest(
                    ticket=rid, tenant=request.tenant,
                    container_mb=container_mb, order=rid,
                )
                granted = self.policy.select([pending], self.rm)
                container = self.rm.try_allocate(
                    granted.container_mb, tenant=granted.tenant
                )
                self.policy.admitted(granted)
            try:
                with span("runtime.interpret", rid):
                    executed = Interpreter(
                        self.cluster, params=self.params, hdfs=self.hdfs,
                        sample_cap=harness.SAMPLE_CAP,
                        adapter=ResourceAdapter(ResourceOptimizer(
                            self.cluster, self.params,
                            options=replace(self.options, parallel=False),
                        )),
                        seed=self.seed,
                    ).run(compiled, resource)
            finally:
                self.rm.release(container)
        elapsed = time.perf_counter() - started
        self.last_compiled[program] = (compiled, executed.final_resource)
        return (
            harness.canonical(executed, executed.final_resource),
            executed, elapsed,
        )


# -- probes -------------------------------------------------------------------

def _timed_calls(recorder, name, fn, iterations):
    """Call ``fn`` ``iterations`` times under ``probe.<name>`` spans;
    returns the durations in seconds."""
    fn()  # first call pays lazy imports and allocator warm-up
    records = []
    for _ in range(iterations):
        with recorder.span(f"probe.{name}") as record:
            fn()
        records.append(record)
    return [record["end"] - record["start"] for record in records]


def _stub_matrix(size_bytes):
    # what BufferPool reads of a MatrixObject, as bench_microbench does
    return types.SimpleNamespace(
        memory_size=float(size_bytes), in_memory=True, dirty=False,
        local_copy=False, hdfs_path=None, mc=None, fmt=None,
    )


def probe_layers(recorder, replay, programs):
    """name -> list of seconds, for the calls no on-path span isolates."""
    probes = {}
    cluster = replay.cluster

    sources = sorted({load_script(p.script) for p in programs})
    probes["dml.parse"] = [
        sample for source in sources
        for sample in _timed_calls(
            recorder, "dml.parse", lambda source=source: parse(source), 5
        )
    ]

    model = CostModel(cluster, replay.params)
    probes["cost.estimate_program"] = [
        sample
        for program in programs if program in replay.last_compiled
        for sample in _timed_calls(
            recorder, "cost.estimate_program",
            lambda pair=replay.last_compiled[program]:
                model.estimate_program(*pair),
            3,
        )
    ]

    mb = 1 << 20
    pool = BufferPool(64 * mb, replay.params, lambda seconds, cat: None)
    for _ in range(64):
        pool.put(_stub_matrix(mb))
    # pinning a 65th object into a full 64-object pool: occupancy
    # accounting plus one LRU eviction, the interpreter's steady state
    probes["runtime.bufferpool_pin"] = _timed_calls(
        recorder, "runtime.bufferpool_pin",
        lambda: pool.pin(_stub_matrix(mb)), 2000,
    )

    rm = ResourceManager(cluster)

    def allocate():
        rm.release(rm.try_allocate(2048, tenant="tenant-00"))

    probes["cluster.rm_allocate"] = _timed_calls(
        recorder, "cluster.rm_allocate", allocate, 2000
    )

    policy = HeapRulePolicy()
    waiting = [
        PendingRequest(
            ticket=i, tenant=f"tenant-{i % harness.TENANTS:02d}",
            container_mb=2048, order=i,
        )
        for i in range(64)
    ]
    probes["serving.admission_select"] = _timed_calls(
        recorder, "serving.admission_select",
        lambda: policy.select(waiting, rm), 2000,
    )

    router = ConsistentHashRouter(2)
    submissions = [
        Submission(tenant=f"tenant-{i:02d}", script="LinregDS")
        for i in range(harness.TENANTS)
    ]
    turns = itertools.cycle(submissions)
    probes["serving.route"] = _timed_calls(
        recorder, "serving.route", lambda: router.route(next(turns)), 2000,
    )
    return probes


# -- per-layer metrics ----------------------------------------------------------

def _p50(samples, scale):
    return statistics.median(samples) * scale if samples else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(hits, total):
    return hits / total if total else 0.0


def count_spans(roots):
    return sum(1 + count_spans(span.children) for span in roots)


def layer_metrics(replay, executed, probes, scripts):
    """The metrics the replay and the probes alone determine:
    name -> (value, unit)."""
    durations = S.durations_by_name(replay.recorder.spans)

    def span_ms(name):
        return (_p50(durations.get(name, []), 1e3), "ms")

    stats = [s for _, s in replay.optimizer_runs]
    program_hit_ratio, optcache_hit_ratio = replay.hit_ratios()
    metrics = {
        "dml.parse_ms": (_p50(probes["dml.parse"], 1e3), "ms"),
        "compiler.compile_program_ms": span_ms("compiler.compile_program"),
        "compiler.compile_plans_ms": span_ms("compiler.compile_plans"),
        "compiler.recompilations": (
            _mean([e.recompilations for e in executed]), "count"),
        "api.optcache_signature_ms": span_ms("api.optcache_signature"),
        "api.optcache_lookup_ms": span_ms("api.optcache_lookup"),
        "api.optcache_store_ms": span_ms("api.optcache_store"),
        "api.optcache_hit_ratio": (optcache_hit_ratio, "ratio"),
        "optimizer.optimize_ms": span_ms("optimizer.optimize"),
        "optimizer.block_compilations": (
            _mean([s.block_compilations for s in stats]), "count"),
        "optimizer.cost_invocations": (
            _mean([s.cost_invocations for s in stats]), "count"),
        "optimizer.grid_points": (
            _mean([s.cp_points * s.mr_points for s in stats]), "count"),
        "optimizer.plan_cache_hit_ratio": (_ratio(
            sum(s.plan_cache_hits for s in stats),
            sum(s.plan_cache_hits + s.plan_cache_misses for s in stats),
        ), "ratio"),
        "optimizer.cost_memo_hit_ratio": (_ratio(
            sum(s.cost_memo_hits for s in stats),
            sum(s.cost_invocations for s in stats)), "ratio"),
        "cost.estimate_program_ms": (
            _p50(probes["cost.estimate_program"], 1e3), "ms"),
        "runtime.interpret_ms": span_ms("runtime.interpret"),
        "runtime.mr_jobs": (_mean([e.mr_jobs for e in executed]), "count"),
        "runtime.evictions": (
            _mean([e.evictions for e in executed]), "count"),
        "runtime.buffer_restores": (
            _mean([e.buffer_restores for e in executed]), "count"),
        "runtime.migrations": (
            _mean([e.migrations for e in executed]), "count"),
        "runtime.bufferpool_pin_us": (
            _p50(probes["runtime.bufferpool_pin"], 1e6), "us"),
        "cluster.rm_allocate_us": (
            _p50(probes["cluster.rm_allocate"], 1e6), "us"),
        "serving.program_get_ms": span_ms("serving.program_get"),
        "serving.program_put_ms": span_ms("serving.program_put"),
        "serving.program_hit_ratio": (program_hit_ratio, "ratio"),
        "serving.admission_select_us": (
            _p50(probes["serving.admission_select"], 1e6), "us"),
        "serving.route_us": (_p50(probes["serving.route"], 1e6), "us"),
        "bench.unattributed_pct": (
            S.unattributed_pct(replay.recorder.spans), "pct"),
    }
    # the optimizer's cost split by script: on serve_cold GLM's grid is
    # most of the optimizer time, so a change to it must not hide in p50
    optimize_spans = durations.get("optimizer.optimize", [])
    for script in scripts:
        own = [
            seconds for seconds, (ran, _) in zip(
                optimize_spans, replay.optimizer_runs
            ) if ran == script
        ]
        metrics[f"optimizer.optimize_ms.{script}"] = (_p50(own, 1e3), "ms")
    return metrics


def served_metrics(workload, untraced, traced_served, replay_seconds,
                   warmup, shard_counts, snapshot_bytes, spans_per_request):
    """The metrics that need a real server: name -> (value, unit).

    ``untraced`` / ``traced_served`` are the same requests served with
    the server's ``trace`` off / on; ``replay_seconds`` the by-hand
    replay's per-request totals of the same requests."""
    good = [s for s in untraced if s.result is not None and s.result.ok]
    inner = [s.result.latency_s for s in good]
    traced_inner = [
        s.result.latency_s for s in traced_served
        if s.result is not None and s.result.ok
    ]
    outside = [s.latency_s - s.result.latency_s for s in good]
    client = [s.latency_s for s in good]
    metrics = {
        "latency_p50_ms": (
            1e3 * measure.percentile(client, 50) if good else 0.0, "ms"),
        "latency_p90_ms": (
            1e3 * measure.percentile(client, 90) if good else 0.0, "ms"),
        "serving.admission_wait_ms": (
            _p50([s.result.wait_s for s in good], 1e3), "ms"),
        # what the server spends on a request beyond the layer calls:
        # thread hand-off, locks, quota and container bookkeeping
        "serving.overhead_ms": (
            _p50([
                s.result.latency_s - seconds
                for s, seconds in zip(untraced, replay_seconds)
                if s.result is not None and s.result.ok
            ], 1e3), "ms"),
        # mean, not p50: at 45 % load half the requests wait for nothing
        # and the cost of a slow layer is in the other half
        "serving.queue_wait_ms": (1e3 * _mean(outside), "ms"),
        "obs.trace_overhead_pct": (
            100.0 * (sum(traced_inner) / sum(inner) - 1.0)
            if inner and traced_inner else 0.0, "pct"),
        "obs.spans_per_request": (spans_per_request, "count"),
        "bench.gen_late_p95_ms": (
            1e3 * measure.percentile([s.late_s for s in untraced], 95)
            if workload.open_loop else 0.0, "ms"),
    }
    if workload.shards:
        # one request in flight, so nothing queues: what is left between
        # the client's clock and the shard's is pickling and two queues
        ipc = [
            s.latency_s - s.result.latency_s for s in warmup
            if s.result is not None and s.result.ok
        ]
        sizes = [len(pickle.dumps(s.result)) for s in good]
        loads = list(shard_counts.values())
        metrics.update({
            "serving.shard_ipc_ms": (_p50(ipc, 1e3), "ms"),
            "serving.result_bytes": (_p50(sizes, 1.0), "bytes"),
            "serving.snapshot_bytes": (float(snapshot_bytes), "bytes"),
            "serving.shard_imbalance": (
                max(loads) / _mean(loads) if loads and _mean(loads) else 0.0,
                "ratio"),
        })
    else:
        metrics.update({
            "serving.shard_ipc_ms": (0.0, "ms"),
            "serving.result_bytes": (0.0, "bytes"),
            "serving.snapshot_bytes": (0.0, "bytes"),
            "serving.shard_imbalance": (0.0, "ratio"),
        })
    return metrics
