"""Microbenchmarks of the optimizer's hot kernels, regression-guarded.

Tracks p50/p95 latency of the code the grid search spends its time in:

* ``cost.estimate_block`` — one block costing (the inner kernel of the
  MR-grid enumeration);
* ``cost.estimate_program.{GLM_M,L2SVM_M}`` — one whole-program cost
  walk (M scenario, 1000 columns, plans compiled at CP 2 GB / MR 1 GB):
  what the optimizer runs once per CP grid point.  Each row also records
  ``balance_pool_calls`` and ``balance_pool_exact_share``, the share of
  ``CostModel._balance_pool`` calls the running total could not answer
  and that re-summed the working set instead.  These call
  ``estimate_program`` without ``use_memo`` and stay real walks
  (``memo_hits == 0`` is asserted); ``cost.estimate_program.repeat.
  GLM_M`` is the same estimate asked again with it — the whole-walk
  memo's hit path: build the key, test the interval;
* ``plancache.lookup`` — one bucketed plan-cache probe (key + hit);
* ``bufferpool.account`` — one buffer-pool insert into a full pool
  (re-sum + LRU eviction: the exact path of ``_make_room``, which every
  insert of this kernel takes and 0.3 % of a real program's do);
* ``bufferpool.insert_resident`` — the insert requests actually make: a
  fresh ``MatrixObject`` built and put into a pool holding 16 of them
  far below capacity, then ``retain_only`` back to the 16 (the rmvar
  sweep after a block);
* ``runtime.interpret.L2SVM_XS`` — the interpretation stage of a warm
  L2SVM XS request (two thirds of the ``serve_warm`` mix's time): the
  program arrives planned from the caches, timed is ``execute_program``
  alone — an ``Interpreter`` with the runtime adapter and one ``run``.
  The row also records ``make_room_calls`` and
  ``make_room_exact_share``, the share of ``BufferPool._make_room``
  calls the running occupancy could not answer;
* ``serving.warm_request.MLogreg_M`` — a whole repeat request of the
  program with unknown sizes (prepare from the caches + interpret, two
  dynamic recompilations, two runtime re-optimizations, one CP
  migration), every event looked up in the master's replay tree;
  ``serving.recording_request.MLogreg_M`` is the request that records
  it — a master's second (its first leaves the tree alone): every
  event derived (what a request with a warm program cache and fresh
  data pays: four scope enumerations through the cost walk), plus one
  DAG copy per recorded event;
* ``runtime.reoptimize.MLogreg_M`` / ``runtime.recompile_block.
  MLogreg_XS`` — one ``ResourceAdapter._reoptimize`` / one dynamic
  recompilation (its ``replay.event``) inside such replayed requests
  (the XS request makes 17);
* ``serving.program_get`` — one warm :class:`ProgramCache` hit
  (LinregCG XS): the per-request program handout;
* ``serving.warm_prepare`` — a warm request's whole prepare stage:
  ``compile`` (program-cache hit) + ``optimize_cached`` (optimizer-cache
  hit, plans installed);
* ``optimizer.serial.{S,M,XL}`` — whole enumerations at grid
  resolutions m=5/15/31 (LinregCG, S-scenario data);
* ``optimizer.serial.GLM_M`` — the M-scenario GLM enumeration (m=15),
  compilation included.

Every kernel carries a p95 budget (checked into the JSON); the bench
fails when a measured p95 exceeds **2x** its budget, so CI catches
regressions of a small multiple while tolerating runner noise.  The
budgets of the cost-walk and enumeration kernels are at most 3x the p95
measured on the 2-vCPU build host (so the bench fails at ~6x), and so
are those of the three buffer-pool / interpretation kernels; the other
microsecond-scale ones keep more room for timer and runner noise.

Kernels a change was made for also record ``before_p95_us``, the same
kernel measured on the same host at the commit before that change: the
two serving kernels at PR 15 (which deep-copied the master on every hit
and regenerated plans on every optimizer-cache hit), the two
whole-program walks at PR 16 (whose ``_balance_pool`` re-summed the
working set after every CP instruction), the resident insert and the
interpretation stage at PR 17 (whose ``_make_room`` re-summed the pool,
re-deriving every size, on every insert), the four run-replay kernels
at PR 18 (which re-derived every recompilation and re-ran the optimizer
twice per re-optimization on every request), the four serial
enumerations and the recording request at PR 19 (whose every CP point
regenerated the arrival plans and walked every cost again).

Writes ``BENCH_microbench.json`` (override with ``--out``).  Runnable
standalone: ``python benchmarks/bench_microbench.py [--quick]``.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import sys
import time
import types
from unittest import mock

import numpy as np

from _lib import format_table, fresh_compiled
from repro.api import SessionConfig
from repro.cluster import ResourceConfig, paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler import compile_program
from repro.compiler.plan_cache import PlanCache
from repro.compiler import replay
from repro.cost import CostModel
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.optimizer import ResourceAdapter, ResourceOptimizer
from repro.pipeline import RunPipeline
from repro.runtime import SimulatedHDFS
from repro.runtime import interpreter as interpreter_mod
from repro.runtime.bufferpool import BufferPool
from repro.runtime.matrix import MatrixObject
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_microbench.json"
)

#: p95 budgets in microseconds — the regression contract.  A kernel
#: fails the bench when its measured p95 exceeds 2x its budget.
BUDGETS_P95_US = {
    "cost.estimate_block": 210,
    "cost.estimate_program.GLM_M": 17_000,
    "cost.estimate_program.L2SVM_M": 4_000,
    "cost.estimate_program.repeat.GLM_M": 150,
    "plancache.lookup": 60,
    "bufferpool.account": 28,
    "bufferpool.insert_resident": 11,
    "runtime.interpret.L2SVM_XS": 17_000,
    "runtime.reoptimize.MLogreg_M": 370,
    "runtime.recompile_block.MLogreg_XS": 120,
    "serving.warm_request.MLogreg_M": 16_000,
    "serving.recording_request.MLogreg_M": 330_000,
    "serving.program_get": 500,
    "serving.warm_prepare": 1_500,
    "optimizer.serial.S": 24_000,
    "optimizer.serial.M": 24_000,
    "optimizer.serial.XL": 30_000,
    "optimizer.serial.GLM_M": 300_000,
}

#: p95 at the commit before the change a kernel was added for (see the
#: module docstring), measured with this file's kernels on the build
#: host: the median of three 500-iteration runs at PR 15 for the serving
#: kernels, of six 100-iteration runs at PR 16 for the walks, of six
#: runs at PR 17 (alternating with this commit's) for the next two, of
#: three 60-iteration runs at PR 18 (alternating likewise) for the
#: run-replay kernels — there ``recompile_block`` itself was timed —
#: and of three full runs at PR 19 (alternating likewise) for the four
#: serial enumerations (three iterations each, so p95 is their slowest)
#: and the recording request, which re-optimizes through the walks the
#: interval memo answers: the warm-cache / fresh-data regime.  The
#: interpretation stage's is the median of four 100-iteration runs at
#: PR 47, the commit before the bound dispatch (budget: 3x the p95 of
#: 5 694 us measured with it)
BEFORE_P95_US = {
    "serving.program_get": 11_064,
    "serving.warm_prepare": 15_225,
    "cost.estimate_program.GLM_M": 72_000,
    "cost.estimate_program.L2SVM_M": 18_300,
    "bufferpool.insert_resident": 27.2,
    "runtime.interpret.L2SVM_XS": 8_300,
    "runtime.reoptimize.MLogreg_M": 66_400,
    "runtime.recompile_block.MLogreg_XS": 1_436,
    "serving.warm_request.MLogreg_M": 136_100,
    "serving.recording_request.MLogreg_M": 140_800,
    "optimizer.serial.S": 34_400,
    "optimizer.serial.M": 13_400,
    "optimizer.serial.XL": 20_300,
    "optimizer.serial.GLM_M": 158_800,
}

#: scripts whose whole-program walk is a kernel
WALK_SCRIPTS = ("GLM", "L2SVM")

#: grid resolutions of the enumeration kernels
GRID_SIZES = {"S": 5, "M": 15, "XL": 31}

_SRC = """
X = read($X)
s = sum(X)
Y = X * 2 + s
z = sum(t(Y) %*% Y)
print(z)
"""


def _percentiles_us(samples_s):
    ordered = sorted(samples_s)
    p95 = ordered[min(len(ordered) - 1,
                      max(0, math.ceil(0.95 * len(ordered)) - 1))]
    return {
        "p50_us": statistics.median(ordered) * 1e6,
        "p95_us": p95 * 1e6,
        "iterations": len(ordered),
    }


def _time_kernel(fn, iters, setup=tuple):
    """Percentiles of ``fn(*setup())`` over ``iters`` calls; ``setup``
    runs outside the timer."""
    fn(*setup())  # warmup: imports, allocator, caches
    samples = []
    for _ in range(iters):
        args = setup()
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return _percentiles_us(samples)


# -- cost-model kernels -------------------------------------------------------

def _cost_fixture():
    """A compiled program whose plan contains MR jobs (tight CP heap),
    its first MR block, and a configuration at the minimal task heap."""
    cluster = paper_cluster()
    hdfs = SimulatedHDFS(sample_cap=64)
    hdfs.create_dense_input("data/X", 400000, 500)  # ~1.6 GB dense
    compiled = compile_program(
        _SRC, {"X": "data/X"}, hdfs.input_meta(), ResourceConfig(512, 1024)
    )
    block = next(
        b for b in compiled.last_level_blocks()
        if b.plan is not None and b.plan.num_mr_jobs
    )
    lo = cluster.min_heap_mb
    resource = ResourceConfig(cp_heap_mb=512, mr_heap_mb=lo,
                              mr_heap_per_block={block.block_id: lo})
    return cluster, compiled, block, resource


def bench_cost_kernels(iters):
    cluster, compiled, block, resource = _cost_fixture()
    model = CostModel(cluster, DEFAULT_PARAMETERS)
    return {
        "cost.estimate_block": _time_kernel(
            lambda: model.estimate_block(compiled, block, resource), iters
        )
    }


class _CountingModel(CostModel):
    """Counts the ``_balance_pool`` calls that have to re-sum."""

    calls = exact = 0

    def _balance_pool(self, state, resource, pinned):
        self.calls += 1
        self.exact += not state.fits(resource.cp_budget_bytes)
        super()._balance_pool(state, resource, pinned)


def bench_program_walk(iters):
    """One ``estimate_program`` of the M-scenario program per script."""
    cluster = paper_cluster()
    rc = ResourceConfig(2048, 1024)
    kernels = {}
    for script in WALK_SCRIPTS:
        hdfs = SimulatedHDFS(sample_cap=64)
        args = prepare_inputs(hdfs, script, scenario("M", cols=1000))
        compiled = compile_program(
            load_script(script), args, hdfs.input_meta(), rc
        )
        model = CostModel(cluster, DEFAULT_PARAMETERS)
        record = _time_kernel(
            lambda: model.estimate_program(compiled, rc), iters
        )
        assert model.memo_hits == 0, "the walk kernel must time walks"
        if script == "GLM":
            kernels["cost.estimate_program.repeat.GLM_M"] = _time_kernel(
                lambda: model.estimate_program(compiled, rc, use_memo=True),
                10 * iters,
            )
            # one walk to fill the memo (the warm-up call), then answers
            assert model.invocations == iters + 2
            assert model.memo_hits == 10 * iters
        counting = _CountingModel(cluster, DEFAULT_PARAMETERS)
        counting.estimate_program(compiled, rc)
        record["balance_pool_calls"] = counting.calls
        record["balance_pool_exact_share"] = counting.exact / counting.calls
        kernels[f"cost.estimate_program.{script}_M"] = record
    return kernels


# -- plan-cache kernel --------------------------------------------------------

def bench_plancache_lookup(iters):
    cluster, compiled, block, resource = _cost_fixture()
    cache = PlanCache()
    key = cache.key_for(block, resource)
    cache.store(key, block.plan)

    def probe():
        hit = cache.lookup(cache.key_for(block, resource))
        assert hit is not None

    return {"plancache.lookup": _time_kernel(probe, iters)}


# -- buffer-pool kernel -------------------------------------------------------

def _stub_matrix(size_bytes):
    return types.SimpleNamespace(
        memory_size=float(size_bytes), in_memory=False, dirty=False,
        local_copy=False, hdfs_path=None, mc=None, fmt=None,
    )


def bench_bufferpool_account(iters):
    mb = 1 << 20
    pool = BufferPool(64 * mb, DEFAULT_PARAMETERS, lambda s, cat: None)
    for _ in range(64):  # fill to capacity: every insert now evicts
        pool.put(_stub_matrix(mb))

    def insert():
        pool.put(_stub_matrix(mb))

    return {"bufferpool.account": _time_kernel(insert, iters)}


def bench_bufferpool_insert_resident(iters):
    """A fresh matrix into a pool with room to spare, and out again."""
    mc = MatrixCharacteristics.dense(10_000, 100)  # 8 MB each
    sample = np.zeros((64, 100))
    pool = BufferPool(1 << 34, DEFAULT_PARAMETERS, lambda s, cat: None)
    live = set()
    for _ in range(16):
        obj = MatrixObject(sample, mc)
        pool.put(obj)
        live.add(id(obj))
    resident = list(pool._entries.values())  # keeps the 16 ids alive

    def insert():
        pool.put(MatrixObject(sample, mc))
        pool.retain_only(live)

    record = _time_kernel(insert, iters)
    assert list(pool._entries.values()) == resident and not pool.evictions
    return {"bufferpool.insert_resident": record}


# -- interpretation kernel ----------------------------------------------------

def _warm_pipeline(script, scn=scenario("XS", cols=100)):
    """(pipeline, source, args): a pipeline with its caches on and the
    script's inputs (XS unless told otherwise) on its file system."""
    hdfs = SimulatedHDFS(sample_cap=64)
    pipeline = RunPipeline(SessionConfig(), hdfs=hdfs, sample_cap=64)
    args = prepare_inputs(hdfs, script, scn)
    return pipeline, load_script(script), args


def interpret_fixture(script="L2SVM", scn=scenario("XS", cols=100)):
    """(prepare, run) of a warm request's two stages: ``prepare()``
    returns the planned handout and its configuration from the caches,
    ``run(compiled, resource)`` interprets it (adaptation on)."""
    pipeline, source, args = _warm_pipeline(script, scn)

    def prepare():
        compiled = pipeline.compile(source, args)
        result = pipeline.optimize_cached(source, args, compiled)
        return compiled, result.resource

    pipeline.execute_program(*prepare())  # the cold request fills the caches
    return prepare, pipeline.execute_program


class _CountingPool(BufferPool):
    """Counts the ``_make_room`` calls that have to re-sum."""

    calls = exact = 0

    def _make_room(self, needed):
        self.calls += 1
        self.exact += not self.fits(self.capacity, needed)
        super()._make_room(needed)


def bench_interpret(iters):
    prepare, run = interpret_fixture()
    record = _time_kernel(run, iters, setup=prepare)
    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(_CountingPool(*args, **kwargs))
        return pools[-1]

    with mock.patch.object(interpreter_mod, "BufferPool", counting_pool):
        run(*prepare())
    (pool,) = pools
    record["make_room_calls"] = pool.calls
    record["make_room_exact_share"] = pool.exact / pool.calls
    return {"runtime.interpret.L2SVM_XS": record}


# -- run-replay kernels -------------------------------------------------------

def _warm_request(scn):
    """(request, master): ``request()`` is one whole MLogreg request
    through caches a first one has already filled."""
    prepare, run = interpret_fixture("MLogreg", scn)
    (_, master), = run.__self__.program_cache._programs.values()
    return (lambda: run(*prepare())), master


def _time_calls(owner, name, drive, iters, when=lambda *args: True):
    """Percentiles of the calls of ``owner.name`` (those ``when`` is
    true of) that ``drive()`` makes, over at least ``iters`` of them."""
    samples = []
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            if when(*args):
                samples.append(time.perf_counter() - t0)

    drive()  # warmup
    with mock.patch.object(owner, name, timed):
        while len(samples) < iters:
            drive()
    return _percentiles_us(samples)


def bench_replay(iters):
    request, master = _warm_request(scenario("M"))  # seen once ...
    result = request()  # ... recorded
    assert (result.recompilations, result.migrations) == (2, 1)
    kernels = {
        "serving.warm_request.MLogreg_M": _time_kernel(request, iters),
    }
    # two recompilations; two re-optimizations of two edges each
    tree = master.replay.tree
    assert tree["misses"] == 6 and tree["hits"] == 6 * (iters + 1)

    def seen_once():
        master.replay = replay.ReplayNode()
        request()  # recording starts at a master's second request
        return ()

    kernels["serving.recording_request.MLogreg_M"] = _time_kernel(
        request, iters, setup=seen_once
    )
    assert master.replay.tree["misses"] == 6  # leaves the last tree recorded
    kernels["runtime.reoptimize.MLogreg_M"] = _time_calls(
        ResourceAdapter, "_reoptimize", request, iters
    )
    request, master = _warm_request(scenario("XS", cols=100))
    assert request().recompilations == 17
    kernels["runtime.recompile_block.MLogreg_XS"] = _time_calls(
        replay, "event", request, 10 * iters,
        when=lambda compiled, kind, *_: kind == "recompile",
    )
    assert master.replay.tree["misses"] == 19  # only the second request's
    return kernels


# -- serving kernels ----------------------------------------------------------

def bench_warm_handout(iters):
    """The prepare stage of a repeat tenant's request (LinregCG XS)."""
    pipeline, source, args = _warm_pipeline("LinregCG")
    input_meta = pipeline.hdfs.input_meta()

    def prepare():
        compiled = pipeline.compile(source, args)
        return pipeline.optimize_cached(source, args, compiled)

    prepare()  # the cold request: compiles, optimizes, fills both caches
    assert prepare().from_cache
    return {
        "serving.program_get": _time_kernel(
            lambda: pipeline.program_cache.get(source, args, input_meta),
            iters,
        ),
        "serving.warm_prepare": _time_kernel(prepare, iters),
    }


# -- enumeration kernels ------------------------------------------------------

def bench_serial_enumeration(iters):
    cluster = paper_cluster()
    scn = scenario("S")
    # equi grids: m^2 enumeration points, so S/M/XL really are
    # different grid sizes (the hybrid grid's point count is driven by
    # the program's memory estimates, not m).  Compilation happens once,
    # outside the timer — the kernel is the enumeration itself.
    compiled, _, _ = fresh_compiled("LinregCG", scn)
    kernels = {}
    for size, m in GRID_SIZES.items():
        def run(m=m):
            ResourceOptimizer(
                cluster, m=m, grid_cp="equi", grid_mr="equi"
            ).optimize(compiled)

        kernels[f"optimizer.serial.{size}"] = _time_kernel(run, iters)
    return kernels


def bench_serial_glm(iters):
    """One whole serial enumeration of the M-scenario GLM (m=15),
    compilation included."""
    cluster = paper_cluster()
    scn = scenario("M", cols=1000)

    def serial():
        compiled, _, _ = fresh_compiled("GLM", scn)
        ResourceOptimizer(cluster, m=15).optimize(compiled)

    return {"optimizer.serial.GLM_M": _time_kernel(serial, iters)}


# -- harness ------------------------------------------------------------------

def run_experiment(quick=False):
    kernels = bench_cost_kernels(50 if quick else 200)
    kernels.update(bench_program_walk(20 if quick else 100))
    kernels.update(bench_plancache_lookup(200 if quick else 1000))
    kernels.update(bench_bufferpool_account(100 if quick else 500))
    kernels.update(bench_bufferpool_insert_resident(200 if quick else 1000))
    kernels.update(bench_interpret(30 if quick else 100))
    kernels.update(bench_replay(30 if quick else 100))
    kernels.update(bench_warm_handout(100 if quick else 500))
    kernels.update(bench_serial_enumeration(1 if quick else 3))
    kernels.update(bench_serial_glm(1 if quick else 2))

    for name, record in kernels.items():
        record["budget_p95_us"] = BUDGETS_P95_US.get(name)
        if name in BEFORE_P95_US:
            record["before_p95_us"] = BEFORE_P95_US[name]
    return {
        "bench": "microbench",
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "kernels": kernels,
    }


def check_budgets(data):
    """Kernels whose p95 exceeds 2x their checked-in budget."""
    violations = []
    for name, record in data["kernels"].items():
        budget = record.get("budget_p95_us")
        if budget is not None and record["p95_us"] > 2 * budget:
            violations.append(
                f"{name}: p95 {record['p95_us']:.0f}us > "
                f"2 * budget {budget}us"
            )
    return violations


def render(data):
    rows = []
    for name in sorted(data["kernels"]):
        record = data["kernels"][name]
        budget = record.get("budget_p95_us")
        rows.append([
            name,
            f"{record['p50_us']:.1f}",
            f"{record['p95_us']:.1f}",
            str(budget) if budget is not None else "-",
            str(record["iterations"]),
        ])
    return format_table(
        ["kernel", "p50 (us)", "p95 (us)", "budget p95", "iters"],
        rows,
        title=(
            f"Hot-kernel microbenchmarks; host has {data['cpu_count']} "
            f"CPUs{' (quick)' if data['quick'] else ''}"
        ),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer iterations (CI smoke mode)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write BENCH_microbench.json")
    args = parser.parse_args(argv)
    data = run_experiment(quick=args.quick)
    violations = check_budgets(data)
    data["budget_violations"] = violations
    print(render(data))
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    if violations:
        print("BUDGET VIOLATIONS:\n  " + "\n  ".join(violations),
              file=sys.stderr)
        return 1
    return 0


try:
    import pytest
except ImportError:  # standalone mode in minimal environments
    pytest = None

if pytest is not None:

    @pytest.mark.repro
    def test_microbench(benchmark, report):
        data = benchmark.pedantic(
            run_experiment, kwargs={"quick": True}, rounds=1, iterations=1
        )
        violations = check_budgets(data)
        data["budget_violations"] = violations
        report("microbench", render(data))
        DEFAULT_OUT.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        assert not violations, violations


if __name__ == "__main__":
    sys.exit(main())
