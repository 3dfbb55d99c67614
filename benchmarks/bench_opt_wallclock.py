"""Measured optimizer wall clock and the cross-run result cache.

Times the in-process enumeration (Algorithm 1) on the M-scenario GLM
and MLogreg programs (Hybrid m=15) — the median of :data:`REPEATS`
fresh compilations, each of which must choose the identical
``(resource, cost)`` — then exercises the cross-run optimizer result
cache through a traced session: the second ``session.run`` of the same
(script, scenario) hits the cache (``optcache.hits >= 1``) and skips
enumeration.

Writes ``BENCH_optimizer.json`` (override with ``--out``) to seed the
perf trajectory.  Also runnable standalone:
``python benchmarks/bench_opt_wallclock.py [--out PATH]``.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

from _lib import format_table, fresh_compiled
from repro.api import ElasticMLSession
from repro.cluster import paper_cluster
from repro.obs import Tracer
from repro.optimizer import ResourceOptimizer
from repro.workloads import prepare_inputs, scenario

SCRIPTS = ["GLM", "MLogreg"]
M = 15
#: timed enumerations per script (each on a fresh compilation)
REPEATS = 5
DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_optimizer.json"
)


def _normalized(compiled, result):
    """Configuration keyed by block position (block ids are stamped per
    compilation, so raw ids are not comparable across compiles)."""
    index_of = {
        b.block_id: i for i, b in enumerate(compiled.last_level_blocks())
    }
    vector = tuple(
        sorted(
            (index_of[block_id], ri)
            for block_id, ri in result.resource.mr_heap_per_block.items()
        )
    )
    return (
        result.resource.cp_heap_mb,
        result.resource.mr_heap_mb,
        vector,
        result.cost,
    )


def measure_script(script):
    """Serial enumeration wall clock for one script; asserts every
    repeat picks the identical configuration."""
    cluster = paper_cluster()
    scn = scenario("M", cols=1000)
    runs, chosen = [], set()
    for _ in range(REPEATS):
        compiled, _, _ = fresh_compiled(script, scn)
        start = time.perf_counter()
        result = ResourceOptimizer(cluster, m=M).optimize(compiled)
        runs.append(time.perf_counter() - start)
        chosen.add(_normalized(compiled, result))
    assert len(chosen) == 1, f"{script}: repeats diverged: {chosen}"
    return {
        "serial_s": statistics.median(runs),
        "serial_runs_s": runs,
        "cost_s": result.cost,
        "resource": result.resource.describe(),
    }


def measure_cache():
    """Cross-run result cache through the session API, traced."""
    tracer = Tracer()
    session = ElasticMLSession(sample_cap=256, trace=tracer)
    args = prepare_inputs(session.hdfs, "GLM", scenario("M", cols=1000),
                          glm_family=2, seed=7)
    start = time.perf_counter()
    first = session.run("GLM", args)
    first_s = time.perf_counter() - start
    start = time.perf_counter()
    second = session.run("GLM", args)
    second_s = time.perf_counter() - start

    assert first.optimizer_result.from_cache is False
    assert second.optimizer_result.from_cache is True, (
        "second run must hit the cross-run optimizer cache"
    )
    assert tracer.counter("optcache.misses") >= 1
    assert tracer.counter("optcache.hits") >= 1
    assert second.resource == first.resource
    return {
        "first_run_s": first_s,
        "second_run_s": second_s,
        "optcache_hits": tracer.counter("optcache.hits"),
    }


def run_experiment():
    return {
        "bench": "optimizer_wallclock",
        "scenario": "M dense1000 (Hybrid m=15)",
        "cpu_count": os.cpu_count(),
        "scripts": {script: measure_script(script) for script in SCRIPTS},
        "cache": measure_cache(),
    }


def render(data):
    rows = [
        [script, f"{rec['serial_s']:.3f}s", rec["resource"]]
        for script, rec in data["scripts"].items()
    ]
    cache = data["cache"]
    return format_table(
        ["Prog.", f"serial (median of {REPEATS})", "chosen"],
        rows,
        title=(
            f"Optimizer wall clock, {data['scenario']}; host has "
            f"{data['cpu_count']} CPUs\ncross-run cache: first run "
            f"{cache['first_run_s']:.3f}s -> cached run "
            f"{cache['second_run_s']:.3f}s "
            f"({cache['optcache_hits']} hit(s), enumeration skipped)"
        ),
    )


def write_json(data, path):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write BENCH_optimizer.json")
    args = parser.parse_args(argv)
    data = run_experiment()
    print(render(data))
    write_json(data, args.out)
    print(f"\nwrote {args.out}")
    return 0


try:
    import pytest
except ImportError:  # standalone mode in minimal environments
    pytest = None

if pytest is not None:

    @pytest.mark.repro
    def test_opt_wallclock(benchmark, report):
        data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
        report("optimizer_wallclock", render(data))
        write_json(data, DEFAULT_OUT)


if __name__ == "__main__":
    sys.exit(main())
