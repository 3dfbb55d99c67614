"""The repo benchmark: four request workloads, end to end and by layer.

One run of one workload (what ``BENCHMARK.json``'s ``command`` does)::

    python3 benchmarks/e2e/run.py --workload serve_warm --seed 7 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, checks every result against
a serial single-session run, and ends with one JSON line.  ``--trace 0``
measures the end-to-end metrics with all tracing off; ``--trace 1``
(``--traced``) is the separate traced run that produces the per-layer
metrics.  Without ``--workload`` every workload runs, each in a fresh
subprocess.  Further modes: ``--repeat K`` (spread against the bounds in
``BENCHMARK.json``), ``--sweep`` (open-loop offered load vs goodput),
``--selftest``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC_PATH = REPO / "BENCHMARK.json"
OUT_DIR = HERE / "out"
#: the seed a run uses when none is given (the paper's SIGMOD date)
DEFAULT_SEED = 20150531
SWEEP_RATES = (8.0, 16.0, 24.0, 32.0)


@functools.cache
def _load_program():
    """Put this checkout's ``src/`` first on the path and import the
    harness; exits 2 where there is no program to measure."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program under {REPO / 'src'}: this benchmark "
              "measures the checkout it sits in", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import layers
    import measure
    import spans

    return harness, layers, measure, spans


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- one run of one workload ----------------------------------------------------

def run_untraced(workload, seed, seconds):
    """Set up ``setup_reps`` times, time the last set-up's workload with
    every tracer off; returns (metrics, attempted, failures)."""
    harness, _, measure, _ = _load_program()
    count = workload.request_count(seconds)
    ready = None
    setup_times = []
    for _ in range(workload.setup_reps):
        if ready is not None:
            ready.close()
        started = time.perf_counter()
        ready = harness.Ready(workload, seed, count)
        setup_times.append(time.perf_counter() - started)
    try:
        timed = harness.run_timed(ready)
    finally:
        ready.close()
    metrics, failures = harness.end_to_end_metrics(ready, timed, setup_times)
    # after close(): the shard processes are reaped and in RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = (measure.peak_rss_mb(), "MB")
    # the warm-up passes the same gate as the timed requests
    return (
        metrics,
        len(ready.warmup) + len(timed.served),
        ready.failures(ready.warmup) + failures,
    )


def run_traced(workload, seed, seconds):
    """The per-layer run: serve a quarter of the requests with the
    server's tracer off and on, replay all of them by hand under harness
    spans and a quarter with spans off, then probe the short calls."""
    harness, layers, _, spans = _load_program()
    count = workload.request_count(seconds)
    requests = workload.requests(seed, count)
    cycle = 1 if workload.distinct else len(workload.programs)
    part = requests[:max(cycle, count // 4 // cycle * cycle)]
    programs = harness.distinct_programs(requests)
    clock = time.perf_counter()

    def phase(label):
        nonlocal clock
        now = time.perf_counter()
        print(f"# {label}: {now - clock:.1f} s", flush=True)
        clock = now

    references = {
        program: harness.serial_reference(program, seed)
        for program in programs
    }
    phase(f"{len(programs)} serial references")
    failures = []
    attempted = 0

    def serve(trace):
        nonlocal attempted
        ready = harness.Ready(
            workload, seed, count, trace=trace, references=references
        )
        try:
            timed = harness.run_timed(ready, part)
            stats = ready.server.stats() if workload.shards else {}
        finally:
            ready.close()
        attempted += len(ready.warmup) + len(part)
        failures.extend(ready.failures(ready.warmup))
        failures.extend(ready.failures(timed.served))
        return ready, timed, stats

    ready_off, timed_off, stats = serve(trace=False)
    phase(f"served {len(part)} requests, server trace off")
    ready_on, timed_on, _ = serve(trace=True)
    phase(f"served {len(part)} requests, server trace on")
    spans_per_request = layers.count_spans(ready_on.server.tracer.roots) / (
        len(ready_on.warmup) + len(part)
    )

    def replay(recorder, subset):
        nonlocal attempted
        engine = layers.LayerReplay(spans.NullRecorder(), seed, programs)
        if workload.warm_cycles:
            engine.warm_up(programs)
        engine.start_measuring(recorder)
        executed, seconds_each = [], []
        for rid, request in enumerate(subset):
            result, execution, elapsed = engine.run(rid, request)
            attempted += 1
            if result != references[request.program]:
                failures.append((
                    rid, request,
                    "by-hand replay differs from the serial run",
                ))
            executed.append(execution)
            seconds_each.append(elapsed)
        return engine, executed, seconds_each

    recorder = spans.SpanRecorder(workload.name)
    engine, executed, with_spans = replay(recorder, requests)
    phase(f"replayed {len(requests)} requests by hand, spans on")
    _, _, without_spans = replay(spans.NullRecorder(), part)
    phase(f"replayed {len(part)} requests by hand, spans off")
    probes = layers.probe_layers(
        recorder, engine, harness.distinct_programs(part)
    )
    phase("probes")

    metrics = layers.layer_metrics(
        engine, executed, probes,
        sorted({program.script for program in harness.COLD_PROGRAMS}),
    )
    # the program caches count every lookup with tracing off too; they
    # say how many requests each shard really served
    shard_counts = {
        shard: shard_stats.get("program_cache.hits", 0)
        + shard_stats.get("program_cache.misses", 0)
        for shard, shard_stats in stats.get("per_shard", {}).items()
    }
    metrics.update(layers.served_metrics(
        workload, timed_off.served, timed_on.served, with_spans,
        ready_off.warmup, shard_counts,
        getattr(ready_off.server, "snapshot_bytes", 0), spans_per_request,
    ))
    metrics["bench.span_overhead_pct"] = (
        100.0 * (sum(with_spans[:len(part)]) / sum(without_spans) - 1.0),
        "pct",
    )
    metrics["bench.failed_share"] = (len(failures) / attempted, "ratio")

    dump = recorder.dump(OUT_DIR / f"{workload.name}-seed{seed}.jsonl")
    print(f"# {len(recorder.spans)} spans -> {dump.relative_to(REPO)}")
    print("# share of request time by layer (self time):")
    shares = spans.layer_shares(
        [s for s in recorder.spans if not s["name"].startswith("probe.")]
    )
    for name in sorted(shares, key=shares.get, reverse=True):
        label = "(unattributed)" if name == spans.REQUEST else name
        print(f"#   {label:28} {shares[name]:6.2f} %")
    return metrics, attempted, failures


def run_one(name, seed, seconds, trace):
    """Run one workload in this process and print its result line."""
    harness, _, measure, _ = _load_program()
    workload = harness.WORKLOADS[name]
    runner = run_traced if trace else run_untraced
    metrics, attempted, failures = runner(workload, seed, seconds)

    spec = load_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"run.py: no value for {missing}")
    reported = {
        entry["name"]: {
            "value": metrics[entry["name"]][0],
            "unit": metrics[entry["name"]][1],
        }
        for entry in listed
    }
    count = workload.request_count(seconds)
    tail = measure.supported_tail(count)
    if not workload.block_requests:
        blocks = "one block"
    elif workload.open_loop:
        blocks = (f"best stretch of {workload.block_requests}-"
                  f"{workload.block_requests * 3 // 2} requests between "
                  "idle moments")
    else:
        blocks = (f"best of {count // workload.block_requests} blocks of "
                  f"{workload.block_requests}")
    print(f"# {name}: seed {seed}, {count} timed requests "
          f"({'open' if workload.open_loop else 'closed'} loop, {blocks}), "
          f"highest percentile with >= {measure.MIN_SAMPLES_BEYOND} "
          f"samples beyond it: p{tail}")
    for entry in listed:
        value, unit = metrics.pop(entry["name"])
        print(f"{entry['name']:34} {value:14.4f} {unit}")
    for extra, (value, unit) in metrics.items():
        print(f"{extra:34} {value:14.4f} {unit} (no bound)")
    print(f"{'failed_share':34} {len(failures) / attempted:14.4f} ratio "
          f"({len(failures)} of {attempted})")
    for index, request, reason in failures[:10]:
        print(f"! request {index} {request.program.label} "
              f"{request.tenant}: {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }))
    return 0 if not failures else 1


# -- many runs, each in a fresh subprocess ----------------------------------------

def spawn(name, seed, seconds, trace, echo=True):
    """Run the contract command for one workload in a fresh process;
    returns its result object (raises if it printed none)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"run.py: {name} exited {done.returncode} without a result"
        )
    return json.loads(lines[-1])


def run_all(names, seed, seconds, trace):
    correct = True
    for name in names:
        result = spawn(name, seed, seconds, trace)
        correct = correct and result["correct"]
        print()
    print("all results equal their serial runs" if correct
          else "SOME RESULTS WERE WRONG OR MISSING")
    return 0 if correct else 1


def run_repeat(names, seed, seconds, sets, seed_step):
    """K full sets in alternating workload order; fails when a metric's
    spread exceeds its bound, or (same seed) a deterministic one moved."""
    _, _, measure, _ = _load_program()
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    values = {}  # (workload, metric) -> [value per set]
    correct = True
    for index in range(sets):
        order = names if index % 2 == 0 else list(reversed(names))
        for name in order:
            result = spawn(
                name, seed + index * seed_step, seconds, False, echo=False
            )
            correct = correct and result["correct"]
            for metric, record in result["metrics"].items():
                values.setdefault((name, metric), []).append(record["value"])
            print(f"  {name} seed {seed + index * seed_step}: " + " ".join(
                f"{metric}={record['value']:.4g}"
                for metric, record in result["metrics"].items()
            ), flush=True)
        print(f"set {index + 1}/{sets} done ({' '.join(order)})", flush=True)

    over = []
    print(f"\n{'workload':13} {'metric':18} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for (name, metric), series in values.items():
        q1, median, q3 = measure.quartiles(series)
        spread = measure.relative_spread(series)
        flag = ""
        if metric != "setup_s" and spread > bounds[metric]:
            over.append(f"{name}/{metric}")
            flag = "  OVER"
        if (seed_step == 0 and metric == "sim_time_s_mean"
                and len(set(series)) != 1):
            over.append(f"{name}/{metric} (not deterministic)")
            flag = "  MOVED"
        print(f"{name:13} {metric:18} {q1:12.4f} {median:12.4f} "
              f"{q3:12.4f} {spread:8.4f} {bounds[metric]:6.2f}{flag}")
    if not correct:
        over.append("a result differed from its serial run")
    if over:
        print("FAIL: " + ", ".join(over))
        return 1
    print("every spread within its bound; every result correct")
    return 0


def run_sweep(seed, seconds):
    """Offered load vs goodput on serve_open (not part of the contract
    run and gates nothing): where does the curve leave the diagonal?"""
    harness, _, measure, _ = _load_program()
    workload = harness.WORKLOADS["serve_open"]
    limit_s = workload.limit_ms / 1e3
    print(f"{'offered 1/s':>11} {'goodput 1/s':>11} {'p50 ms':>9} "
          f"{'p90 ms':>9} {'backlog':>8}")
    for rate in SWEEP_RATES:
        count = max(3, round(rate * seconds / 3) * 3)
        ready = harness.Ready(workload, seed, count)
        try:
            timed = harness.run_timed(ready, rate=rate)
        finally:
            ready.close()
        failed = {index for index, _, _ in ready.failures(timed.served)}
        good = [
            s.latency_s for i, s in enumerate(timed.served)
            if i not in failed
        ]
        # still unanswered when the last request was due to be sent
        backlog = sum(
            1 for due, s in zip(timed.dues, timed.served)
            if due + s.latency_s > timed.schedule_s
        )
        print(f"{rate:11.1f} "
              f"{sum(1 for s in good if s <= limit_s) / timed.schedule_s:11.2f} "
              f"{1e3 * measure.percentile(good, 50):9.1f} "
              f"{1e3 * measure.percentile(good, 90):9.1f} {backlog:8d}",
              flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="sizes each workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--seed-step", type=int, default=0,
                        help="with --repeat: set i uses seed + i * step")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    harness, _, _, _ = _load_program()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is not None and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(harness.WORKLOADS)}")
    if args.selftest:
        import selftest

        return selftest.main()
    seconds = (
        args.seconds if args.seconds is not None
        else load_spec()["run_seconds"]
    )
    trace = bool(args.trace or args.traced)
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    if args.sweep:
        return run_sweep(args.seed, seconds)
    if args.repeat:
        return run_repeat(names, args.seed, seconds, args.repeat,
                          args.seed_step)
    if args.workload:
        return run_one(args.workload, args.seed, seconds, trace)
    return run_all(names, args.seed, seconds, trace)


if __name__ == "__main__":
    sys.exit(main())
