"""``run.py --selftest``: the harness checks its own arithmetic, then
smokes every workload at 12 requests with the correctness gate on.

Covers the percentile / sample-count rule, that the arrival schedule is
a function of the seed alone, the latency rule and the stretches of
each kind of loop, self-time arithmetic on a hand-built span tree, CPU and peak-RSS
accounting across a child process, that the spinners which keep the
open loop's CPUs awake stay out of that accounting, that the gate really
fails on a wrong result, and that the by-hand replay reproduces the
serial result.  Meant to finish in about ten seconds.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import replace

import harness
import layers
import measure
import spans

SMOKE_REQUESTS = 12
#: a seed whose first 12 serve_cold programs hold no GLM or L2SVM grid
#: search, so the smoke stays short; any seed is equally valid
SMOKE_SEED = 175
CHILD_MB = 192


def check_percentiles():
    hundred = list(range(1, 101))
    assert measure.percentile(hundred, 50) == 50
    assert measure.percentile(hundred, 90) == 90
    assert measure.percentile([7.0], 90) == 7.0
    # p90 needs 100 samples to keep ten beyond it
    assert measure.supported_tail(100) == 90
    assert measure.supported_tail(600) == 98
    assert measure.supported_tail(240) == 95
    assert measure.supported_tail(120) == 91
    assert measure.supported_tail(84) == 88
    assert measure.supported_tail(SMOKE_REQUESTS) is None
    q1, median, q3 = measure.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert measure.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0


def check_schedule():
    def schedule(seed):
        return measure.arrival_schedule(random.Random(f"w:{seed}"), 240, 16.0)

    first = schedule(1)
    assert first == schedule(1), "same seed, different schedule"
    assert first != schedule(2), "different seeds, same schedule"
    assert first == sorted(first) and len(first) == 240
    assert 0.0 <= first[0] and first[-1] < 240 / 16.0
    workload = harness.WORKLOADS["serve_open"]
    assert workload.requests(1, 48) == workload.requests(1, 48)
    assert workload.requests(1, 48) != workload.requests(2, 48)


def check_base_latency():
    def served(program, *latencies):
        return [
            harness.Served(harness.Request(program, "tenant-00"), s, None)
            for s in latencies
        ]

    fast, middle, slow = harness.XS_MIX
    # a quarter of each program's requests queued behind something
    mixed = (served(fast, 0.010, 0.011, 0.012, 0.050)
             + served(middle, 0.020, 0.021, 0.022, 0.070)
             + served(slow, 0.040, 0.041, 0.042, 0.090))
    closed = harness.WORKLOADS["serve_warm"]
    opened = harness.WORKLOADS["serve_open"]
    assert harness.base_latency_s(closed, mixed) == 0.022  # the median
    # the lower quartile of each program, averaged: queueing is not in it
    assert abs(harness.base_latency_s(opened, mixed) - 0.070 / 3) < 1e-12
    # a stretch that lacks a program cannot stand for the mix
    assert harness.base_latency_s(opened, mixed[:8]) == float("inf")
    assert harness.base_latency_s(opened, []) == float("inf")


def check_stretches():
    closed = harness.WORKLOADS["serve_warm"]
    opened = harness.WORKLOADS["serve_open"]  # stretches of 20 to 30
    marks = [(index, float(index), 0.0) for index in (0, 5, 21, 30, 36, 60)]
    assert harness.stretches(closed, marks) == list(zip(marks, marks[1:]))
    spans = [(b[0], e[0]) for b, e in harness.stretches(opened, marks)]
    assert spans == [(0, 21), (0, 30), (5, 30), (30, 60), (36, 60)], spans
    # too short a run to hold one: the whole of it
    assert harness.stretches(opened, marks[:2]) == [(marks[0], marks[1])]


def check_self_times():
    def span(ident, name, start, end, parent):
        return {"id": ident, "name": name, "start": start, "end": end,
                "parent": parent, "request": 0, "workload": "t"}

    tree = [
        span(0, spans.REQUEST, 0.0, 10.0, None),
        span(1, "a", 1.0, 4.0, 0),
        span(2, "b", 5.0, 9.0, 0),
        span(3, "c", 6.0, 7.0, 2),
    ]
    assert spans.self_times(tree) == {
        spans.REQUEST: 3.0, "a": 3.0, "b": 3.0, "c": 1.0,
    }
    assert abs(spans.unattributed_pct(tree) - 30.0) < 1e-9
    assert abs(sum(spans.layer_shares(tree).values()) - 100.0) < 1e-9
    recorder = spans.SpanRecorder("t")
    with recorder.span(spans.REQUEST, 5):
        with recorder.span("a", 5):
            pass
    outer, inner = recorder.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def _burn_and_hold(megabytes, seconds):
    block = bytearray(megabytes << 20)
    block[::4096] = b"\x01" * len(block[::4096])  # touch every page
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        pass


def check_child_accounting():
    context = multiprocessing.get_context("spawn")
    cpu_before = measure.tree_cpu_seconds()
    child = context.Process(target=_burn_and_hold, args=(CHILD_MB, 0.15))
    child.start()
    child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    # the child is reaped: its CPU and its peak RSS must both show up
    assert measure.tree_cpu_seconds() - cpu_before >= 0.15
    assert measure.peak_rss_mb() >= CHILD_MB


def check_kept_awake():
    cpus = len(os.sched_getaffinity(0))
    before = measure.tree_cpu_seconds()
    with measure.cpus_kept_awake() as spinning:
        assert spinning in (0, cpus), (spinning, cpus)
        time.sleep(0.3)
        # they burn a CPU each, and none of it is charged to the workload
        assert measure.tree_cpu_seconds() - before < 0.15


def smoke(name):
    # no warm-up: the first cycle fills the caches, the rest hit them
    workload = replace(harness.WORKLOADS[name], warm_cycles=0)
    ready = harness.Ready(workload, SMOKE_SEED, SMOKE_REQUESTS)
    try:
        timed = harness.run_timed(ready)
    finally:
        ready.close()
    metrics, failures = harness.end_to_end_metrics(ready, timed, [0.0])
    assert not failures, failures[:3]
    assert not ready.failures(ready.warmup)
    assert len(timed.served) == SMOKE_REQUESTS
    # cold, so possibly no open-loop request within the goodput limit
    assert all(value > 0 for name, (value, _) in metrics.items()
               if name not in ("setup_s", "goodput_rps")), metrics
    # the gate itself: a wrong reference must fail every request of it
    victim = timed.served[0].request.program
    truth = ready.references[victim]
    ready.references[victim] = ("not", "the", "result")
    assert ready.failures(timed.served), "gate passed a wrong result"
    ready.references[victim] = truth
    return ready, metrics


def check_replay(ready):
    """The by-hand replay equals the serial references too."""
    programs = harness.distinct_programs(ready.requests)
    recorder = spans.SpanRecorder("selftest")
    engine = layers.LayerReplay(recorder, SMOKE_SEED, programs)
    for rid, request in enumerate(ready.requests[:len(programs)]):
        result, _, _ = engine.run(rid, request)
        assert result == ready.references[request.program], request
    assert spans.unattributed_pct(recorder.spans) < 50.0


def main():
    started = time.perf_counter()
    for check in (check_percentiles, check_schedule, check_base_latency,
                  check_stretches, check_self_times, check_child_accounting,
                  check_kept_awake):
        check()
        print(f"ok  {check.__name__}")
    for name in harness.WORKLOADS:
        began = time.perf_counter()
        ready, metrics = smoke(name)
        print(f"ok  smoke {name}: {SMOKE_REQUESTS} requests correct, "
              f"{metrics['throughput_rps'][0]:.1f} req/s "
              f"({time.perf_counter() - began:.1f} s)")
        if name == "serve_warm":
            check_replay(ready)
            print("ok  check_replay")
    print(f"selftest passed in {time.perf_counter() - started:.1f} s")
    return 0
