"""The four request workloads and the loops that drive them.

Everything the program sees is generated here from ``--seed``: which
tenant sends which program in which order, the input data, and (open
loop) when each request is due.  The servers are only ever touched
through their public surface — construct, ``submit``, ``poll``,
``stats``, ``shutdown`` — with tracing off; layer attribution lives in
:mod:`layers`.
"""

from __future__ import annotations

import queue
import random
import statistics
import threading
import time
from dataclasses import dataclass

from repro.api import ElasticMLSession
from repro.serving import (
    ElasticMLServer,
    ShardedElasticMLServer,
    Submission,
)
from repro.workloads import prepare_inputs, scenario

import measure

SAMPLE_CAP = 64
TENANTS = 16
#: seconds a single poll may block before the request counts as failed
POLL_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Program:
    """One distinct (script, data scenario) a tenant can submit."""

    script: str
    size: str
    cols: int = 1000
    sparse: bool = False

    @property
    def scenario(self):
        return scenario(self.size, cols=self.cols, sparse=self.sparse)

    @property
    def label(self):
        kind = "sparse" if self.sparse else "dense"
        return f"{self.script}:{self.size}:{kind}{self.cols}"


@dataclass(frozen=True)
class Request:
    program: Program
    tenant: str


XS_MIX = tuple(
    Program(script, "XS", cols=100)
    for script in ("LinregDS", "LinregCG", "L2SVM")
)
INTERP_MIX = (
    Program("MLogreg", "XS", cols=100),
    Program("MLogreg", "S"),
    Program("MLogreg", "M"),
    Program("MLogreg", "L"),
)
COLD_SCRIPTS = (
    "LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM", "KMeans", "PCA",
)
COLD_PROGRAMS = tuple(
    Program(script, size, cols=cols, sparse=sparse)
    for script in COLD_SCRIPTS
    for size in ("XS", "S", "M", "L")
    for cols, sparse in ((1000, False), (1000, True), (100, False))
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    programs: tuple
    #: timed requests per second of ``--seconds``: the request count is
    #: fixed by the command line, not by how fast the code under test is
    rate: float
    #: goodput counts correct completions no slower than this
    limit_ms: float
    #: every program is served ``warm_cycles`` times before timing
    warm_cycles: int = 0
    #: requests are sent on a schedule instead of one after the other
    open_loop: bool = False
    #: > 0 serves through ShardedElasticMLServer(shards, max_workers=1)
    shards: int = 0
    #: every program at most once, in shuffled order (no cycling)
    distinct: bool = False
    #: full set-ups per run; ``setup_s`` is their median
    setup_reps: int = 3
    #: the timed requests are measured in blocks of this many (whole
    #: cycles, so every block holds the same work); 0 = one block.  On
    #: the open loop: the fewest requests of a stretch (see stretches())
    block_requests: int = 0

    def request_count(self, seconds):
        count = max(1, round(self.rate * seconds))
        if self.distinct:
            return min(count, len(self.programs))
        block = self.block_requests or len(self.programs)
        return max(1, round(count / block)) * block

    def requests(self, seed, count):
        """``count`` requests, a pure function of (workload, seed)."""
        rng = random.Random(f"{self.name}:{seed}:requests")
        if self.distinct:
            programs = list(self.programs)
            rng.shuffle(programs)
            programs = programs[:count]
        else:
            # whole cycles, each in its own seeded order, so any block of
            # cycles holds the same work
            programs = []
            while len(programs) < count:
                cycle = list(self.programs)
                rng.shuffle(cycle)
                programs.extend(cycle)
            programs = programs[:count]
        return [
            Request(program, f"tenant-{rng.randrange(TENANTS):02d}")
            for program in programs
        ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="serve_warm",
            why="repeat tenants on a warm single-process server: cache "
                "handout, opt-cache lookup and plan compilation dominate, "
                "interpretation is small",
            programs=XS_MIX, rate=32.0, limit_ms=150.0, warm_cycles=10,
            block_requests=30,
        ),
        Workload(
            name="serve_interp",
            why="warm MLogreg XS-L requests (MR jobs, dynamic recompilation, "
                "CP migration): repro.runtime dominates and cache handout "
                "is under a tenth",
            programs=INTERP_MIX, rate=6.4, limit_ms=1000.0, warm_cycles=2,
            block_requests=8, setup_reps=2,
        ),
        Workload(
            name="serve_cold",
            why="84 distinct programs once each: every cache misses, stores "
                "and evicts, so parser, compiler, optimizer and cost model "
                "dominate",
            programs=COLD_PROGRAMS, rate=5.6, limit_ms=2000.0,
            distinct=True, setup_reps=1,
        ),
        Workload(
            name="serve_open",
            why="seeded Poisson arrivals at a fixed 16 req/s through two "
                "shard processes: the only workload with overlap, queueing, "
                "routing and shard IPC",
            programs=XS_MIX, rate=16.0, limit_ms=150.0,
            warm_cycles=TENANTS, open_loop=True, shards=2, setup_reps=2,
            block_requests=20,
        ),
    )
}


def canonical(result, resource):
    """Simulated-result identity of one run (``bench_serving``'s tuple):
    independent of block-id stamps, wall clock and scheduling."""
    return (
        result.total_time,
        result.mr_jobs,
        tuple(result.prints),
        resource.cp_heap_mb,
        resource.mr_heap_mb,
        tuple(sorted(resource.mr_heap_per_block.values())),
    )


def canonical_outcome(outcome):
    return canonical(outcome.result, outcome.resource)


def serial_reference(program, seed):
    """What a private single-tenant session computes for ``program``."""
    session = ElasticMLSession(sample_cap=SAMPLE_CAP, seed=seed)
    args = prepare_inputs(
        session.hdfs, program.script, program.scenario, seed=seed
    )
    return canonical_outcome(session.run(program.script, args))


def make_server(workload, trace=False):
    if workload.shards:
        return ShardedElasticMLServer(
            shards=workload.shards, sample_cap=SAMPLE_CAP, max_workers=1,
            trace=trace,
        )
    return ElasticMLServer(sample_cap=SAMPLE_CAP, trace=trace)


def distinct_programs(requests):
    return sorted(
        {request.program for request in requests},
        key=lambda program: program.label,
    )


def prepare_all(hdfs, programs, seed):
    """Generate every program's input files; returns program -> args."""
    return {
        program: prepare_inputs(
            hdfs, program.script, program.scenario, seed=seed
        )
        for program in programs
    }


@dataclass
class Served:
    """One request as the client saw it."""

    request: Request
    #: seconds from when the request was due until poll returned it
    latency_s: float
    #: the terminal SubmissionResult, or None if poll timed out
    result: object
    #: open loop: seconds the generator sent it after it was due
    late_s: float = 0.0

    def failure(self, references):
        """Why this request counts as failed, or None."""
        if self.result is None:
            return "poll timed out"
        if not self.result.ok:
            return f"{self.result.status}: {self.result.error}"
        if canonical_outcome(self.result.outcome) != (
            references[self.request.program]
        ):
            return "result differs from the serial single-session run"
        return None


class Ready:
    """A set-up workload: live server, submissions, serial references."""

    def __init__(self, workload, seed, count, trace=False,
                 references=None):
        self.workload = workload
        self.seed = seed
        self.server = make_server(workload, trace=trace)
        self.requests = workload.requests(seed, count)
        programs = distinct_programs(self.requests)
        # inputs go onto the server's HDFS before the first submit: shard
        # workers fork lazily and inherit this snapshot
        self.args = prepare_all(self.server.hdfs, programs, seed)
        self.references = references if references is not None else {
            program: serial_reference(program, seed) for program in programs
        }
        self.warmup = self._warm_up()

    def submission(self, request):
        return Submission(
            tenant=request.tenant, script=request.program.script,
            args=self.args[request.program], seed=self.seed,
        )

    def _warm_up(self):
        """Serve ``warm_cycles`` cycles one request at a time, cycle c
        as tenant c — with 16 cycles every tenant, hence every shard,
        has served every program."""
        warmup = [
            Request(program, f"tenant-{cycle % TENANTS:02d}")
            for cycle in range(self.workload.warm_cycles)
            for program in self.workload.programs
        ]
        return serve_closed(self, warmup)

    def failures(self, served):
        """(index, request, reason) of every request that failed."""
        return [
            (index, item.request, reason)
            for index, item in enumerate(served)
            if (reason := item.failure(self.references)) is not None
        ]

    def close(self):
        self.server.shutdown()


def serve_closed(ready, requests):
    """One client: submit, wait for the reply, submit the next."""
    served = []
    for request in requests:
        submission = ready.submission(request)
        start = time.perf_counter()
        ticket = ready.server.submit(submission)
        result = ready.server.poll(ticket, timeout=POLL_TIMEOUT_S)
        served.append(Served(request, time.perf_counter() - start, result))
    return served


def mark(index):
    """(index of the next request, wall clock, process-tree CPU): taken
    only while no request is in flight, so the CPU between two marks is
    the CPU of exactly the requests between them."""
    return (index, time.perf_counter(), measure.tree_cpu_seconds())


def serve_open(ready, requests, dues):
    """Send each request when it is due, whatever the server is doing.
    Returns the served requests and a :func:`mark` for every request
    that was sent while nothing was in flight, plus one after the last
    reply.

    One generator thread sleeps until each due time and submits; one
    collector thread stamps a completion the moment ``poll`` surfaces it
    (it parks on the oldest outstanding ticket for at most 2 ms, then
    sweeps the rest, so a reply that overtakes an older request is not
    held back behind it).  Latency runs from the *due* time, which
    charges a stalled generator's lateness to the requests it delayed.
    """
    server = ready.server
    submissions = [ready.submission(request) for request in requests]
    count = len(requests)
    sent = [None] * count
    done = [None] * count
    results = [None] * count
    completed = [0]  # written by the collector, read by the generator
    tickets = queue.SimpleQueue()
    errors = []
    marks = []
    start = time.perf_counter() + 0.05
    give_up = start + (dues[-1] if dues else 0.0) + POLL_TIMEOUT_S

    def generate():
        try:
            for index, submission in enumerate(submissions):
                delay = start + dues[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if completed[0] == index:
                    marks.append(mark(index))
                sent[index] = time.perf_counter() - start
                tickets.put((server.submit(submission), index))
        except Exception as exc:  # surfaced by the caller after join
            errors.append(exc)
        finally:
            tickets.put(None)

    def collect():
        try:
            outstanding = {}
            generating = True
            while generating or outstanding:
                if time.perf_counter() > give_up:
                    return
                try:
                    item = (
                        tickets.get_nowait() if outstanding
                        else tickets.get(timeout=0.05)
                    )
                except queue.Empty:
                    item = False
                if item is None:
                    generating = False
                elif item:
                    outstanding[item[0]] = item[1]
                    continue  # drain new tickets before polling
                if not outstanding:
                    continue
                server.poll(next(iter(outstanding)), timeout=0.002)
                for ticket in list(outstanding):
                    result = server.poll(ticket)
                    if result is not None:
                        index = outstanding.pop(ticket)
                        done[index] = time.perf_counter() - start
                        results[index] = result
                        completed[0] += 1
        except Exception as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=generate, name="e2e-generator"),
        threading.Thread(target=collect, name="e2e-collector"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    marks.append(mark(count))
    return [
        Served(
            request,
            (done[i] - dues[i]) if done[i] is not None else float("inf"),
            results[i],
            late_s=(sent[i] - dues[i]) if sent[i] is not None else 0.0,
        )
        for i, request in enumerate(requests)
    ], marks


@dataclass
class Timed:
    """The timed window of one run."""

    served: list
    #: a :func:`mark` wherever the window can be cut cleanly: between the
    #: blocks of a closed loop, at every idle moment of the open loop
    marks: list
    #: open loop: length of the arrival schedule (count / rate)
    schedule_s: float = 0.0
    #: open loop: when each request was due, seconds from the start
    dues: tuple = ()


def run_timed(ready, requests=None, rate=None):
    """Drive the workload's loop over ``requests`` (default: all), a
    closed loop one block at a time; ``rate`` overrides the open loop's
    arrival rate (``--sweep``)."""
    workload = ready.workload
    requests = ready.requests if requests is None else requests
    if workload.open_loop:
        rate = workload.rate if rate is None else rate
        rng = random.Random(f"{workload.name}:{ready.seed}:arrivals")
        dues = measure.arrival_schedule(rng, len(requests), rate)
        # the schedule leaves the CPUs idle half of the time; halted,
        # they are the host's to park (see measure.cpus_kept_awake)
        with measure.cpus_kept_awake():
            served, marks = serve_open(ready, requests, dues)
        return Timed(served, marks, len(requests) / rate, tuple(dues))
    size = workload.block_requests or len(requests)
    served, marks = [], [mark(0)]
    for first in range(0, len(requests), size):
        served += serve_closed(ready, requests[first:first + size])
        marks.append(mark(len(served)))
    return Timed(served, marks)


def stretches(workload, marks):
    """The (begin mark, end mark) pairs a run is judged on.

    A closed loop is cut into its blocks of equal work.  The open loop
    cannot be: a request of one block is still running when the next
    block's first is sent.  It is judged on every stretch of
    ``block_requests`` to 1.5 x ``block_requests`` requests that begins
    and ends at an idle moment — several hundred overlapping stretches
    of 1.3 to 1.9 s, so a disturbance of a few seconds leaves many of
    them untouched.
    """
    least = workload.block_requests
    if workload.open_loop and least:
        pairs = [
            (begin, end)
            for index, begin in enumerate(marks) for end in marks[index + 1:]
            if least <= end[0] - begin[0] <= 1.5 * least
        ]
    else:
        pairs = list(zip(marks, marks[1:]))
    return pairs or [(marks[0], marks[-1])]


def base_latency_s(workload, served):
    """What a request costs a tenant when it does not have to queue.

    In a closed loop with one client nothing queues, and this is the
    median.  On the open loop the median is the wrong place to look: the
    mix has three service times (13, 19 and 38 ms), about 45 % of the
    requests of the busier shard find it busy, and the 50th percentile
    falls between two modes — runs of the same code read 23 or 37 ms as
    a neighbour tips the queueing a little.  The lower quartile of each
    program sits inside its un-queued requests, where the samples are
    dense; this is the mean of the three.  What queueing costs is
    goodput_rps.
    """
    if not served:
        return float("inf")
    if not workload.open_loop:
        return measure.percentile([s.latency_s for s in served], 50)
    by_program = {}
    for item in served:
        by_program.setdefault(item.request.program, []).append(item.latency_s)
    if len(by_program) < len(workload.programs):
        return float("inf")  # a stretch without one of the programs
    return statistics.mean(
        measure.percentile(latencies, 25)
        for latencies in by_program.values()
    )


def end_to_end_metrics(ready, timed, setup_times):
    """Name -> (value, unit) for every end-to-end metric, plus the
    failure list.  ``peak_rss_mb`` is read by the caller after shutdown,
    once the shard processes are reaped.

    The host is shared: a neighbour slows this process for anything from
    a fraction of a second to minutes, and never speeds it up.  So every
    rate and time is taken per stretch of the run (:func:`stretches`)
    and the *least disturbed* one is reported — the estimate of what the
    program itself costs.  Measured on six noisy runs of serve_warm,
    whole-run throughput spread 18 %, the median block 16 %, the best
    block 5 %.  On the open loop the schedule sets the pace, not the
    server, so its throughput and goodput are those of the whole
    schedule.
    """
    workload = ready.workload
    failures = ready.failures(timed.served)
    failed = {index for index, _, _ in failures}
    limit_s = workload.limit_ms / 1e3
    rates, goodputs, latencies, cpus = [], [], [], []
    for (first, began, cpu_began), (end, ended, cpu_ended) in stretches(
            workload, timed.marks):
        correct = [
            timed.served[index] for index in range(first, end)
            if index not in failed
        ]
        within = sum(1 for s in correct if s.latency_s <= limit_s)
        rates.append(len(correct) / (ended - began))
        goodputs.append(within / (ended - began))
        latencies.append(base_latency_s(workload, correct))
        cpus.append((cpu_ended - cpu_began) / (end - first))
    correct = [s for i, s in enumerate(timed.served) if i not in failed]
    if workload.open_loop:
        wall_s = timed.marks[-1][1] - timed.marks[0][1]
        within = sum(1 for s in correct if s.latency_s <= limit_s)
        throughput, goodput = len(correct) / wall_s, within / timed.schedule_s
    else:
        throughput, goodput = max(rates), max(goodputs)
    sims = [s.result.total_time for s in correct]
    whole = [s.latency_s for s in correct] or [float("inf")]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (throughput, "1/s"),
        "latency_base_ms": (1e3 * min(latencies), "ms"),
        "cpu_ms_per_req": (1e3 * min(cpus), "ms"),
        "goodput_rps": (goodput, "1/s"),
        "sim_time_s_mean": (
            sum(sims) / len(sims) if sims else 0.0, "sim_s"
        ),
        # whole window, every request: too unsteady on the open loop to
        # carry a bound, so the contract lists them with the layer metrics
        "latency_p50_ms": (1e3 * measure.percentile(whole, 50), "ms"),
        "latency_p90_ms": (1e3 * measure.percentile(whole, 90), "ms"),
    }
    return metrics, failures
