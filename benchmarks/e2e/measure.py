"""Arithmetic and process accounting shared by the e2e harness.

Percentiles and their sample-count rule, the run-to-run spread the
regression bounds are written in, the seeded arrival schedule of the
open-loop workload, CPU / peak-RSS accounting over the workload
process *and* its children (the sharded server runs tenants in child
processes, so the parent's own ``getrusage`` would miss all the work),
and the idle-class spinners that keep the open loop's CPUs awake.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time

#: a tail percentile is only reported as stable with this many samples
#: beyond it (choosing-metrics guide, section 1)
MIN_SAMPLES_BEYOND = 10


def percentile(samples, pct):
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(count, beyond=MIN_SAMPLES_BEYOND):
    """The highest whole percentile with at least ``beyond`` samples
    above it, or None when even the median has fewer."""
    if count <= 0:
        return None
    pct = math.floor(100.0 * (1.0 - beyond / count))
    return pct if pct >= 50 else None


def quartiles(values):
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives
    them — the driver computes its spreads the same way."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def arrival_schedule(rng, count, rate):
    """``count`` Poisson arrival offsets (seconds) at ``rate`` per second.

    Drawn as the order statistics of ``count`` uniforms on
    ``[0, count / rate)``: that *is* a Poisson process conditioned on its
    count, and it pins both the request count and the schedule length, so
    two seeds offer the same load over the same span and differ only in
    where the bursts fall.
    """
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


# -- process-tree accounting --------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _live_child_pids():
    # active_children() also reaps finished children, which moves their
    # CPU into RUSAGE_CHILDREN — read it after this, never counted twice
    return [child.pid for child in multiprocessing.active_children()]


def _proc_cpu_seconds(pid):
    """user+system CPU of a live process from /proc (0 where absent)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # after the command name: state is field 0, utime 11, stime 12
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def tree_cpu_seconds():
    """CPU seconds consumed so far by this process, its reaped children
    and its live children.  Differences of two readings are steal-proof:
    time the hypervisor gave to someone else is not in them."""
    live = sum(_proc_cpu_seconds(pid) for pid in _live_child_pids())
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + live


#: one per CPU: pins itself, drops to the idle scheduling class (any
#: runnable thread of the workload preempts it at once), and spins only
#: while the process that started it is alive.  If it cannot lower its
#: priority it exits instead of competing with the workload.
_SPINNER = """
import os, sys, time
parent, cpu = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, {cpu})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while os.getppid() == parent:
    until = time.monotonic() + 0.05
    while time.monotonic() < until:
        pass
"""


@contextlib.contextmanager
def cpus_kept_awake():
    """Keep every CPU of this process from going idle while the block runs.

    A workload with idle gaps (the open loop runs at under half of
    capacity) halts its virtual CPUs between requests; on a shared host
    the hypervisor then parks them, and what a request pays to get its
    CPU back — wake-up, cold caches, clock ramp — depends on the
    neighbours, not on the program.  Measured here on one seed, eight
    runs each way, alternating: CPU per request 25.5-28.1 ms with the
    spinners and 27.0-30.9 ms without (spread 2.3 % against 7.5 %), p50
    latency spread 2.5 % against 6.8 %.

    The spinners are plain subprocesses, not ``multiprocessing``
    children, and are reaped only when the block ends, so
    :func:`tree_cpu_seconds` readings taken inside the block never
    include them.  Yields how many are spinning (0 where the platform
    has no scheduling-class control).
    """
    spinners = []
    if hasattr(os, "sched_getaffinity"):
        for cpu in sorted(os.sched_getaffinity(0)):
            spinners.append(subprocess.Popen(
                [sys.executable, "-S", "-c", _SPINNER,
                 str(os.getpid()), str(cpu)],
                stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ))
    try:
        if spinners:
            time.sleep(0.2)  # interpreter start-up; then they spin
        yield sum(1 for spinner in spinners if spinner.poll() is None)
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def peak_rss_mb():
    """Largest peak resident set among this process and its children
    (reaped ones from ``getrusage``, live ones from /proc), in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in _live_child_pids():
        peak_kb = max(peak_kb, _proc_peak_rss_kb(pid))
    return peak_kb / 1024.0
