"""Appendix C's task-parallel optimizer as a schedule model (Figure 18).

Appendix C distributes Algorithm 1's outer loop: the master
baseline-compiles each CP grid point, workers enumerate the MR grid of
its remaining blocks, and an aggregation task costs the whole program
under the memoized vector.  The serial :class:`ResourceOptimizer` runs
exactly these three task kinds and every
:class:`~repro.optimizer.enumerate.CPPoint` carries their measured
durations; :func:`task_records` turns a run's points into task records
and :func:`schedule_makespan` list-schedules them on k workers, which is
how Figure 18's speedup shape is reported on any host.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TaskRecord:
    """Measured duration of one optimizer task (for makespan modelling)."""

    kind: str  # "baseline" | "enum" | "agg"
    rc: float = 0.0
    block_id: int = 0
    duration: float = 0.0


def task_records(points):
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


def schedule_makespan(records, num_workers, include_pipelining=True):
    """List-scheduling makespan of the measured task durations on
    ``num_workers`` workers.

    Models the paper's architecture: the master's per-r_c baseline
    compilations pipeline with worker enumeration (a worker can start a
    r_c's enum tasks only after that baseline finished), and each agg
    task additionally waits for its r_c's enum tasks.  Without
    pipelining the master compiles every baseline first and the workers
    start afterwards, so no task waits for a baseline.
    """
    baselines = [r for r in records if r.kind == "baseline"]
    master_time = 0.0
    release = {}
    for rec in sorted(baselines, key=lambda r: r.rc):
        master_time += rec.duration
        release[rec.rc] = master_time if include_pipelining else 0.0

    workers = [0.0] * max(1, num_workers)
    enum_done = {}
    for rec in [r for r in records if r.kind == "enum"]:
        idx = min(range(len(workers)), key=lambda i: workers[i])
        start = max(workers[idx], release.get(rec.rc, 0.0))
        workers[idx] = start + rec.duration
        enum_done[rec.rc] = max(enum_done.get(rec.rc, 0.0), workers[idx])
    for rec in [r for r in records if r.kind == "agg"]:
        idx = min(range(len(workers)), key=lambda i: workers[i])
        start = max(workers[idx], enum_done.get(rec.rc, release.get(rec.rc, 0.0)))
        workers[idx] = start + rec.duration
    return max([master_time] + workers) if include_pipelining else (
        master_time + max(workers)
    )
