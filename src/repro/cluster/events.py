"""Discrete-event multi-application throughput simulator (Section 5.3).

Reproduces the paper's throughput methodology: a multi-threaded driver
spawns |U| users, each running ``apps_per_user`` applications back to
back.  Each application requests an AM container (1.5x its CP heap) from
the YARN RM; applications queue FIFO when the cluster lacks capacity.
Throughput is total applications divided by total driver time.

The per-application duration is supplied by the caller (typically the
measured single-application execution time from the runtime simulator);
an optional ``contention`` function can model slowdown under
concurrency (e.g. IO-bandwidth saturation at the head node, which the
paper observes as sub-linear speedup).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.cluster.yarn import ResourceManager


@dataclass
class ThroughputOutcome:
    total_apps: int
    makespan_seconds: float
    max_concurrency: int

    @property
    def apps_per_minute(self):
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_apps * 60.0 / self.makespan_seconds


def simulate_throughput(cluster, num_users, apps_per_user, app_duration,
                        container_mb, contention=None,
                        containers_per_app=1):
    """Event-driven simulation of the multi-user driver: every user runs
    the same application.

    ``app_duration`` is the base execution time of one application;
    ``container_mb`` the AM container request per application; the rest
    as in :func:`simulate_mixed_throughput`, of which this is the
    one-request-size case (where its skip-ahead admission and FIFO
    head-of-line blocking admit the same set).
    """
    return simulate_mixed_throughput(
        cluster, [(app_duration, container_mb)] * num_users,
        apps_per_user, contention, containers_per_app,
    )


def simulate_mixed_throughput(cluster, user_specs, apps_per_user=8,
                              contention=None, containers_per_app=1):
    """Heterogeneous multi-tenancy: each user runs its own application
    type, with its own duration and container request — the "variety of
    ML programs" setting that makes static cluster configurations a
    compromise (paper Section 1).

    ``user_specs`` is a list of (app_duration, container_mb) tuples, one
    per user; ``contention(concurrency)`` optionally returns a slowdown
    factor (>= 1) applied at application start; ``containers_per_app``
    models applications with standing worker containers (e.g. Spark
    executors) allocated all-or-nothing.  Returns a
    :class:`ThroughputOutcome`.
    """
    rm = ResourceManager(cluster)
    sequence = itertools.count()
    events = []  # (finish time, seq, user)
    remaining = [apps_per_user] * len(user_specs)
    running = {}  # user -> containers of its running application
    clock = 0.0
    max_concurrency = 0

    def try_start(user, now):
        nonlocal max_concurrency
        duration, container_mb = user_specs[user]
        granted = []
        for _ in range(containers_per_app):
            container = rm.try_allocate(container_mb)
            if container is None:
                for held in granted:
                    rm.release(held)
                return False
            granted.append(container)
        running[user] = granted
        max_concurrency = max(max_concurrency, len(running))
        factor = contention(len(running)) if contention is not None else 1.0
        heapq.heappush(
            events,
            (now + duration * max(factor, 1.0), next(sequence), user),
        )
        return True

    # users whose next application awaits capacity, in arrival order
    waiting = [
        user for user in range(len(user_specs)) if not try_start(user, 0.0)
    ]
    while events:
        clock, _, user = heapq.heappop(events)
        for container in running.pop(user):
            rm.release(container)
        remaining[user] -= 1
        if remaining[user] > 0:
            waiting.append(user)
        # skip-ahead admission: a queued user that does not fit does not
        # block the smaller ones behind it.  Capacity only shrinks during
        # a pass, so a request at least as large as one that already
        # failed is not retried.
        still_waiting = []
        smallest_failed = float("inf")
        for queued in waiting:
            container_mb = user_specs[queued][1]
            if container_mb >= smallest_failed or not try_start(queued, clock):
                smallest_failed = min(smallest_failed, container_mb)
                still_waiting.append(queued)
        waiting = still_waiting

    return ThroughputOutcome(
        total_apps=len(user_specs) * apps_per_user,
        makespan_seconds=clock,
        max_concurrency=max_concurrency,
    )


def io_saturation_contention(saturation_point=8, exponent=0.35):
    """A contention model for shared head-node IO: no slowdown up to
    ``saturation_point`` concurrent applications, then a gentle
    power-law slowdown (the paper reports suboptimal speedup 'due to IO
    bandwidth saturation')."""

    def factor(concurrency):
        if concurrency <= saturation_point:
            return 1.0
        return (concurrency / saturation_point) ** exponent

    return factor
