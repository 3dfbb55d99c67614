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

from repro.cluster.admission import AdmissionCore, FirstFitPolicy
from repro.cluster.yarn import ResourceManager
from repro.errors import ClusterError


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
    core = AdmissionCore(ResourceManager(cluster), FirstFitPolicy())
    sequence = itertools.count()
    events = []  # (finish time, seq, user)
    remaining = [apps_per_user] * len(user_specs)
    running = {}  # user -> containers of its running application
    clock = 0.0
    max_concurrency = 0

    def enqueue(user):
        """The user's next application joins the line (arrival order)."""
        container_mb = user_specs[user][1]
        if core.offer(
            user, None, container_mb, count=containers_per_app
        ) is None:
            raise ClusterError(
                f"{containers_per_app} container(s) of {container_mb} MB "
                "can never be placed on this cluster"
            )

    for user in range(len(user_specs)):
        enqueue(user)
    while True:
        # skip-ahead admission: a queued user that does not fit does not
        # block the smaller ones behind it
        for request, containers in core.grant():
            running[request.ticket] = containers
            max_concurrency = max(max_concurrency, len(running))
            factor = (
                contention(len(running)) if contention is not None else 1.0
            )
            heapq.heappush(events, (
                clock + user_specs[request.ticket][0] * max(factor, 1.0),
                next(sequence), request.ticket,
            ))
        if not events:
            break
        clock, _, user = heapq.heappop(events)
        core.release(running.pop(user))
        remaining[user] -= 1
        if remaining[user] > 0:
            enqueue(user)

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
