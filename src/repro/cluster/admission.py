"""The admission core (paper Section 5.3): waiting set + policy + RM.

"The allocated resources per application directly bound the number of
parallel applications": a request waits until its 1.5x-heap AM
container fits, then runs.  :class:`AdmissionCore` is that rule written
once — clock-agnostic and lock-free, so the wall-clock server
(:class:`~repro.serving.server.ElasticMLServer`, under its condition
variable), the virtual-time trace simulator
(:class:`~repro.elastic.simulator.TraceSimulator`) and the Fig 12 event
loop (:mod:`repro.cluster.events`) all drive the same mechanism.

A request may name smaller *acceptable sizes* (``shrunk_mb``): an
admission below ideal, at a cheaper point of the run's cost frontier,
is one more size of the same request, not a second admission path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class PendingRequest:
    """One request waiting for its container(s)."""

    ticket: int
    tenant: str
    #: the ideal container size
    container_mb: int
    #: arrival sequence number (FIFO order)
    order: int
    #: smaller sizes the requester also accepts, largest first
    shrunk_mb: tuple = ()
    #: containers needed, granted all-or-nothing
    count: int = 1

    @property
    def sizes(self):
        """Every acceptable size, largest first."""
        return (self.container_mb, *self.shrunk_mb)


def fitting_mb(request, rm):
    """The largest acceptable size of ``request`` the resource manager
    can place right now (all ``count`` containers, within the tenant's
    quota), or None.  Monotone in free capacity: more free memory never
    yields a smaller size."""
    for mb in request.sizes:
        if rm.can_fit(mb, tenant=request.tenant, count=request.count):
            return mb
    return None


class AdmissionPolicy:
    """Strategy interface: pick the next waiting request to admit.

    :meth:`select` receives the waiting requests in arrival order and
    the live :class:`~repro.cluster.yarn.ResourceManager`; it returns
    one request that fits now (see :func:`fitting_mb`), or None if
    nothing should be admitted yet.  :meth:`AdmissionCore.grant` calls
    it in a loop, so returning one request at a time is sufficient.
    """

    name = "base"

    def select(self, waiting, rm):
        raise NotImplementedError

    # the core never calls it; benchmarks/e2e/layers.py still does
    def admitted(self, request):
        """No-op: a request was granted its container."""


class HeapRulePolicy(AdmissionPolicy):
    """FIFO admission under the 1.5x-heap container rule.

    Admits the head of the line iff the resource manager can place its
    AM container right now.  A large head blocks younger submissions
    even when they would fit — run-order fairness exactly as a FIFO
    YARN queue behaves in the paper's throughput setup.
    """

    name = "heap-rule"

    def select(self, waiting, rm):
        if not waiting:
            return None
        head = min(waiting, key=lambda r: r.order)
        return head if fitting_mb(head, rm) is not None else None


class FirstFitPolicy(AdmissionPolicy):
    """Skip-ahead admission (the Fig 12 driver): the oldest waiting
    request that fits; one that does not fit does not block the smaller
    ones behind it."""

    name = "first-fit"

    def select(self, waiting, rm):
        # free capacity is fixed during one call, so once a quota-less
        # request found no room, a request for at least that size and
        # that many containers is not retried
        blocked_mb = blocked_count = float("inf")
        for request in waiting:
            if (request.container_mb >= blocked_mb
                    and request.count >= blocked_count
                    and not request.shrunk_mb):
                continue
            if fitting_mb(request, rm) is not None:
                return request
            smallest = request.sizes[-1]
            if (rm.tenant_quota_mb(request.tenant) is None
                    and smallest <= blocked_mb
                    and request.count <= blocked_count):
                blocked_mb, blocked_count = smallest, request.count
        return None


class AdmissionCore:
    """Waiting set + policy + resource manager; no clock, no lock.

    Drivers :meth:`offer` a request when it arrives, call :meth:`grant`
    whenever capacity or the waiting set changed, and :meth:`release`
    the containers of a finished run.  Callers that share a core across
    threads serialize every call under one lock of their own.
    """

    def __init__(self, rm, policy=None):
        self.rm = rm
        self.policy = policy if policy is not None else HeapRulePolicy()
        #: ticket -> :class:`PendingRequest`, in arrival order
        self.waiting = {}
        self._order = itertools.count()

    def offer(self, ticket, tenant, container_mb, shrunk_mb=(), count=1):
        """Queue a request; returns it, or None when it can never be
        placed on this cluster (waiting would be forever)."""
        if self.rm.never_fits(container_mb, tenant, count):
            return None
        request = PendingRequest(
            ticket, tenant, container_mb, next(self._order),
            tuple(shrunk_mb), count,
        )
        self.waiting[ticket] = request
        return request

    def withdraw(self, ticket):
        """Stop waiting; returns the request, or None if it was not
        waiting (already granted, or never queued)."""
        return self.waiting.pop(ticket, None)

    def grant(self):
        """Yield ``(request, containers)`` for as many waiting requests
        as policy + capacity allow; a request's containers are allocated
        all-or-nothing at its largest size that fits."""
        while self.waiting:
            request = self.policy.select(
                list(self.waiting.values()), self.rm
            )
            if request is None:
                return
            memory_mb = fitting_mb(request, self.rm)
            if memory_mb is None:
                return
            containers = []
            for _ in range(request.count):
                container = self.rm.try_allocate(
                    memory_mb, tenant=request.tenant
                )
                if container is None:  # denied mid-way: roll back
                    self.release(containers)
                    return
                containers.append(container)
            del self.waiting[request.ticket]
            yield request, containers

    def release(self, containers):
        for container in containers:
            self.rm.release(container)
