"""Offer-based resource allocation (paper Section 2.3, "Problem
Instantiations").

YARN lets the client *request* the optimal configuration R*_P directly;
Mesos-style frameworks instead receive resource *offers* and must decide
per offer whether to accept (launch the control program at the offered
size) or decline and keep waiting.  The paper notes this instantiation
"has additional optimization decisions in case of non-matching offers".

:class:`OfferBasedAllocator` implements those decisions on top of the
optimizer's cost frontier (:class:`~repro.optimizer.CostFrontier`, the
staircase elastic admission reads too): a container of heap h can run
any enumerated configuration that fits h, so the *value* of an offer is
the frontier's best step within the offered heap.  The acceptance
policy is a decaying reservation price — initially only near-optimal
offers are accepted; the tolerated regret grows linearly with waiting
time (waiting itself costs ``wait_cost_per_second``), which guarantees
acceptance once the tolerated regret covers the worst grid point.

:class:`OfferStream` simulates the offers a framework sees on a shared
cluster: free memory fluctuates with background load, and each offer
exposes one node's currently free capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ClusterError


@dataclass(frozen=True)
class ResourceOffer:
    """One Mesos-style offer: free memory on one node at some time."""

    offer_id: int
    node_id: int
    memory_mb: float
    timestamp: float


class OfferDecision(enum.Enum):
    ACCEPT = "accept"
    DECLINE = "decline"


@dataclass
class AllocationOutcome:
    """Result of driving an allocator over an offer stream."""

    offer: ResourceOffer = None
    heap_mb: float = 0.0
    cost: float = float("inf")
    regret: float = float("inf")
    waited: float = 0.0
    declined: int = 0

    @property
    def accepted(self):
        return self.offer is not None


class OfferBasedAllocator:
    """Accept/decline decisions over the optimizer's cost frontier, a
    :class:`~repro.optimizer.CostFrontier` (``OptimizerResult.frontier``)."""

    def __init__(self, frontier, cluster, wait_cost_per_second=1.0,
                 start_time=0.0):
        if not frontier.steps:
            raise ClusterError("cost frontier has no feasible point")
        self.frontier = frontier
        self.cluster = cluster
        self.wait_cost_per_second = wait_cost_per_second
        self.start_time = start_time
        self.best_cost = frontier.steps[-1].cost

    def tolerated_regret(self, now):
        """The decaying reservation price: the longer we wait, the more
        cost regret we accept (waiting has already cost us)."""
        waited = max(0.0, now - self.start_time)
        return self.wait_cost_per_second * waited

    def evaluate(self, offer):
        """Return (decision, cost, regret) for one offer; cost and
        regret are None when no feasible configuration fits it."""
        decision, step, regret = self._judge(offer)
        return decision, None if step is None else step.cost, regret

    def _judge(self, offer):
        """(decision, frontier step, regret) for one offer."""
        heap = self.cluster.heap_mb_for_container(offer.memory_mb)
        step = self.frontier.best_within(heap)
        if step is None:
            return OfferDecision.DECLINE, None, None
        regret = step.cost - self.best_cost
        if regret <= self.tolerated_regret(offer.timestamp):
            return OfferDecision.ACCEPT, step, regret
        return OfferDecision.DECLINE, step, regret

    def allocate(self, offers):
        """Drive the policy over an iterable of offers; returns the
        :class:`AllocationOutcome` of the first acceptance (or a
        non-accepted outcome if the stream ends first)."""
        outcome = AllocationOutcome()
        for offer in offers:
            decision, step, regret = self._judge(offer)
            if decision is OfferDecision.ACCEPT:
                outcome.offer = offer
                outcome.heap_mb = step.rc
                outcome.cost = step.cost
                outcome.regret = regret
                outcome.waited = offer.timestamp - self.start_time
                return outcome
            outcome.declined += 1
        return outcome


@dataclass
class OfferStream:
    """Deterministic simulated offer stream on a loaded cluster.

    Background load occupies a Beta-distributed fraction of each node's
    memory; one node's free capacity is offered every
    ``interarrival_seconds``.
    """

    cluster: object
    interarrival_seconds: float = 2.0
    load_mean: float = 0.6
    seed: int = 0
    max_offers: int = 1000

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        a = max(self.load_mean * 8, 0.2)
        b = max((1 - self.load_mean) * 8, 0.2)
        for i in range(self.max_offers):
            node = int(rng.integers(0, self.cluster.num_nodes))
            load = float(rng.beta(a, b))
            free = self.cluster.node_memory_mb * (1.0 - load)
            yield ResourceOffer(
                offer_id=i + 1,
                node_id=node,
                memory_mb=max(free, 0.0),
                timestamp=(i + 1) * self.interarrival_seconds,
            )
