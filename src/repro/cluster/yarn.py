"""Simulated YARN resource management: container accounting.

Models the Resource Manager / Node Manager split of the paper's Figure
2(b) at the level relevant for resource elasticity: request-based
container allocation with per-node capacity, min/max allocation
constraints, and first-fit placement.  The throughput experiments
(Section 5.3) are driven by this accounting — the allocated resources
per application directly bound the number of parallel applications.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.errors import ClusterError
from repro.obs import get_tracer

_container_ids = itertools.count(1)


@dataclass
class Container:
    """One granted resource container."""

    container_id: int
    node_id: int
    memory_mb: int
    #: owning tenant (None for single-application accounting)
    tenant: str | None = None


@dataclass
class NodeManager:
    """Per-node resource tracking."""

    node_id: int
    capacity_mb: int
    used_mb: int = 0
    containers: dict = field(default_factory=dict)
    #: a lost node manager (chaos NODE_LOSS) accepts no allocations and
    #: contributes no capacity until restored
    lost: bool = False

    @property
    def available_mb(self):
        if self.lost:
            return 0
        return self.capacity_mb - self.used_mb

    def can_allocate(self, memory_mb):
        return not self.lost and memory_mb <= self.available_mb

    def fail(self):
        """Node-manager loss: every container on the node dies and its
        capacity leaves the cluster.  Returns the lost containers."""
        lost_containers = list(self.containers.values())
        self.containers.clear()
        self.used_mb = 0
        self.lost = True
        return lost_containers

    def restore(self):
        """The node manager rejoins the cluster (empty)."""
        self.lost = False

    def allocate(self, memory_mb, tenant=None):
        if not self.can_allocate(memory_mb):
            raise ClusterError(
                f"node {self.node_id} cannot allocate {memory_mb} MB "
                f"({self.available_mb} MB free)"
            )
        container = Container(
            next(_container_ids), self.node_id, memory_mb, tenant=tenant
        )
        self.used_mb += memory_mb
        self.containers[container.container_id] = container
        return container

    def release(self, container):
        if container.container_id not in self.containers:
            raise ClusterError(
                f"container {container.container_id} not on node {self.node_id}"
            )
        del self.containers[container.container_id]
        self.used_mb -= container.memory_mb


class ResourceManager:
    """Cluster-wide container allocation with min/max constraints.

    An optional :class:`~repro.chaos.FaultInjector` makes the RM deny
    allocations (transiently or permanently) and lose node managers on a
    seeded schedule — the degraded-cluster conditions of chaos tests and
    throughput simulations.
    """

    def __init__(self, cluster, injector=None):
        self.cluster = cluster
        self.injector = injector
        self.nodes = [
            NodeManager(node_id=i, capacity_mb=cluster.node_memory_mb)
            for i in range(cluster.num_nodes)
        ]
        #: tenant -> (used_mb, containers) for multi-tenant serving
        self._tenant_used_mb = {}
        self._tenant_containers = {}
        #: tenant -> hard memory quota in MB (absent = unlimited)
        self._tenant_quota_mb = {}

    @property
    def available_mb(self):
        return sum(node.available_mb for node in self.nodes)

    @property
    def used_mb(self):
        return sum(node.used_mb for node in self.nodes)

    @property
    def live_nodes(self):
        return sum(1 for node in self.nodes if not node.lost)

    def normalize_request(self, memory_mb):
        """Round a request up to whole MB and clamp it to the min
        constraint; reject non-positive, non-finite, or above-max
        requests."""
        mb = float(memory_mb)
        if not math.isfinite(mb) or mb <= 0:
            raise ClusterError(
                f"invalid container request: {memory_mb!r} MB"
            )
        request = max(int(math.ceil(mb)), self.cluster.min_allocation_mb)
        if request > self.cluster.max_allocation_mb:
            raise ClusterError(
                f"container request {request} MB exceeds the maximum "
                f"allocation {self.cluster.max_allocation_mb} MB"
            )
        return request

    def can_fit(self, memory_mb, tenant=None, count=1):
        """Whether ``count`` containers of this size could all be
        granted right now (and, when ``tenant`` is quota-bound, whether
        the quota allows them)."""
        request = self.normalize_request(memory_mb)
        if not self.quota_allows(tenant, request * count):
            return False
        return sum(
            node.available_mb // request for node in self.nodes
        ) >= count

    def try_allocate(self, memory_mb, tenant=None):
        """First-fit allocation; returns a Container or None if the
        cluster currently lacks capacity (or the fault injector denies
        the request, or the tenant's quota is exhausted).  ``tenant``
        attributes the grant in the per-tenant ledger (serving-layer
        accounting)."""
        request = self.normalize_request(memory_mb)
        tracer = get_tracer()
        if self.injector is not None and self.injector.deny_allocation("rm"):
            tracer.incr("yarn.allocation_failures")
            return None
        if not self.quota_allows(tenant, request):
            tracer.incr("yarn.quota_denials")
            return None
        for node in self.nodes:
            if node.can_allocate(request):
                container = node.allocate(request, tenant=tenant)
                self._ledger_add(container)
                if tracer.enabled:
                    tracer.incr("yarn.allocations")
                    tracer.incr("yarn.allocated_mb", request)
                    tracer.gauge("yarn.used_mb", self.used_mb)
                return container
        tracer.incr("yarn.allocation_failures")
        return None

    def release(self, container):
        self.nodes[container.node_id].release(container)
        self._ledger_drop(container)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("yarn.releases")
            tracer.gauge("yarn.used_mb", self.used_mb)

    # -- per-tenant accounting ---------------------------------------------

    def _ledger_add(self, container):
        if container.tenant is None:
            return
        tenant = container.tenant
        self._tenant_used_mb[tenant] = (
            self._tenant_used_mb.get(tenant, 0) + container.memory_mb
        )
        self._tenant_containers.setdefault(tenant, set()).add(
            container.container_id
        )

    def _ledger_drop(self, container):
        if container.tenant is None:
            return
        tenant = container.tenant
        remaining = self._tenant_used_mb.get(tenant, 0) - container.memory_mb
        ids = self._tenant_containers.get(tenant, set())
        ids.discard(container.container_id)
        if remaining <= 0 and not ids:
            self._tenant_used_mb.pop(tenant, None)
            self._tenant_containers.pop(tenant, None)
        else:
            self._tenant_used_mb[tenant] = remaining

    def usage_by_tenant(self):
        """tenant -> currently allocated MB (tenant-attributed grants)."""
        return dict(self._tenant_used_mb)

    def tenant_containers(self, tenant):
        """Live container count held by one tenant."""
        return len(self._tenant_containers.get(tenant, ()))

    def tenant_share(self, tenant):
        """Fraction of total cluster memory a tenant currently holds."""
        total = self.cluster.total_memory_mb
        if total <= 0:
            return 0.0
        return self._tenant_used_mb.get(tenant, 0) / total

    # -- per-tenant quotas ---------------------------------------------------

    def set_tenant_quota(self, tenant, quota_mb):
        """Cap a tenant's aggregate allocations at ``quota_mb`` (None
        removes the cap)."""
        if quota_mb is None:
            self._tenant_quota_mb.pop(tenant, None)
            return
        quota = int(quota_mb)
        if quota <= 0:
            raise ClusterError(
                f"invalid tenant quota: {quota_mb!r} MB for {tenant!r}"
            )
        self._tenant_quota_mb[tenant] = quota

    def tenant_quota_mb(self, tenant):
        """The tenant's quota in MB, or None when unbounded."""
        return self._tenant_quota_mb.get(tenant)

    def quota_allows(self, tenant, request_mb):
        """Whether a request of ``request_mb`` stays within the tenant's
        quota (always true for quota-less tenants)."""
        if tenant is None:
            return True
        quota = self._tenant_quota_mb.get(tenant)
        if quota is None:
            return True
        return self._tenant_used_mb.get(tenant, 0) + request_mb <= quota

    # -- node-manager faults -----------------------------------------------

    def _node(self, node_id):
        if not isinstance(node_id, int) or not 0 <= node_id < len(self.nodes):
            raise ClusterError(f"unknown node manager {node_id!r}")
        return self.nodes[node_id]

    def fail_node(self, node_id):
        """NODE_LOSS: the node manager dies; its containers are killed
        and returned (callers re-execute or release their handles)."""
        lost = self._node(node_id).fail()
        for container in lost:
            self._ledger_drop(container)
        tracer = get_tracer()
        tracer.incr("yarn.nodes_lost")
        if tracer.enabled and lost:
            tracer.incr("yarn.containers_lost", len(lost))
            tracer.gauge("yarn.used_mb", self.used_mb)
        return lost

    def restore_node(self, node_id):
        """The node manager rejoins with empty capacity."""
        self._node(node_id).restore()
        get_tracer().incr("yarn.nodes_restored")

    def max_concurrent(self, memory_mb):
        """How many containers of this size fit an empty cluster."""
        request = self.normalize_request(memory_mb)
        per_node = self.cluster.node_memory_mb // request
        return per_node * self.cluster.num_nodes

    def never_fits(self, memory_mb, tenant=None, count=1):
        """Whether waiting for capacity is pointless: the request is
        invalid or above the max allocation, ``count`` such containers
        do not fit even an empty cluster, or they exceed the tenant's
        whole quota."""
        try:
            if self.max_concurrent(memory_mb) < count:
                return True
            request = self.normalize_request(memory_mb)
        except ClusterError:
            return True
        quota = self._tenant_quota_mb.get(tenant)
        return quota is not None and request * count > quota
