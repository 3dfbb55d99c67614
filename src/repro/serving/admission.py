"""Admission policies for the multi-tenant server (paper Section 5.3).

Every submission ultimately needs one YARN application-master container
sized by the paper's 1.5x-heap rule
(:meth:`repro.cluster.resources.ResourceConfig.container_request_mb`);
the admission policy decides *which* waiting submission gets the next
grant from the :class:`~repro.cluster.admission.AdmissionCore`.  Next to
the core's own FIFO :class:`~repro.cluster.admission.HeapRulePolicy`
(the paper's semantics) and skip-ahead
:class:`~repro.cluster.admission.FirstFitPolicy`, this module provides:

* :class:`PackingPolicy` — an Elasecutor-style alternative: among the
  submissions that fit right now, pick the one that packs tightest
  (smallest leftover on its best node, minimizing fragmentation),
  with deficit-round-robin credits per tenant so a cheap-to-pack tenant
  cannot starve the others.

This module also hosts the sharding primitives used by
:class:`~repro.serving.shard.ShardedElasticMLServer`: the deterministic
:class:`ConsistentHashRouter` (tenant- or program-affinity) and the
:func:`make_policy` registry that lets policy choices travel to shard
worker processes as plain strings.
"""

from __future__ import annotations

import bisect
import hashlib

# PendingRequest is re-exported: callers that build requests by hand
# import it from here, next to the policies
from repro.cluster.admission import (
    AdmissionPolicy,
    HeapRulePolicy,
    PendingRequest,
    fitting_mb,
)


class PackingPolicy(AdmissionPolicy):
    """Best-fit packing with per-tenant DRR fairness credits.

    Each selection pass credits every waiting tenant one ``quantum_mb``
    deficit; an admission charges the grantee its container size.  Among
    the requests that fit right now, the winner is chosen by (highest
    tenant deficit, tightest fit, arrival order) — so tenants that have
    been waiting (or were recently charged) accumulate priority, and
    ties go to the request leaving the least fragmentation on its best
    node.
    """

    name = "packing"

    def __init__(self, quantum_mb=1024):
        self.quantum_mb = quantum_mb
        #: tenant -> accumulated deficit credit (MB)
        self.deficits = {}

    def _residual(self, request, rm):
        """Leftover MB on the tightest node for the size the request
        would be granted now, or None if none fits."""
        memory_mb = fitting_mb(request, rm)
        if memory_mb is None:
            return None
        need = rm.normalize_request(memory_mb)
        return min(
            node.available_mb - need
            for node in rm.nodes
            if node.can_allocate(need)
        )

    def select(self, waiting, rm):
        if not waiting:
            return None
        for tenant in {r.tenant for r in waiting}:
            self.deficits[tenant] = (
                self.deficits.get(tenant, 0.0) + self.quantum_mb
            )
        scored = []
        for request in waiting:
            residual = self._residual(request, rm)
            if residual is None:
                continue
            scored.append((
                -self.deficits.get(request.tenant, 0.0),
                residual,
                request.order,
                request,
            ))
        if not scored:
            return None
        return min(scored)[-1]

    def admitted(self, request):
        self.deficits[request.tenant] = (
            self.deficits.get(request.tenant, 0.0) - request.container_mb
        )


#: admission policy registry: lets a policy choice travel to a shard
#: worker process as a plain string (instances do not pickle portably
#: once they hold deficit state)
POLICIES = ("heap-rule", "packing")


def make_policy(name):
    """Instantiate a registered admission policy by name."""
    if name == "heap-rule":
        return HeapRulePolicy()
    if name == "packing":
        return PackingPolicy()
    raise ValueError(
        f"unknown admission policy {name!r}; expected one of {POLICIES}"
    )


class ConsistentHashRouter:
    """Deterministic tenant→shard (or program→shard) routing.

    A classic consistent-hash ring: each shard owns ``replicas``
    pseudo-random points on a 64-bit circle (SHA-256 of
    ``"shard:<id>:<replica>"``), and a routing key lands on the first
    point clockwise from its own hash.  Properties the sharded server
    relies on:

    * **deterministic** — same key, same shard, on every process and
      every run (hashes are content-derived, never seeded by Python's
      randomized ``hash()``);
    * **affine** — with ``affinity="tenant"`` all submissions of one
      tenant share a shard; with ``"program"`` all tenants of one
      (script, args) program do, which concentrates ``ProgramCache``
      hits (a master carries its decision and replay tree);
    * **stable** — adding a shard moves only ~1/N of the keyspace.
    """

    AFFINITIES = ("tenant", "program")

    def __init__(self, shards, replicas=64, affinity="tenant"):
        if shards <= 0:
            raise ValueError("router needs at least one shard")
        if affinity not in self.AFFINITIES:
            raise ValueError(
                f"unknown affinity {affinity!r}; "
                f"expected one of {self.AFFINITIES}"
            )
        self.num_shards = shards
        self.affinity = affinity
        self.replicas = replicas
        ring = []
        for shard in range(shards):
            for replica in range(replicas):
                ring.append((self._hash(f"shard:{shard}:{replica}"), shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    @staticmethod
    def _hash(text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return int(digest[:16], 16)

    def key_for(self, submission):
        """The routing key: the tenant, or a digest of (script, args)."""
        if self.affinity == "tenant":
            return f"tenant:{submission.tenant}"
        text = repr((
            submission.script,
            sorted((submission.args or {}).items(), key=repr),
        ))
        return "program:" + hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()[:16]

    def shard_for(self, key):
        index = bisect.bisect_right(self._points, self._hash(key))
        return self._owners[index % len(self._owners)]

    def route(self, submission):
        """(routing key, shard id) for a submission."""
        key = self.key_for(submission)
        return key, self.shard_for(key)
