"""Admission and routing primitives of the multi-tenant server (paper
Section 5.3).

Every submission ultimately needs one YARN application-master container
sized by the paper's 1.5x-heap rule
(:meth:`repro.cluster.resources.ResourceConfig.container_request_mb`);
the server admits waiting submissions in arrival order under the
core's FIFO :class:`~repro.cluster.admission.HeapRulePolicy` (the
paper's semantics), re-exported here with the policy interface and
:class:`~repro.cluster.admission.PendingRequest`.

This module also hosts the deterministic tenant router used by
:class:`~repro.serving.shard.ShardedElasticMLServer`:
:class:`ConsistentHashRouter`.
"""

from __future__ import annotations

import bisect
import hashlib

# re-exported: callers that build requests by hand import them from
# here, next to the router
from repro.cluster.admission import (  # noqa: F401
    AdmissionPolicy,
    HeapRulePolicy,
    PendingRequest,
)

#: points each shard owns on the hash ring
_REPLICAS = 64


class ConsistentHashRouter:
    """Deterministic tenant→shard routing.

    A classic consistent-hash ring: each shard owns 64 pseudo-random
    points on a 64-bit circle (SHA-256 of ``"shard:<id>:<replica>"``),
    and a tenant's key lands on the first point clockwise from its own
    hash.  Properties the sharded server relies on:

    * **deterministic** — same tenant, same shard, on every process and
      every run (hashes are content-derived, never seeded by Python's
      randomized ``hash()``);
    * **affine** — all submissions of one tenant share a shard, so its
      quota is held once and its repeat submissions find their masters
      (``ProgramCache``) there;
    * **stable** — adding a shard moves only ~1/N of the keyspace.
    """

    def __init__(self, shards):
        if shards <= 0:
            raise ValueError("router needs at least one shard")
        ring = sorted(
            (self._hash(f"shard:{shard}:{replica}"), shard)
            for shard in range(shards)
            for replica in range(_REPLICAS)
        )
        self._points = [point for point, _ in ring]
        self._owners = [shard for _, shard in ring]

    @staticmethod
    def _hash(text):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return int(digest[:16], 16)

    def shard_for(self, key):
        index = bisect.bisect_right(self._points, self._hash(key))
        return self._owners[index % len(self._owners)]

    def route(self, submission):
        """The shard id of a submission: its tenant's."""
        return self.shard_for(f"tenant:{submission.tenant}")
