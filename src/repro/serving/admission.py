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
* :class:`PredictivePackingPolicy` — packing fed by a
  :class:`DemandPredictor` (per-tenant EWMA over observed container
  demand and runtime): the fragmentation score uses the tenant's
  *forecast* demand rather than only the instantaneous request, and
  shorter predicted runtimes break deficit ties (shortest-job-first
  flavor, per the fine-grained demand-modeling literature).

This module also hosts the sharding primitives used by
:class:`~repro.serving.shard.ShardedElasticMLServer`: the deterministic
:class:`ConsistentHashRouter` (tenant- or program-affinity) and the
:func:`make_policy` registry that lets policy choices travel to shard
worker processes as plain strings.
"""

from __future__ import annotations

import bisect
import hashlib
import threading

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

    def _fit(self, request, rm):
        """``(normalized MB, leftover MB on the tightest node)`` for the
        size the request would be granted now, or None if none fits."""
        memory_mb = fitting_mb(request, rm)
        if memory_mb is None:
            return None
        need = rm.normalize_request(memory_mb)
        return need, min(
            node.available_mb - need
            for node in rm.nodes
            if node.can_allocate(need)
        )

    def _score(self, request, rm, need, residual):
        """Tie-break among equal deficits (smaller wins)."""
        return (residual,)

    def select(self, waiting, rm):
        if not waiting:
            return None
        for tenant in {r.tenant for r in waiting}:
            self.deficits[tenant] = (
                self.deficits.get(tenant, 0.0) + self.quantum_mb
            )
        scored = []
        for request in waiting:
            fit = self._fit(request, rm)
            if fit is None:
                continue
            scored.append((
                -self.deficits.get(request.tenant, 0.0),
                *self._score(request, rm, *fit),
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


class DemandPredictor:
    """Per-tenant EWMA forecast of container demand and runtime.

    After each completed execution the server reports the tenant's
    granted container size and simulated runtime; the predictor keeps
    one exponentially weighted moving average per signal:

        ``ewma <- alpha * observed + (1 - alpha) * ewma``

    seeded by the first observation.  Forecasts for unseen tenants fall
    back to the caller-supplied default, so prediction never *blocks* a
    request — it only reorders the packing score.  Internally locked
    (the sharded front end feeds it from a collector thread while the
    router reads it); picklable (the lock is dropped and rebuilt).
    """

    def __init__(self, alpha=0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.observations = 0
        self._demand_mb = {}
        self._runtime_s = {}
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def observe(self, tenant, container_mb, runtime_s):
        with self._lock:
            self.observations += 1
            prev_mb = self._demand_mb.get(tenant)
            self._demand_mb[tenant] = (
                float(container_mb) if prev_mb is None
                else self.alpha * container_mb + (1 - self.alpha) * prev_mb
            )
            prev_s = self._runtime_s.get(tenant)
            self._runtime_s[tenant] = (
                float(runtime_s) if prev_s is None
                else self.alpha * runtime_s + (1 - self.alpha) * prev_s
            )

    def predicted_demand_mb(self, tenant, default=0.0):
        with self._lock:
            return self._demand_mb.get(tenant, default)

    def predicted_runtime_s(self, tenant, default=0.0):
        with self._lock:
            return self._runtime_s.get(tenant, default)

    def snapshot(self):
        """Counters for ``stats()``: tenants tracked + observations."""
        with self._lock:
            return {
                "tenants": len(self._demand_mb),
                "observations": self.observations,
            }


class PredictivePackingPolicy(PackingPolicy):
    """:class:`PackingPolicy` scored by predicted demand and runtime.

    DRR deficits and the fit test are unchanged — a request is only
    admissible if its *actual* container fits right now.  The score
    differs in two ways:

    * the fragmentation residual is computed against the tenant's
      forecast demand (``max(actual, predicted)``), so a tenant whose
      history says it will soon ask for more is packed as if it already
      had — leaving contiguous room for genuinely small tenants;
    * at equal deficit, shorter predicted runtimes win (SJF tie-break),
      which drains the queue faster without starving anyone (the
      deficit term still dominates).

    A forecast larger than every node falls back to the actual
    residual: prediction shapes placement, never admissibility.
    """

    name = "predictive"

    def __init__(self, quantum_mb=1024, predictor=None, alpha=0.3):
        super().__init__(quantum_mb=quantum_mb)
        self.predictor = (
            predictor if predictor is not None
            else DemandPredictor(alpha=alpha)
        )

    def observe(self, tenant, container_mb, runtime_s):
        self.predictor.observe(tenant, container_mb, runtime_s)

    def _score(self, request, rm, need, residual):
        forecast = self.predictor.predicted_demand_mb(
            request.tenant, default=need
        )
        want = max(need, forecast)
        fits = [
            node.available_mb - want
            for node in rm.nodes
            if node.available_mb >= want and node.can_allocate(need)
        ]
        return (
            round(self.predictor.predicted_runtime_s(
                request.tenant, default=0.0
            ), 9),
            min(fits) if fits else residual,
        )


#: admission policy registry: lets a policy choice travel to a shard
#: worker process as a plain string (instances do not pickle portably
#: once they hold deficits/predictor state)
POLICIES = ("heap-rule", "packing", "predictive")


def make_policy(name, quantum_mb=1024, alpha=0.3):
    """Instantiate a registered admission policy by name."""
    if name == "heap-rule":
        return HeapRulePolicy()
    if name == "packing":
        return PackingPolicy(quantum_mb=quantum_mb)
    if name == "predictive":
        return PredictivePackingPolicy(quantum_mb=quantum_mb, alpha=alpha)
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
      (script, args) program do, which concentrates
      ``ProgramCache``/``OptimizerResultCache``/replay-tree hits;
    * **stable** — adding a shard moves only ~1/N of the keyspace.

    :meth:`pin` installs explicit overrides (used by the rebalancer);
    pins win over the ring.
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
        self._pins = {}
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
        pinned = self._pins.get(key)
        if pinned is not None:
            return pinned
        index = bisect.bisect_right(self._points, self._hash(key))
        return self._owners[index % len(self._owners)]

    def route(self, submission):
        """(routing key, shard id) for a submission."""
        key = self.key_for(submission)
        return key, self.shard_for(key)

    def pin(self, key, shard):
        """Override the ring for one key (rebalancer hook)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        self._pins[key] = shard

    def unpin(self, key):
        self._pins.pop(key, None)

    @property
    def pins(self):
        return dict(self._pins)
