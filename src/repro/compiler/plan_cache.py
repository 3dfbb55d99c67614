"""Memoizing plan cache for the recompilation hot path.

Grid enumeration (Algorithm 1) recompiles every last-level block at
every (r_c, r_i) grid point, yet all compilation decisions are
*threshold* comparisons of operator memory estimates against the CP/MR
budgets (operator selection's ``fits`` checks, piggybacking's broadcast
sums).  The generated plan therefore only changes when a budget crosses
one of finitely many per-block thresholds — costing generated plans by
structural signature (Boehm et al., "Costing Generated Runtime Execution
Plans", 2017) and memory-threshold bucketing of the search space (Will
et al., "Crispy", 2022) both exploit exactly this.

:func:`block_thresholds` enumerates a block's thresholds from its HOP
DAG:

* **CP budget**: every comparison is ``mem_estimate <= cp_budget`` or
  ``output_mem <= cp_budget`` (operator selection), so the thresholds
  are the finite ``mem_estimate``/``output_mem`` values of the DAG;
* **MR budget**: operator selection compares single ``output_mem``
  values and small sums of broadcast-vector memories (mapmmchain, tak),
  and piggybacking compares cumulative broadcast sums of a job group —
  so the thresholds are the ``output_mem`` values plus subset sums of
  the broadcastable (vector-shaped) outputs.

Two budgets falling between the same pair of consecutive thresholds make
*identical* decisions everywhere, hence compile to an identical plan:
:class:`PlanCache` keys cached plans by ``(block_id, cp_bucket,
mr_bucket)`` and :func:`repro.compiler.pipeline.recompile_block_plan`
returns the cached plan without recompiling on a hit.

Cached plans are invalidated per block by dynamic recompilation
(:mod:`repro.compiler.recompile`), which updates memory estimates and
so moves the thresholds (the runtime adapter's size refresh does too,
but each of its optimizations starts a cache of its own).

Note: a cache hit returns the plan object generated at the *first*
budget of the bucket — or the one the program arrived with, which the
resource optimizer stores under its bucket before it searches — so a
plan carries no configuration of its own; the instructions are identical
either way, and what executes is always a plain ``compile_plans``
regeneration without the cache.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_right

from repro.compiler import hops as H
from repro.obs import get_tracer

#: broadcast subset sums are enumerated exhaustively up to this size;
#: piggyback groups with more simultaneous broadcasts are vanishingly
#: rare (each broadcast is a whole extra distributed-cache input)
_MAX_BROADCAST_SUBSET = 3
#: above this many broadcast candidates, fall back to pairwise sums
_MAX_BROADCAST_CANDIDATES = 12


def _is_broadcastable(hop):
    """Vector-shaped outputs are the broadcast candidates of operator
    selection (mapmm/map_binary/mmchain/tak) and piggybacking."""
    if not hop.is_matrix:
        return False
    mc = hop.mc
    return mc.rows == 1 or mc.cols == 1


def block_thresholds(block):
    """Budget thresholds (bytes) of one generic block.

    Returns ``(cp_thresholds, mr_thresholds)`` as sorted tuples; budgets
    with equal ``bisect_right`` positions in them compile identically.
    """
    cp_values = set()
    mr_values = set()
    broadcast_mems = []
    for hop in H.iter_dag(block.hop_roots):
        for value in (hop.mem_estimate, hop.output_mem):
            if math.isfinite(value) and value > 0:
                cp_values.add(value)
        out = hop.output_mem
        if math.isfinite(out) and out > 0:
            mr_values.add(out)
            if _is_broadcastable(hop):
                broadcast_mems.append(out)
    if len(broadcast_mems) > _MAX_BROADCAST_CANDIDATES:
        sizes = (2,)
        mr_values.add(sum(broadcast_mems))
    else:
        sizes = range(2, _MAX_BROADCAST_SUBSET + 1)
    for size in sizes:
        for combo in itertools.combinations(broadcast_mems, size):
            mr_values.add(sum(combo))
    return tuple(sorted(cp_values)), tuple(sorted(mr_values))


class PlanCache:
    """Cache of compiled block plans, keyed by budget buckets.

    One instance serves one enumeration: the optimizer attaches a fresh
    private one to the program it enumerates, and a handout of a cached
    master starts without one, so a run never sees the plans another
    run's enumeration cached.

    *Pickling* preserves the full cache state (thresholds, plans, and
    counters), so a program pickled with its cache attached keeps it.

    Lookups and stores take an internal lock, so concurrent threads
    never see a torn state.
    """

    def __init__(self):
        #: block_id -> (cp_thresholds, mr_thresholds)
        self.thresholds = {}
        #: (block_id, cp_bucket, mr_bucket) -> BlockPlan
        self.plans = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.Lock()

    def __getstate__(self):
        # locks do not pickle; the unpickling process gets a fresh one
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- bucketing -----------------------------------------------------------

    def thresholds_for(self, block):
        # lock-free on purpose (hot path): get/setitem are atomic, and a
        # racing recomputation writes the identical tuple
        entry = self.thresholds.get(block.block_id)
        if entry is None:
            entry = self.thresholds[block.block_id] = block_thresholds(block)
        return entry

    def cp_bucket(self, block, resource):
        """Bucket index of the block-effective CP budget (the parfor
        divisor scales the budget exactly as compilation sees it)."""
        cp_thresholds, _ = self.thresholds_for(block)
        budget = resource.cp_budget_bytes / block.budget_divisor
        return bisect_right(cp_thresholds, budget)

    def mr_bucket(self, block, resource):
        """Bucket index of the block's MR task budget."""
        _, mr_thresholds = self.thresholds_for(block)
        return bisect_right(mr_thresholds, resource.mr_budget_bytes(block.block_id))

    def key_for(self, block, resource):
        return (
            block.block_id,
            self.cp_bucket(block, resource),
            self.mr_bucket(block, resource),
        )

    # -- cache operations ----------------------------------------------------

    def lookup(self, key):
        with self._lock:
            plan = self.plans.get(key)
            if plan is not None:
                self.hits += 1
            else:
                self.misses += 1
        if plan is not None:
            get_tracer().incr("plancache.hits")
        else:
            get_tracer().incr("plancache.misses")
        return plan

    def store(self, key, plan):
        with self._lock:
            self.plans[key] = plan

    def invalidate_block(self, block_id):
        """Drop a block's plans *and* thresholds (dynamic recompilation
        updates size/memory estimates, which moves the thresholds)."""
        with self._lock:
            stale = [key for key in self.plans if key[0] == block_id]
            for key in stale:
                del self.plans[key]
            self.thresholds.pop(block_id, None)
            self.invalidations += 1
        get_tracer().incr("plancache.invalidations")
