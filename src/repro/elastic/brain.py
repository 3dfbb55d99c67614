"""The autoscaling Brain: continuous, deterministic resource elasticity.

The paper's elasticity is one-shot — resources are optimized up front and
only re-chosen at AM-migration/recompile points.  The Brain closes the
monitor→decide→rescale loop: it polls a cluster-load signal at statement
-block boundaries (the interpreter's natural decision points) and issues
mid-run grow/shrink decisions over the *granted* fraction of the run's
ideal resource configuration.  Shrinking trades memory for time via the
memory-elastic spill penalty ("Don't cry over spilled records"): MR task
heaps below ideal charge modeled spill seconds, and the CP buffer pool is
resized down (more evictions) — both time-only effects.  Plans are always
compiled against the *ideal* configuration, so a rescaled run executes
the same instruction sequence and produces byte-identical outputs.

The same policy drives memory-elastic *admission*: the shrink ladder
``{s, s^2, ...}`` (:meth:`BrainPolicy.shrink_ladder`) names the smaller
container sizes a run also accepts, and the admission core grants the
largest one that fits the free capacity (and the tenant's quota) right
now — running shrunk instead of queueing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.resources import GrantedResource
from repro.obs import get_tracer


@dataclass(frozen=True)
class BrainPolicy:
    """Knobs of the autoscaling Brain (all deterministic)."""

    #: poll the load signal every Nth statement block
    poll_interval: int = 1
    #: shrink the grant when observed utilization is at/above this
    hot_utilization: float = 0.75
    #: grow the grant back when utilization is at/below this
    cool_utilization: float = 0.45
    #: multiplicative step of the shrink ladder (grow divides by it, so
    #: fractions stay on the exact ``shrink_step**k`` lattice)
    shrink_step: float = 0.75
    #: hard floor of the granted fraction
    min_grant_fraction: float = 0.25
    #: cap on mid-run rescale decisions per run
    max_rescales: int = 64
    #: elastic admission is vetoed when the cost model predicts the
    #: shrunk run to be slower than this factor of the ideal estimate
    max_spill_slowdown: float = 2.5
    #: allow admitting runs below their ideal grant when the cluster is
    #: full (False = strict queueing, the paper's behavior)
    elastic_admission: bool = True

    def __post_init__(self):
        if not 0 < self.shrink_step < 1:
            raise ValueError(f"shrink_step must be in (0, 1): {self.shrink_step}")
        if not 0 < self.min_grant_fraction <= 1:
            raise ValueError(
                f"min_grant_fraction must be in (0, 1]: {self.min_grant_fraction}"
            )
        if self.cool_utilization > self.hot_utilization:
            raise ValueError(
                "cool_utilization must not exceed hot_utilization "
                f"({self.cool_utilization} > {self.hot_utilization})"
            )

    def shrink_ladder(self):
        """The below-ideal fractions ``s, s^2, ...`` down to
        ``min_grant_fraction`` that elastic admission may grant instead
        of queueing, largest first (empty under strict queueing)."""
        ladder = []
        fraction = self.shrink_step
        while self.elastic_admission and fraction >= self.min_grant_fraction:
            ladder.append(fraction)
            fraction *= self.shrink_step
        return ladder


class ElasticBrain:
    """Per-run autoscaling controller.

    ``utilization`` is a callable ``f(virtual_time) -> [0, 1]`` supplying
    the load signal (a :class:`~repro.cluster.load.ClusterLoad` schedule,
    a simulator occupancy closure, or a live ``rm.utilization`` probe).
    Decisions are a pure function of the signal and the policy, so a run
    replayed under the same trace rescales identically.
    """

    def __init__(self, policy=None, cluster=None, *, utilization=None,
                 tenant=None, base_time=0.0, fraction=1.0):
        self.policy = policy if policy is not None else BrainPolicy()
        self.cluster = cluster
        self.utilization = utilization
        self.tenant = tenant
        self.base_time = float(base_time)
        self.fraction = float(fraction)
        #: (absolute_time, observed_utilization, granted_fraction) per poll
        self.decisions = []
        self.polls = 0
        self.rescales = 0
        self._seen_resource = None

    # -- pure policy steps ---------------------------------------------------

    def next_fraction(self, fraction, utilization):
        """One control step: shrink when hot, grow when cool, hold
        otherwise.  Monotone non-increasing in ``utilization``."""
        p = self.policy
        if utilization >= p.hot_utilization:
            return max(p.min_grant_fraction, fraction * p.shrink_step)
        if utilization <= p.cool_utilization:
            return min(1.0, fraction / p.shrink_step)
        return fraction

    # -- interpreter hooks ---------------------------------------------------

    def apply(self, interp):
        """Install the current fraction as the interpreter's grant."""
        self._seen_resource = interp.resource
        if self.fraction >= 1.0:
            interp.set_grant(None)
        else:
            interp.set_grant(
                GrantedResource.of(interp.resource, self.fraction, self.cluster)
            )

    def on_block(self, interp):
        """Statement-block boundary: poll the load signal and rescale.

        Called by the interpreter after recompilation/adaptation for the
        block, so a grant is always re-derived from the *current* ideal
        resource (adaptation may have migrated the AM mid-run).
        """
        self.polls += 1
        tracer = get_tracer()
        tracer.incr("elastic.polls")
        if self.polls % max(1, self.policy.poll_interval) != 0:
            return
        now = self.base_time + interp.clock
        load = self.utilization(now) if self.utilization is not None else 0.0
        new_fraction = self.fraction
        if self.rescales < self.policy.max_rescales:
            new_fraction = self.next_fraction(self.fraction, load)
        if new_fraction != self.fraction:
            grew = new_fraction > self.fraction
            self.fraction = new_fraction
            self.rescales += 1
            tracer.incr("elastic.rescales")
            tracer.incr("elastic.grows" if grew else "elastic.shrinks")
            tracer.event(
                "elastic.rescale", time=now, utilization=load,
                fraction=new_fraction, tenant=self.tenant,
            )
            self.apply(interp)
        elif interp.resource is not self._seen_resource:
            # adaptation replaced the ideal resource; refresh the grant
            self.apply(interp)
        self.decisions.append((round(now, 9), round(load, 9), self.fraction))
