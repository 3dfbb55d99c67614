"""Memory-elastic admission: the shrink ladder and its spill veto.

The paper admits an application when its ideal AM container fits, and
queues it otherwise.  Elastic admission also accepts a *smaller*
container right now: the ladder ``{s, s^2, ...}`` (:func:`shrink_ladder`)
names the fractions of the ideal configuration a run may be granted
instead of queueing, and the admission core grants the largest one that
fits the free capacity (and the tenant's quota).  A run admitted at
fraction *f* runs at *f* of its ideal configuration until it ends.

Shrinking trades memory for time via the memory-elastic spill penalty
("Don't cry over spilled records"): MR task heaps below ideal charge
modelled spill seconds, and the CP buffer pool is sized down (more
evictions) — both time-only effects.  Plans are always compiled against
the *ideal* configuration, so a shrunk run executes the same instruction
sequence and produces byte-identical outputs.
"""

from __future__ import annotations

#: multiplicative step of the shrink ladder
SHRINK_STEP = 0.75
#: smallest fraction of the ideal configuration a run may be granted
MIN_GRANT_FRACTION = 0.25
#: a rung is vetoed (the run queues instead) when the cost model
#: predicts the shrunk run to be slower than this factor of its ideal
#: estimate
MAX_SPILL_SLOWDOWN = 2.5


def shrink_ladder():
    """The below-ideal fractions ``s, s^2, ...`` down to
    :data:`MIN_GRANT_FRACTION` that elastic admission may grant instead
    of queueing, largest first."""
    ladder = []
    fraction = SHRINK_STEP
    while fraction >= MIN_GRANT_FRACTION:
        ladder.append(fraction)
        fraction *= SHRINK_STEP
    return ladder
