"""Grid point generators (paper Section 3.3.2, Figure 5).

All generators emit ascending max-heap sizes in MB, bounded by the
cluster's min/max allocation constraints (expressed as heaps):

* **equi**: fixed-size gaps; ``m`` points when given, else gaps of the
  minimum allocation;
* **exp**: exponentially increasing gaps, ``g_i = w^(i-1) * min``
  (default w = 2) — logarithmically many points;
* **mem**: program-aware — whenever an operation memory estimate falls
  between two points of the base equi grid, both neighbours are
  enumerated; estimates outside the constraints clamp to the extremes;
* **hybrid** (default): union of mem and exp, combining directed and
  systematic search.
"""

from __future__ import annotations

import math

from repro.cluster.config import BUDGET_FRACTION
from repro.common import MB
from repro.compiler import hops as H
from repro.compiler import statement_blocks as SB
from repro.errors import OptimizationError


def equi_grid(min_mb, max_mb, m=15):
    """Equi-spaced grid with ``m`` points (Figure 5(a))."""
    if max_mb <= min_mb:
        return [float(min_mb)]
    if m is None or m <= 1:
        gap = float(min_mb)
        points = []
        value = float(min_mb)
        while value < max_mb:
            points.append(value)
            value += gap
        points.append(float(max_mb))
        return points
    gap = (max_mb - min_mb) / (m - 1)
    return [min_mb + i * gap for i in range(m)]


def exp_grid(min_mb, max_mb, w=2.0):
    """Exponentially-spaced grid (Figure 5(b)): gap_i = w^(i-1)*min."""
    points = [float(min_mb)]
    gap = float(min_mb)
    value = float(min_mb)
    while True:
        value += gap
        if value >= max_mb:
            break
        points.append(value)
        gap *= w
    if points[-1] != float(max_mb):
        points.append(float(max_mb))
    return points


def memory_grid(min_mb, max_mb, estimates_mb, m=15):
    """Memory-based grid (Figure 5(c)): neighbours of each estimate on
    the base equi grid; out-of-range estimates clamp to the extremes."""
    base = equi_grid(min_mb, max_mb, m)
    chosen = set()
    any_low = any_high = False
    for est in estimates_mb:
        if est <= min_mb:
            any_low = True
            continue
        if est >= max_mb:
            any_high = True
            continue
        # find the surrounding base points
        for i in range(len(base) - 1):
            if base[i] <= est <= base[i + 1]:
                chosen.add(base[i])
                chosen.add(base[i + 1])
                break
    if any_low or not chosen:
        chosen.add(base[0])
    if any_high:
        chosen.add(base[-1])
    return sorted(chosen)


def hybrid_grid(min_mb, max_mb, estimates_mb, m=15, w=2.0):
    """Default composite grid (Section 3.3.2): mem ∪ exp."""
    points = set(memory_grid(min_mb, max_mb, estimates_mb, m))
    points.update(exp_grid(min_mb, max_mb, w))
    return sorted(points)


def collect_memory_estimates_mb(compiled):
    """Operation memory estimates of all program blocks, converted to
    the max-heap size (MB) that would fit them (estimate / 0.7)."""
    estimates = []
    for block in compiled.all_blocks():
        if not isinstance(block, SB.GenericBlock):
            continue
        for hop in H.iter_dag(block.hop_roots):
            est = hop.mem_estimate
            if math.isfinite(est) and est > 0:
                estimates.append(est / BUDGET_FRACTION / MB)
    return estimates


GENERATORS = {"equi", "exp", "mem", "hybrid"}


def check_grid(kind):
    """``kind`` if it names a generator; a typed error where the name
    enters (a configuration's construction), not mid-request."""
    if kind not in GENERATORS:
        raise OptimizationError(
            f"unknown grid generator {kind!r}; one of {sorted(GENERATORS)}"
        )
    return kind


def generate_grid(kind, min_mb, max_mb, estimates_mb=(), m=15, w=2.0):
    """Dispatch by generator name."""
    check_grid(kind)
    if kind == "equi":
        return equi_grid(min_mb, max_mb, m)
    if kind == "exp":
        return exp_grid(min_mb, max_mb, w)
    if kind == "mem":
        return memory_grid(min_mb, max_mb, estimates_mb, m)
    return hybrid_grid(min_mb, max_mb, estimates_mb, m, w)
