"""What-if analysis surface: cost a compiled program over configuration
grids (the user-facing face of the paper's "online what-if analysis").

``what_if_heatmap`` reproduces Figure 1's CP x MR heatmaps for any
program; ``what_if_profile`` produces a one-dimensional CP sweep, and
``cheapest`` scans a heatmap for the minimal-cost (and minimal-resource)
cell — a tiny, transparent cousin of the full grid-enumeration optimizer
useful for exploration and teaching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.resources import ResourceConfig
from repro.compiler.pipeline import compile_plans
from repro.cost import CostModel


@dataclass
class WhatIfHeatmap:
    """Estimated cost over a CP x MR configuration grid."""

    cp_points_mb: list = field(default_factory=list)
    mr_points_mb: list = field(default_factory=list)
    #: costs[i][j] = estimated seconds at (mr_points[i], cp_points[j])
    costs: list = field(default_factory=list)

    def cheapest(self):
        """(cp_mb, mr_mb, cost) of the minimal cell; resource-minimal
        among cost ties (Definition 1's tie-break)."""
        best = None
        for i, mr in enumerate(self.mr_points_mb):
            for j, cp in enumerate(self.cp_points_mb):
                key = (self.costs[i][j], cp + mr, cp)
                if best is None or key < best[0]:
                    best = (key, cp, mr)
        (cost, _, _), cp, mr = best
        return cp, mr, cost

    def render(self, title=""):
        """Fixed-width textual rendering (Figure 1 style)."""
        lines = [title] if title else []
        header = "[s]".ljust(10) + "".join(
            f"CP {cp / 1024:>5.1f}G" for cp in self.cp_points_mb
        )
        lines.append(header)
        for i, mr in enumerate(self.mr_points_mb):
            row = f"MR {mr / 1024:>4.1f}G ".ljust(10)
            row += "".join(f"{c:9.0f}" for c in self.costs[i])
            lines.append(row)
        return "\n".join(lines)


def what_if_heatmap(cluster, compiled, cp_points_mb, mr_points_mb,
                    params=None):
    """Estimate program cost at every (cp, mr) grid combination.

    Recompiles plans per cell exactly as the resource optimizer does, so
    the heatmap reflects every plan change across the grid.
    """
    cost_model = CostModel(cluster, params)
    heatmap = WhatIfHeatmap(
        cp_points_mb=list(cp_points_mb), mr_points_mb=list(mr_points_mb)
    )
    for mr_mb in heatmap.mr_points_mb:
        row = []
        for cp_mb in heatmap.cp_points_mb:
            rc = ResourceConfig(cp_mb, mr_mb)
            compile_plans(compiled, rc)
            row.append(cost_model.estimate_program(compiled, rc))
        heatmap.costs.append(row)
    return heatmap


def what_if_profile(cluster, compiled, cp_points_mb, mr_mb=512.0,
                    params=None):
    """One-dimensional CP sweep at a fixed MR task size; returns a list
    of (cp_mb, cost)."""
    heatmap = what_if_heatmap(cluster, compiled, cp_points_mb, [mr_mb],
                              params)
    return list(zip(heatmap.cp_points_mb, heatmap.costs[0]))
