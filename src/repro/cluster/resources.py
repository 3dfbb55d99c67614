"""Resource configurations R_P = (r_c, r_1, ..., r_n).

A :class:`ResourceConfig` carries the control-program (CP) max heap and
the MR task max heap, optionally specialized per program block (the
paper's semi-independent per-block MR resources).  Heaps are expressed in
MB; operation memory *budgets* are 70% of the heap (paper Section 5.1),
and container *requests* are 1.5x the heap (see
:mod:`repro.cluster.config`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.config import BUDGET_FRACTION
from repro.common import MB


@dataclass
class ResourceConfig:
    """A candidate or final resource configuration for an ML program."""

    cp_heap_mb: float
    #: default MR task heap applied to blocks without a specific entry
    mr_heap_mb: float = 512.0
    #: per-program-block MR task heaps: block_id -> heap MB
    mr_heap_per_block: dict = field(default_factory=dict)

    # -- lookups -----------------------------------------------------------

    def mr_heap_for_block(self, block_id):
        return self.mr_heap_per_block.get(block_id, self.mr_heap_mb)

    @property
    def cp_budget_bytes(self):
        return self.cp_heap_mb * MB * BUDGET_FRACTION

    def mr_budget_bytes(self, block_id=None):
        heap = self.mr_heap_mb if block_id is None else self.mr_heap_for_block(block_id)
        return heap * MB * BUDGET_FRACTION

    def container_request_mb(self, cluster):
        """AM container request for this configuration's CP heap — the
        paper's 1.5x-heap rule, clamped to the cluster's min allocation.
        This is the quantity admission control reasons about: allocated
        AM containers bound how many tenants run concurrently
        (Section 5.3)."""
        return cluster.container_mb_for_heap(self.cp_heap_mb)

    @property
    def max_mr_heap_mb(self):
        """Largest MR heap across all blocks (reported in Table 2)."""
        if not self.mr_heap_per_block:
            return self.mr_heap_mb
        return max(self.mr_heap_mb, max(self.mr_heap_per_block.values()))

    # -- comparison / tie breaking -----------------------------------------

    def footprint(self):
        """Resource-usage key used to pick the *minimal* configuration
        among cost ties (Definition 1's time-weighted sum is approximated
        by total requested heap: CP first, then aggregate MR)."""
        mr_total = sum(self.mr_heap_per_block.values()) or self.mr_heap_mb
        return (self.cp_heap_mb + mr_total, self.cp_heap_mb, mr_total)

    def with_mr_for_blocks(self, block_ids, heap_mb=None):
        """Copy with per-block MR entries for the listed blocks."""
        per_block = dict(self.mr_heap_per_block)
        for block_id in block_ids:
            per_block[block_id] = heap_mb if heap_mb is not None else self.mr_heap_mb
        return ResourceConfig(self.cp_heap_mb, self.mr_heap_mb, per_block)

    def copy(self):
        return ResourceConfig(
            self.cp_heap_mb, self.mr_heap_mb, dict(self.mr_heap_per_block)
        )

    def describe(self):
        """Compact human-readable form, e.g. ``CP 8.0GB / MR 2.0GB``."""
        return (
            f"CP {self.cp_heap_mb / 1024:.1f}GB / "
            f"MR {self.max_mr_heap_mb / 1024:.1f}GB"
        )

    def __str__(self):
        return self.describe()
