"""The resource optimizer (paper Sections 3 and 4).

* :mod:`repro.optimizer.grids` — equi-spaced, exponentially-spaced,
  memory-based, and hybrid grid point generators (Section 3.3.2);
* :mod:`repro.optimizer.pruning` — pruning of blocks of small
  operations and blocks of unknowns (Section 3.4);
* :mod:`repro.optimizer.enumerate` — the overall grid enumeration
  algorithm (Algorithm 1) solving the ML Program Resource Allocation
  Problem (Definition 1);
* :mod:`repro.optimizer.parallel` — Appendix C's task-parallel
  optimizer as a schedule model over the enumeration's task durations;
* :mod:`repro.optimizer.adaptation` — runtime resource adaptation and
  CP migration (Section 4).
"""

from repro.optimizer.enumerate import (
    CostFrontier,
    OptimizerOptions,
    OptimizerResult,
    OptimizerStats,
    ResourceOptimizer,
)
from repro.optimizer.grids import (
    collect_memory_estimates_mb,
    equi_grid,
    exp_grid,
    hybrid_grid,
    memory_grid,
)
from repro.optimizer.adaptation import ResourceAdapter
from repro.optimizer.utilization import UtilizationAwareAdapter

__all__ = [
    "ResourceOptimizer",
    "OptimizerOptions",
    "OptimizerResult",
    "OptimizerStats",
    "CostFrontier",
    "ResourceAdapter",
    "UtilizationAwareAdapter",
    "equi_grid",
    "exp_grid",
    "memory_grid",
    "hybrid_grid",
    "collect_memory_estimates_mb",
]
