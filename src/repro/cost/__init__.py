"""White-box analytical cost model (paper Section 3.1).

Estimates execution time of generated runtime plans by scanning
instructions in execution order, tracking sizes and in-memory/HDFS states
of live variables, and pricing IO, compute, and latency per instruction.
Costing always happens on runtime plans — never on HOPs — so every
compilation decision (rewrites, operator selection, piggybacking) is
automatically reflected.
"""

from repro.cost.calibrate import (
    CalibrationCollector,
    CalibrationProfile,
    NULL_COLLECTOR,
    drifted_parameters,
    fit_profile,
)
from repro.cost.constants import CostParameters
from repro.cost.model import CostModel

__all__ = [
    "CostModel",
    "CostParameters",
    "CalibrationCollector",
    "CalibrationProfile",
    "NULL_COLLECTOR",
    "drifted_parameters",
    "fit_profile",
]
