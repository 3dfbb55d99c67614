"""repro — a reproduction of "Resource Elasticity for Large-Scale
Machine Learning" (Huang et al., SIGMOD 2015).

The package implements the full SystemML-style stack the paper builds
on — a DML compiler producing memory-sensitive hybrid CP/MR runtime
plans, a simulated YARN/MapReduce/HDFS cluster substrate, and a white-box
cost model — plus the paper's contributions: the grid-enumeration
resource optimizer with program-aware pruning (Section 3), a schedule
model of its task-parallel variant (Appendix C), and runtime resource
adaptation with CP application-master migration (Section 4).

Entry points:

* :class:`repro.api.ElasticMLSession` — compile/optimize/execute DML
  scripts against a simulated cluster;
* :mod:`repro.scripts` — the five bundled ML programs of Table 1;
* :mod:`repro.workloads` — data scenarios XS-XL and static baselines;
* :mod:`repro.optimizer` — the resource optimizer itself.
"""

from repro.api import (
    ElasticMLSession,
    OptimizerResultCache,
    RunOutcome,
    SessionConfig,
)
from repro.chaos import (
    ChaosReport,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.cluster import (
    ClusterConfig,
    ResourceConfig,
    paper_cluster,
    small_cluster,
)
from repro.common import MatrixCharacteristics
from repro.compiler import compile_program
from repro.cost import (
    CalibrationCollector,
    CalibrationProfile,
    CostModel,
    CostParameters,
    drifted_parameters,
    fit_profile,
)
from repro.elastic import (
    ElasticTrace,
    TraceEntry,
    TraceRecorder,
    TraceSimulator,
    bursty_trace,
    simulate_arms,
)
from repro.errors import ReproError
from repro.obs import Tracer, get_tracer, use_tracer
from repro.optimizer import (
    OptimizerOptions,
    OptimizerResult,
    ResourceAdapter,
    ResourceOptimizer,
)
from repro.runtime import ExecutionResult, Interpreter, SimulatedHDFS
from repro.scripts import SCRIPTS, load_script
from repro.serving import (
    ConsistentHashRouter,
    ElasticMLServer,
    HeapRulePolicy,
    PackingPolicy,
    ShardedElasticMLServer,
    Submission,
    SubmissionResult,
)
from repro.workloads import prepare_inputs, scenario

__version__ = "1.24.0"

__all__ = [
    "ElasticMLSession",
    "OptimizerResultCache",
    "RunOutcome",
    "SessionConfig",
    "ConsistentHashRouter",
    "ElasticMLServer",
    "HeapRulePolicy",
    "PackingPolicy",
    "ShardedElasticMLServer",
    "Submission",
    "SubmissionResult",
    "ChaosReport",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "ExecutionResult",
    "ClusterConfig",
    "ResourceConfig",
    "paper_cluster",
    "small_cluster",
    "ElasticTrace",
    "TraceEntry",
    "TraceRecorder",
    "TraceSimulator",
    "bursty_trace",
    "simulate_arms",
    "MatrixCharacteristics",
    "compile_program",
    "CalibrationCollector",
    "CalibrationProfile",
    "CostModel",
    "CostParameters",
    "drifted_parameters",
    "fit_profile",
    "ReproError",
    "ResourceOptimizer",
    "OptimizerOptions",
    "OptimizerResult",
    "ResourceAdapter",
    "Interpreter",
    "SimulatedHDFS",
    "SCRIPTS",
    "load_script",
    "scenario",
    "prepare_inputs",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "__version__",
]
