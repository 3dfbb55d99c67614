"""Multi-tenant serving (paper Section 5.3).

:class:`ElasticMLServer` accepts concurrent tenant submissions against
one simulated cluster: a bounded thread pool prepares them (compile +
optimize through shared, locked cross-tenant caches), an
:class:`~repro.serving.admission.HeapRulePolicy` gates execution on
AM-container capacity under the paper's 1.5x-heap rule, and results are
deterministic per submission regardless of interleaving.
"""

from repro.serving.admission import (
    AdmissionPolicy,
    ConsistentHashRouter,
    HeapRulePolicy,
    PendingRequest,
)
from repro.serving.server import (
    ElasticMLServer,
    ProgramCache,
    Submission,
    SubmissionResult,
    default_serving_workers,
)
from repro.serving.shard import ShardedElasticMLServer

__all__ = [
    "AdmissionPolicy",
    "ConsistentHashRouter",
    "ElasticMLServer",
    "HeapRulePolicy",
    "PendingRequest",
    "ProgramCache",
    "ShardedElasticMLServer",
    "Submission",
    "SubmissionResult",
    "default_serving_workers",
]
