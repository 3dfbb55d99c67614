"""Real programs under the incremental cost walk and under the oracle
walk (``tests/cost/test_cost_state_oracle.py``: the pre-change state and
``_balance_pool``): every per-CP-point cost, the chosen configuration
and the simulated runtime must be equal — ``==``, not approximately.

The run is the whole pipeline (compile, optimize, execute with runtime
re-optimization), so the per-block walk (``estimate_block``), the
whole-program walk and the adapter's ``estimate_blocks`` are all covered
by the one comparison.
"""

import pytest

from repro import ElasticMLSession, prepare_inputs, scenario
from tests.cost.test_cost_state_oracle import oracle_walk

SCRIPTS = ("LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM", "KMeans", "PCA")


def _run(script, size, sparse):
    session = ElasticMLSession(sample_cap=64, seed=11)
    args = prepare_inputs(
        session.hdfs, script, scenario(size, cols=1000, sparse=sparse),
        seed=11,
    )
    outcome = session.run(script, args)
    resource = outcome.resource
    return (
        [(p.rc, p.cost.hex()) for p in outcome.optimizer_result.points],
        # block ids differ between two compilations; their order does not
        (resource.cp_heap_mb, resource.mr_heap_mb,
         list(resource.mr_heap_per_block.values())),
        outcome.total_time.hex(),
    )


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("size", ["XS", "M", "L"])
@pytest.mark.parametrize("script", SCRIPTS)
def test_walk_equals_oracle_walk(script, size, sparse):
    profile, resource, total_time = _run(script, size, sparse)
    with oracle_walk():
        oracle = _run(script, size, sparse)
    assert profile and profile == oracle[0]
    assert resource == oracle[1]
    assert total_time == oracle[2]
