"""The what-if memo and the seeded plan cache against no cache at all.

The reference arm runs every program in a fresh session with
``enable_plan_cache=False``: every grid point regenerates every plan and
walks every cost (``cost_memo_hits == 0``), at optimization time and in
the adapter's runtime re-optimizations alike.  Each other arm must
produce the same float for every CP point, choose the same configuration
and simulate the same seconds — ``==`` on hex strings, not approximately:

* a fresh session with the cache on (interval memo, seeded plan cache);
* one ``ElasticMLServer`` serving all of them (handouts of frozen
  masters: the seeds are the *master's* plan objects).

The programs are ``benchmarks/e2e``'s 84 ``serve_cold`` ones plus the XL
scenario of every script.  CI's ``microbench-smoke`` runs this file by
name.
"""

import pytest

from repro import (
    ElasticMLServer,
    ElasticMLSession,
    SessionConfig,
    Submission,
    prepare_inputs,
    scenario,
)

SEED = 7
SCRIPTS = ("LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM", "KMeans", "PCA")
PROGRAMS = tuple(
    (script, size, cols, sparse)
    for script in SCRIPTS
    for size in ("XS", "S", "M", "L")
    for cols, sparse in ((1000, False), (1000, True), (100, False))
) + tuple(
    (script, "XL", 1000, sparse)
    for script in SCRIPTS for sparse in (False, True)
)


def _inputs(hdfs, program):
    script, size, cols, sparse = program
    return prepare_inputs(
        hdfs, script, scenario(size, cols=cols, sparse=sparse), seed=SEED
    )


def _identity(outcome):
    resource = outcome.resource
    return (
        [(p.rc, p.cost.hex()) for p in outcome.optimizer_result.points],
        outcome.optimizer_result.cost.hex(),
        # block ids differ between two compilations; their order does not
        (resource.cp_heap_mb, resource.mr_heap_mb,
         list(resource.mr_heap_per_block.values())),
        outcome.total_time.hex(),
        outcome.result.mr_jobs, outcome.result.evictions,
        outcome.migrations, tuple(outcome.prints),
    )


def _session_run(program, config):
    session = ElasticMLSession(sample_cap=64, seed=SEED, config=config)
    outcome = session.run(program[0], _inputs(session.hdfs, program))
    return outcome


@pytest.fixture(scope="module")
def reference():
    """program -> identity with no plan cache and no memo anywhere."""
    identities = {}
    for program in PROGRAMS:
        outcome = _session_run(
            program, SessionConfig(enable_plan_cache=False)
        )
        assert outcome.optimizer_result.stats.cost_memo_hits == 0
        identities[program] = _identity(outcome)
    return identities


def _differing(reference, identities):
    return [p for p in identities if identities[p] != reference[p]]


def test_fresh_sessions_with_the_memo(reference):
    hits = 0
    identities = {}
    for program in PROGRAMS:
        outcome = _session_run(program, SessionConfig())
        hits += outcome.optimizer_result.stats.cost_memo_hits
        identities[program] = _identity(outcome)
    assert _differing(reference, identities) == []
    assert hits >= 3000  # the comparison is of answers, not of walks


def test_one_server_with_handouts_and_seeded_caches(reference):
    server = ElasticMLServer(sample_cap=64)
    try:
        tickets = {
            program: server.submit(Submission(
                tenant=f"tenant-{index % 4}", script=program[0],
                args=_inputs(server.hdfs, program), seed=SEED,
            ))
            for index, program in enumerate(PROGRAMS)
        }
        results = {
            program: server.poll(ticket, timeout=300)
            for program, ticket in tickets.items()
        }
    finally:
        server.shutdown()
    assert [r.error for r in results.values() if not r.ok] == []
    identities = {p: _identity(r.outcome) for p, r in results.items()}
    assert _differing(reference, identities) == []

