"""Unit tests for memory-elastic grants: granted resources, the spill
penalty, and byte-identity of runs admitted below their ideal."""

import pytest

from repro.api import ElasticMLSession
from repro.cluster import ResourceConfig, small_cluster
from repro.cluster.resources import GrantedResource
from repro.cost import CostModel
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.cost.mr_timing import spill_penalty_time
from repro.runtime import Interpreter
from repro.scripts import load_script
from repro.workloads import prepare_inputs, scenario

#: small CP heap forces an MR job; large MR heap sits above the CP
#: floor so shrinking it actually charges spill
SPILLY = ResourceConfig(128, 512)


@pytest.fixture
def session():
    sess = ElasticMLSession(cluster=small_cluster(), sample_cap=64)
    return sess


@pytest.fixture
def linreg_args(session):
    return prepare_inputs(
        session.hdfs, "LinregDS", scenario("XS", cols=100)
    )


class TestGrantedResource:
    def test_scales_every_heap(self):
        ideal = ResourceConfig(1000, 800, {3: 600})
        granted = GrantedResource.of(ideal, 0.5)
        assert granted.cp_heap_mb == 500
        assert granted.mr_heap_mb == 400
        assert granted.mr_heap_per_block == {3: 300}
        assert granted.ideal is ideal
        assert granted.fraction == 0.5

    def test_fraction_clamped(self):
        ideal = ResourceConfig(1000)
        assert GrantedResource.of(ideal, 1.7).fraction == 1.0
        assert GrantedResource.of(ideal, -0.3).fraction == 0.0

    def test_cluster_floor(self):
        cluster = small_cluster()
        granted = GrantedResource.of(
            ResourceConfig(512, 512), 0.25, cluster
        )
        # 512 * 0.25 = 128 sits below the paper's CP floor, the min
        # allocation itself
        assert granted.cp_heap_mb == cluster.min_heap_mb == 256.0
        assert granted.mr_heap_mb == cluster.min_heap_mb

    def test_describe_mentions_grant(self):
        granted = GrantedResource.of(ResourceConfig(1024), 0.5)
        assert "grant 50%" in granted.describe()


class TestSpillPenalty:
    def test_zero_at_or_above_ideal(self):
        p = DEFAULT_PARAMETERS
        assert spill_penalty_time(1e9, 512, 512, p) == 0.0
        assert spill_penalty_time(1e9, 512, 1024, p) == 0.0
        assert spill_penalty_time(1e9, 0, 0, p) == 0.0

    def test_proportional_to_missing_fraction(self):
        p = DEFAULT_PARAMETERS
        half = spill_penalty_time(1e9, 512, 256, p)
        quarter = spill_penalty_time(1e9, 512, 384, p)
        assert half > quarter > 0
        assert half == pytest.approx(2 * quarter)

    def test_scales_with_input_bytes(self):
        p = DEFAULT_PARAMETERS
        assert spill_penalty_time(2e9, 512, 256, p) == pytest.approx(
            2 * spill_penalty_time(1e9, 512, 256, p)
        )


class TestCostModelSpill:
    def test_spill_component_charged_for_grant(self, session, linreg_args):
        cluster = session.cluster
        src = load_script("LinregDS")
        compiled = session.compile_script(src, linreg_args, resource=SPILLY)
        model = CostModel(cluster)
        ideal_cost = model.estimate_program(compiled, SPILLY)
        granted = GrantedResource.of(SPILLY, 0.25, cluster)
        components = model.estimate_components(compiled, granted)
        assert components["total"] > ideal_cost
        assert components.get("spill", 0.0) > 0.0

    def test_full_grant_costs_like_ideal(self, session, linreg_args):
        src = load_script("LinregDS")
        compiled = session.compile_script(src, linreg_args, resource=SPILLY)
        model = CostModel(session.cluster)
        granted = GrantedResource.of(SPILLY, 1.0)
        assert model.estimate_program(compiled, granted) == (
            model.estimate_program(compiled, SPILLY)
        )


class TestByteIdentity:
    def test_rescaled_run_same_outputs_more_time(self, session, linreg_args):
        """A run admitted below its ideal executes the same plans and
        prints the same lines; only its clock moves (spill)."""
        cluster = session.cluster
        src = load_script("LinregDS")
        c_plain = session.compile_script(src, linreg_args, resource=SPILLY)
        plain = Interpreter(cluster, hdfs=session.hdfs, sample_cap=64).run(
            c_plain, SPILLY
        )
        assert plain.mr_jobs > 0

        c_shrunk = session.compile_script(src, linreg_args, resource=SPILLY)
        shrunk = Interpreter(
            cluster, hdfs=session.hdfs, sample_cap=64, fraction=0.25
        ).run(c_shrunk, SPILLY)

        assert shrunk.prints == plain.prints
        assert shrunk.mr_jobs == plain.mr_jobs
        assert shrunk.total_time > plain.total_time
        assert shrunk.breakdown.get("spill", 0.0) > 0.0
