"""Unit tests for cost-model calibration (repro.cost.calibrate).

Covers the robust slope fit, the collector (validation, bounds,
merging, the null collector), profile persistence round-trips, the
sample-floor fallback contract, and the deterministic drift generator
the benchmarks use as simulated hardware truth.
"""

import math
from dataclasses import replace

import pytest

from repro.cluster import paper_cluster
from repro.cost.calibrate import (
    COMPONENTS,
    DEFAULT_MIN_SAMPLES,
    NULL_COLLECTOR,
    CalibrationCollector,
    CalibrationProfile,
    cluster_signature,
    drifted_parameters,
    fit_profile,
    fit_slope,
    resolve_profile,
)
from repro.cost.constants import DEFAULT_PARAMETERS, CostParameters
from repro.obs import Tracer, use_tracer


def _fill(collector, component, slope, n=DEFAULT_MIN_SAMPLES, start=1):
    """n exact samples of ``seconds = slope * work``."""
    for i in range(start, start + n):
        work = float(i) * 1000.0
        collector.add(component, work, slope * work)


class TestFitSlope:
    def test_recovers_exact_slope(self):
        pairs = [(x, 0.25 * x) for x in (1.0, 2.0, 5.0, 9.0)]
        assert fit_slope(pairs) == pytest.approx(0.25)

    def test_huber_downweights_outliers(self):
        # one wild outlier among 20 clean samples must not move the
        # slope by more than a few percent (plain OLS would)
        pairs = [(float(x), 2.0 * x) for x in range(1, 21)]
        pairs.append((10.0, 2000.0))
        slope = fit_slope(pairs)
        assert slope == pytest.approx(2.0, rel=0.05)

    def test_empty_and_zero_work_degenerate(self):
        assert fit_slope([]) is None
        assert fit_slope([(0.0, 1.0), (0.0, 2.0)]) is None

    def test_negative_slope_rejected(self):
        assert fit_slope([(1.0, -1.0), (2.0, -2.0)]) is None


class TestCollector:
    def test_add_and_aggregates(self):
        collector = CalibrationCollector()
        collector.add("hdfs_read", 100.0, 2.0)
        collector.add("hdfs_read", 300.0, 6.0)
        collector.add("cp_compute", 50.0, 1.0)
        assert collector.counts() == {"hdfs_read": 2, "cp_compute": 1}
        assert collector.totals()["hdfs_read"] == (2, 400.0, 8.0)
        assert collector.total_samples == 3
        collector.clear()
        assert collector.total_samples == 0

    def test_rejects_useless_samples(self):
        collector = CalibrationCollector()
        collector.add("hdfs_read", 0.0, 1.0)      # zero work: no slope info
        collector.add("hdfs_read", -5.0, 1.0)     # negative work
        collector.add("hdfs_read", 5.0, -1.0)     # negative seconds
        collector.add("hdfs_read", float("nan"), 1.0)
        collector.add("hdfs_read", 5.0, float("inf"))
        assert collector.total_samples == 0

    def test_pair_retention_is_bounded_but_counts_continue(self):
        collector = CalibrationCollector(max_samples=4)
        _fill(collector, "shuffle", 0.5, n=10)
        n, pairs = collector.snapshot()["shuffle"]
        assert n == 10
        assert len(pairs) == 4

    def test_merge_folds_samples(self):
        a, b = CalibrationCollector(), CalibrationCollector()
        _fill(a, "hdfs_read", 0.1, n=3)
        _fill(b, "hdfs_read", 0.1, n=2, start=10)
        _fill(b, "local_disk", 0.2, n=4)
        a.merge(b)
        assert a.counts() == {"hdfs_read": 5, "local_disk": 4}

    def test_emission_increments_tracer_counter(self):
        tracer = Tracer()
        collector = CalibrationCollector()
        with use_tracer(tracer):
            collector.add("cp_compute", 10.0, 0.1)
            collector.add("cp_compute", 0.0, 0.1)  # rejected: not counted
        assert tracer.counter("calib.samples") == 1


class TestCollectorSlot:
    def test_default_is_null(self):
        from repro.runtime import Interpreter

        collector = Interpreter(paper_cluster())._collector
        assert collector is NULL_COLLECTOR
        assert collector.enabled is False

    def test_null_collector_is_inert(self):
        NULL_COLLECTOR.add("hdfs_read", 100.0, 1.0)
        assert NULL_COLLECTOR.total_samples == 0
        assert NULL_COLLECTOR.snapshot() == {}


class TestFitProfile:
    def test_fits_rates_and_latencies(self):
        collector = CalibrationCollector()
        # rate component: t = work / bw with bw = 2e8
        _fill(collector, "hdfs_read", 1.0 / 2e8)
        # latency component: t = units * latency with latency = 12.5
        for i in range(DEFAULT_MIN_SAMPLES):
            collector.add("mr_job_latency", float(1 + i % 3),
                          12.5 * (1 + i % 3))
        profile = fit_profile(collector, paper_cluster())
        assert profile.fitted["hdfs_read_bw"] == pytest.approx(2e8)
        assert profile.fitted["mr_job_latency"] == pytest.approx(12.5)

    def test_sample_floor_keeps_base(self):
        collector = CalibrationCollector()
        _fill(collector, "hdfs_read", 1.0 / 2e8, n=DEFAULT_MIN_SAMPLES - 1)
        profile = fit_profile(collector, paper_cluster())
        assert "hdfs_read_bw" not in profile.fitted
        assert (profile.parameters().hdfs_read_bw
                == DEFAULT_PARAMETERS.hdfs_read_bw)
        # lowering the floor fits the same samples
        profile = fit_profile(collector, paper_cluster(),
                              min_samples=DEFAULT_MIN_SAMPLES - 1)
        assert profile.fitted["hdfs_read_bw"] == pytest.approx(2e8)

    def test_base_params_are_the_fallback(self):
        base = drifted_parameters(3)
        profile = fit_profile(CalibrationCollector(), paper_cluster(),
                              base_params=base)
        assert profile.fitted == {}
        assert profile.parameters() == base

    def test_counters(self):
        tracer = Tracer()
        collector = CalibrationCollector()
        _fill(collector, "hdfs_read", 1.0 / 2e8)
        _fill(collector, "cp_compute", 1.0 / 1e9)
        with use_tracer(tracer):
            fit_profile(collector, paper_cluster())
        assert tracer.counter("calib.fitted") == 2
        assert tracer.counter("calib.fit_runs") == 1


class TestProfilePersistence:
    def _profile(self):
        collector = CalibrationCollector()
        _fill(collector, "hdfs_read", 1.0 / drifted_parameters(9).hdfs_read_bw)
        # enough samples but a degenerate (all-zero-seconds) stream:
        # the fit must keep the base value for this component
        _fill(collector, "mr_job_latency", 0.0)
        return fit_profile(collector, paper_cluster())

    def test_roundtrip_is_bit_exact(self, tmp_path):
        profile = self._profile()
        path = tmp_path / "profile.json"
        profile.save(str(path))
        loaded = CalibrationProfile.load(str(path))
        assert loaded == profile
        assert loaded.parameters() == profile.parameters()
        assert isinstance(loaded.parameters(), CostParameters)

    def test_json_roundtrip(self):
        profile = self._profile()
        clone = CalibrationProfile.from_json(profile.to_json())
        assert clone == profile

    def test_matches_cluster(self):
        cluster = paper_cluster()
        profile = fit_profile(CalibrationCollector(), cluster)
        assert profile.matches(cluster)
        assert profile.cluster_signature == cluster_signature(cluster)

    def test_resolve_profile_contract(self, tmp_path):
        cluster = paper_cluster()
        profile = fit_profile(CalibrationCollector(), cluster)
        assert resolve_profile(None) is None
        assert resolve_profile(profile, cluster) is profile
        path = tmp_path / "p.json"
        profile.save(str(path))
        assert resolve_profile(str(path), cluster) == profile
        with pytest.raises(TypeError):
            resolve_profile(42)
        mismatched = CalibrationProfile(
            cluster_signature="0" * 16, base=profile.base
        )
        with pytest.raises(ValueError):
            resolve_profile(mismatched, cluster)

    def test_profile_with_a_retired_parameter_still_loads(self, tmp_path):
        """A profile saved before ``spill_penalty_factor`` was removed
        carries it in ``base``; loading ignores the retired key."""
        path = tmp_path / "old.json"
        path.write_text(OLD_PROFILE_JSON)
        profile = resolve_profile(str(path), paper_cluster())
        assert profile.parameters() == replace(
            DEFAULT_PARAMETERS, hdfs_read_bw=150000000.0
        )


#: a profile as saved when CostParameters still had spill_penalty_factor
OLD_PROFILE_JSON = """{
  "base": {
    "am_startup_latency": 8.0,
    "container_alloc_latency": 2.0,
    "cp_flops": 2000000000.0,
    "hdfs_read_bw": 157286400.0,
    "hdfs_write_bw": 104857600.0,
    "local_disk_bw": 262144000.0,
    "mr_job_latency": 18.0,
    "mr_task_flops": 1500000000.0,
    "mr_task_latency": 1.5,
    "shuffle_bw_per_node": 83886080.0,
    "small_task_thrash_heap_mb": 768.0,
    "sparse_io_factor": 1.4,
    "spill_penalty_factor": 2.0,
    "text_io_factor": 2.5,
    "thrash_penalty": 1.6
  },
  "cluster_signature": "08b85ebdd0ee9a34",
  "fitted": {
    "hdfs_read_bw": 150000000.0
  },
  "min_samples": 8,
  "sample_counts": {
    "hdfs_read": 40
  }
}
"""


class TestDriftedParameters:
    def test_deterministic_and_distinct(self):
        assert drifted_parameters(42) == drifted_parameters(42)
        assert drifted_parameters(42) != drifted_parameters(43)
        assert drifted_parameters(42) != DEFAULT_PARAMETERS

    def test_only_calibratable_fields_move(self):
        drifted = drifted_parameters(42)
        calibratable = {component.param for component in COMPONENTS}
        from dataclasses import asdict

        base = asdict(DEFAULT_PARAMETERS)
        for name, value in asdict(drifted).items():
            if name in calibratable:
                assert value != base[name]
                assert value > 0.0
            else:
                assert value == base[name]

    def test_spread_bounds(self):
        drifted = drifted_parameters(7, spread=0.6)
        for component in COMPONENTS:
            ratio = (getattr(drifted, component.param)
                     / getattr(DEFAULT_PARAMETERS, component.param))
            assert math.exp(-0.6) <= ratio <= math.exp(0.6)
