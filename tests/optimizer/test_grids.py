"""Unit tests for grid point generators (Section 3.3.2)."""

import functools

import pytest

from repro.common import MatrixCharacteristics
from repro.compiler.pipeline import build_and_analyze
from repro.errors import OptimizationError, ReproError
from repro.optimizer.grids import (
    collect_memory_estimates_mb,
    equi_grid,
    exp_grid,
    generate_grid,
    hybrid_grid,
    memory_grid,
)


class TestEquiGrid:
    def test_point_count(self):
        assert len(equi_grid(512, 54613, m=15)) == 15

    def test_covers_extremes(self):
        points = equi_grid(512, 54613, m=15)
        assert points[0] == 512
        assert points[-1] == pytest.approx(54613)

    def test_equal_gaps(self):
        points = equi_grid(0, 100, m=11)
        gaps = {round(b - a, 9) for a, b in zip(points, points[1:])}
        assert gaps == {10.0}

    def test_degenerate_range(self):
        assert equi_grid(512, 512, m=15) == [512.0]

    def test_no_m_uses_min_gap(self):
        points = equi_grid(512, 2048, m=None)
        assert points == [512.0, 1024.0, 1536.0, 2048.0]


class TestExpGrid:
    def test_logarithmic_count(self):
        points = exp_grid(512, 54613)
        # gaps 512, 1024, 2048, ...: far fewer than a linear grid
        assert 5 <= len(points) <= 10

    def test_gaps_double(self):
        points = exp_grid(512, 10**6)
        gaps = [b - a for a, b in zip(points, points[1:-1])]
        for first, second in zip(gaps, gaps[1:]):
            assert second == pytest.approx(2 * first)

    def test_includes_extremes(self):
        points = exp_grid(512, 54613)
        assert points[0] == 512
        assert points[-1] == pytest.approx(54613)

    def test_fewer_points_than_equi_45(self):
        # the Figure 13(b) relation
        assert len(exp_grid(512, 54613)) < len(equi_grid(512, 54613, 45))


class TestMemoryGrid:
    def test_no_estimates_minimal(self):
        points = memory_grid(512, 54613, [])
        assert points == [512.0]

    def test_estimates_pick_neighbours(self):
        base = equi_grid(0, 100, m=11)
        points = memory_grid(0, 100, [34.0], m=11)
        assert 30.0 in points and 40.0 in points

    def test_small_estimates_clamp_to_min(self):
        points = memory_grid(512, 54613, [10.0, 20.0], m=15)
        assert points == [512.0]

    def test_large_estimates_clamp_to_max(self):
        points = memory_grid(512, 54613, [10**7], m=15)
        assert points[-1] == pytest.approx(54613)

    def test_adapts_to_data_size(self):
        """Different data -> different memory estimates -> different
        grids (the program-awareness property of Figure 13)."""
        source = "X = read($X)\nZ = t(X) %*% X"
        small = build_and_analyze(
            source, {"X": "X"}, {"X": MatrixCharacteristics(10**4, 100, 10**6)}
        )
        large = build_and_analyze(
            source, {"X": "X"}, {"X": MatrixCharacteristics(10**7, 100, 10**9)}
        )
        grid_small = memory_grid(
            512, 54613, collect_memory_estimates_mb_program(small)
        )
        grid_large = memory_grid(
            512, 54613, collect_memory_estimates_mb_program(large)
        )
        assert grid_small != grid_large


def collect_memory_estimates_mb_program(block_program):
    """Adapter: collect estimates from a bare BlockProgram."""

    class _Wrapper:
        def all_blocks(self):
            return block_program.all_blocks()

    return collect_memory_estimates_mb(_Wrapper())


class TestHybridGrid:
    def test_superset_of_exp(self):
        points = set(hybrid_grid(512, 54613, [5000.0]))
        assert set(exp_grid(512, 54613)) <= points

    def test_dispatch(self):
        for kind in ("equi", "exp", "mem", "hybrid"):
            points = generate_grid(kind, 512, 54613, [4000.0], m=15)
            assert points == sorted(points)
            assert len(points) >= 1

    def test_unknown_kind_raises(self):
        with pytest.raises(OptimizationError, match="'bogus'.*equi.*hybrid"):
            generate_grid("bogus", 512, 54613)

    def test_all_points_in_bounds(self):
        for kind in ("equi", "exp", "mem", "hybrid"):
            points = generate_grid(kind, 512, 54613, [100.0, 9999.0, 10**8])
            assert all(512 <= p <= 54613.001 for p in points)


class TestUnknownGridIsATypedErrorWhereTheNameEnters:
    """It used to be accepted at construction and raise a builtin
    ``KeyError`` mid-request, after the program had compiled."""

    @pytest.mark.parametrize("field", ["grid_cp", "grid_mr"])
    def test_every_door(self, field):
        from repro import SessionConfig
        from repro.cluster import paper_cluster
        from repro.optimizer import OptimizerOptions, ResourceOptimizer

        for door in (
            SessionConfig, OptimizerOptions,
            functools.partial(ResourceOptimizer, paper_cluster()),
        ):
            with pytest.raises(OptimizationError) as caught:
                door(**{field: "nope"})
            assert isinstance(caught.value, ReproError)
            for name in ("'nope'", "equi", "exp", "hybrid", "mem"):
                assert name in str(caught.value)

    def test_server_rejects_the_configuration_or_fails_the_submission_typed(
            self):
        from repro import (
            ElasticMLServer, SessionConfig, Submission, prepare_inputs,
            scenario,
        )

        with pytest.raises(OptimizationError):
            ElasticMLServer(config=SessionConfig(grid_cp="nope"))
        server = ElasticMLServer(sample_cap=64)
        try:
            # past the constructor (what ``replace`` would refuse too)
            object.__setattr__(server.config, "grid_mr", "nope")
            args = prepare_inputs(
                server.hdfs, "LinregDS", scenario("XS", cols=100)
            )
            ticket = server.submit(
                Submission(tenant="t", script="LinregDS", args=args)
            )
            result = server.poll(ticket, timeout=60)
        finally:
            server.shutdown()
        assert result.status == "failed"
        assert result.error.startswith("OptimizationError: unknown grid")
        assert "KeyError" not in result.error
