"""Unit tests for the multi-application throughput simulator."""

import pytest

from repro.cluster import paper_cluster
from repro.cluster.events import (
    io_saturation_contention,
    simulate_mixed_throughput,
    simulate_throughput,
)


@pytest.fixture
def cluster():
    return paper_cluster()


class TestThroughput:
    def test_single_user_baseline(self, cluster):
        out = simulate_throughput(
            cluster, num_users=1, apps_per_user=8, app_duration=60.0,
            container_mb=12288,
        )
        assert out.total_apps == 8
        assert out.makespan_seconds == pytest.approx(8 * 60.0)
        assert out.apps_per_minute == pytest.approx(1.0)

    def test_parallel_users_scale_until_capacity(self, cluster):
        small = simulate_throughput(
            cluster, 4, 8, app_duration=60.0, container_mb=12288
        )
        large = simulate_throughput(
            cluster, 16, 8, app_duration=60.0, container_mb=12288
        )
        assert large.apps_per_minute == pytest.approx(
            4 * small.apps_per_minute
        )

    def test_saturation_at_container_capacity(self, cluster):
        """B-LL-sized apps (80 GB containers) cap at 6 concurrent; Opt
        apps (12 GB) cap at 36 — the Figure 12 shapes."""
        bll = simulate_throughput(
            cluster, 64, 4, app_duration=60.0, container_mb=80 * 1024
        )
        opt = simulate_throughput(
            cluster, 64, 4, app_duration=60.0, container_mb=12288
        )
        assert bll.max_concurrency == 6
        assert opt.max_concurrency == 36
        assert opt.apps_per_minute > 4 * bll.apps_per_minute

    def test_throughput_saturates_beyond_capacity(self, cluster):
        at_cap = simulate_throughput(
            cluster, 36, 8, 60.0, container_mb=12288
        )
        beyond = simulate_throughput(
            cluster, 128, 8, 60.0, container_mb=12288
        )
        assert beyond.apps_per_minute == pytest.approx(
            at_cap.apps_per_minute, rel=0.05
        )

    def test_contention_slows_large_fleets(self, cluster):
        free = simulate_throughput(cluster, 32, 8, 60.0, 12288)
        contended = simulate_throughput(
            cluster, 32, 8, 60.0, 12288,
            contention=io_saturation_contention(saturation_point=8),
        )
        assert contended.apps_per_minute < free.apps_per_minute

    def test_contention_model_shape(self):
        factor = io_saturation_contention(saturation_point=8)
        assert factor(4) == 1.0
        assert factor(8) == 1.0
        assert factor(32) > factor(16) > 1.0

    def test_all_apps_complete(self, cluster):
        out = simulate_throughput(cluster, 7, 3, 10.0, 30000)
        assert out.total_apps == 21
        assert out.makespan_seconds > 0


class TestMixedThroughput:
    def test_heterogeneous_users(self, cluster):
        from repro.cluster.events import simulate_mixed_throughput

        # half small/fast apps, half large/slow apps
        specs = [(20.0, 12288)] * 8 + [(120.0, 80 * 1024)] * 8
        out = simulate_mixed_throughput(cluster, specs, apps_per_user=4)
        assert out.total_apps == 64
        assert out.makespan_seconds > 0

    def test_small_apps_fill_around_large(self, cluster):
        from repro.cluster.events import simulate_mixed_throughput

        only_large = simulate_mixed_throughput(
            cluster, [(60.0, 80 * 1024)] * 6, apps_per_user=4
        )
        mixed = simulate_mixed_throughput(
            cluster,
            [(60.0, 80 * 1024)] * 6 + [(60.0, 12288)] * 12,
            apps_per_user=4,
        )
        # 12 extra small users triple the work; right-sized containers
        # let them run alongside the large apps without tripling time
        assert mixed.total_apps == 3 * only_large.total_apps
        assert mixed.makespan_seconds < 2 * only_large.makespan_seconds

    def test_mixed_queue_not_head_blocked(self, cluster):
        from repro.cluster.events import simulate_mixed_throughput

        # a queued giant app must not block small apps that still fit
        specs = [(50.0, 80 * 1024)] * 7 + [(10.0, 4096)] * 4
        out = simulate_mixed_throughput(cluster, specs, apps_per_user=2)
        # the four small users (40 MBish containers) interleave freely
        assert out.max_concurrency > 6

    @pytest.mark.parametrize("containers_per_app", [1, 3])
    def test_homogeneous_is_mixed_with_equal_specs(
            self, cluster, containers_per_app):
        """One request size: FIFO head-of-line blocking and skip-ahead
        admission admit the same set, so the two entry points agree."""
        contention = io_saturation_contention(saturation_point=8)
        same = simulate_throughput(
            cluster, 40, 3, 60.0, 12288, contention=contention,
            containers_per_app=containers_per_app,
        )
        mixed = simulate_mixed_throughput(
            cluster, [(60.0, 12288)] * 40, apps_per_user=3,
            contention=contention, containers_per_app=containers_per_app,
        )
        assert same.makespan_seconds == mixed.makespan_seconds
        assert same.max_concurrency == mixed.max_concurrency
        assert same.max_concurrency == 36 // containers_per_app

    def test_unplaceable_request_raises(self, cluster):
        """A request above the maximum allocation (or more containers
        than an empty cluster holds) is an error, not a silently
        smaller run."""
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            simulate_mixed_throughput(
                cluster,
                [(60.0, 12288), (60.0, cluster.max_allocation_mb + 1)],
            )
        with pytest.raises(ClusterError):
            simulate_throughput(
                cluster, 4, 2, 60.0, 80 * 1024, containers_per_app=7
            )
