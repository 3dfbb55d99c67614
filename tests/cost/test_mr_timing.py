"""Unit tests for the shared MR job timing model."""

import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import FileFormat, MatrixCharacteristics
from repro.compiler.lops import JobType, Phase
from repro.compiler.runtime_prog import MRJobInstruction, MRStep, Operand
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.cost.mr_timing import time_mr_job


def make_job(rows=10**6, cols=1000, method="mapmm", phase=Phase.MAP,
             with_output=True, block_id=0):
    in_mc = MatrixCharacteristics(rows, cols, rows * cols)
    out_mc = MatrixCharacteristics(rows, 1, rows)
    step = MRStep(
        opcode="ba+*", method=method, phase=phase,
        inputs=[Operand(name="X"), Operand(name="v")],
        output="_out", out_mc=out_mc, in_mcs=[in_mc],
        broadcast_names=["v"],
    )
    return MRJobInstruction(
        job_type=JobType.GMR, steps=[step], input_vars=["X"],
        broadcast_vars=["v"], output_vars=["_out"] if with_output else [],
        block_id=block_id,
    ), in_mc


def timing_for(job, mcs, resource=None, cluster=None):
    cluster = cluster or paper_cluster()
    resource = resource or ResourceConfig(512, 2048)

    def mc_of(name):
        return mcs.get(name)

    def fmt_of(name):
        return FileFormat.BINARY_BLOCK

    step_mcs = [(step.out_mc, step.in_mcs) for step in job.steps]
    return time_mr_job(job, step_mcs, mc_of, fmt_of, resource, cluster,
                       DEFAULT_PARAMETERS)


VEC = MatrixCharacteristics(10**6, 1, 10**6)


class TestTaskLayout:
    def test_tasks_from_input_size(self):
        job, in_mc = make_job()
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        # 8 GB / 128 MB blocks = 60 map tasks
        assert timing.n_tasks == 8 * 10**9 // (128 * 2**20) + 1

    def test_small_input_single_task(self):
        job, _ = make_job(rows=1000, cols=10)
        small = MatrixCharacteristics(1000, 10, 10**4)
        timing = timing_for(job, {"X": small, "v": VEC})
        assert timing.n_tasks == 1
        assert timing.waves == 1

    def test_large_tasks_reduce_parallelism(self):
        job, in_mc = make_job()
        mcs = {"X": in_mc, "v": VEC}
        small_tasks = timing_for(job, mcs, ResourceConfig(512, 1024))
        big_tasks = timing_for(job, mcs, ResourceConfig(512, 30000))
        assert big_tasks.dop < small_tasks.dop
        assert big_tasks.map_read > small_tasks.map_read

    def test_cp_reservation_reduces_parallelism(self):
        job, in_mc = make_job()
        mcs = {"X": in_mc, "v": VEC}
        free = timing_for(job, mcs, ResourceConfig(512, 8192))
        reserved = timing_for(job, mcs, ResourceConfig(50000, 8192))
        assert reserved.dop <= free.dop


class TestPhases:
    def test_job_latency_always_charged(self):
        job, in_mc = make_job()
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        assert timing.latency >= DEFAULT_PARAMETERS.mr_job_latency

    def test_extra_job_latency(self):
        job, in_mc = make_job()
        job.extra_job_latency = 1
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        assert timing.latency >= 2 * DEFAULT_PARAMETERS.mr_job_latency

    def test_shuffle_step_moves_data(self):
        job, in_mc = make_job(method="reorg_t", phase=Phase.SHUFFLE)
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        assert timing.shuffle > 0

    def test_map_only_no_shuffle(self):
        job, in_mc = make_job(method="mapmm", phase=Phase.MAP)
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        assert timing.shuffle == 0
        assert timing.reduce_compute == 0

    def test_aggregation_adds_partials(self):
        job, in_mc = make_job(method="mapmm_agg", phase=Phase.REDUCE)
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        assert timing.shuffle > 0
        assert timing.reduce_compute > 0

    def test_broadcast_read_scales_with_waves(self):
        job, in_mc = make_job()
        big_vec = MatrixCharacteristics(10**6, 100, 10**8)
        timing_small = timing_for(job, {"X": in_mc, "v": VEC})
        timing_big = timing_for(job, {"X": in_mc, "v": big_vec})
        assert timing_big.broadcast_read > timing_small.broadcast_read

    def test_thrash_penalty_for_tiny_tasks(self):
        job, in_mc = make_job()
        mcs = {"X": in_mc, "v": VEC}
        tiny = timing_for(job, mcs, ResourceConfig(512, 512))
        normal = timing_for(job, mcs, ResourceConfig(512, 2048))
        # thrash penalty slows map compute relative to the parallelism
        # advantage of smaller tasks
        per_task_tiny = tiny.map_compute * tiny.dop
        per_task_normal = normal.map_compute * normal.dop
        assert per_task_tiny > per_task_normal

    def test_total_is_sum_of_parts(self):
        job, in_mc = make_job()
        timing = timing_for(job, {"X": in_mc, "v": VEC})
        parts = (
            timing.latency + timing.map_read + timing.broadcast_read
            + timing.map_compute + timing.map_write + timing.shuffle
            + timing.reduce_compute + timing.reduce_write
        )
        assert timing.total == pytest.approx(parts)

    def test_unknown_input_charges_latency_only_io(self):
        job, _ = make_job()
        unknown = MatrixCharacteristics(None, None, None)
        timing = timing_for(job, {"X": unknown, "v": unknown})
        assert timing.map_read == 0
        assert timing.latency > 0


class TestStepCharacteristics:
    """``time_mr_job`` takes each step's characteristics from its caller
    (a run's measurements or the step snapshot) and writes nothing on
    the job: a plan may be shared by concurrent runs."""

    def _measured(self, job, scale):
        return [
            (MatrixCharacteristics(step.out_mc.rows * scale, 1,
                                   step.out_mc.rows * scale),
             [MatrixCharacteristics(mc.rows * scale, mc.cols,
                                    mc.nnz * scale)
              for mc in step.in_mcs])
            for step in job.steps
        ]

    def _time(self, job, step_mcs, mcs):
        return time_mr_job(
            job, step_mcs, mcs.get, lambda name: FileFormat.BINARY_BLOCK,
            ResourceConfig(512, 2048), paper_cluster(), DEFAULT_PARAMETERS,
        )

    def test_compute_follows_the_given_characteristics(self):
        job, in_mc = make_job()
        mcs = {"X": in_mc, "v": VEC}
        snapshot = timing_for(job, mcs)
        measured = self._time(job, self._measured(job, 4), mcs)
        assert measured.map_compute == pytest.approx(4 * snapshot.map_compute)
        assert measured.map_read == snapshot.map_read

    def test_the_job_is_not_written(self):
        job, in_mc = make_job()
        (step,) = job.steps
        before = (step.out_mc, list(step.in_mcs), repr(step.out_mc),
                  [repr(mc) for mc in step.in_mcs])
        self._time(job, self._measured(job, 4), {"X": in_mc, "v": VEC})
        assert (step.out_mc, list(step.in_mcs), repr(step.out_mc),
                [repr(mc) for mc in step.in_mcs]) == before
