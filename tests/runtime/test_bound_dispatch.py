"""The bound dispatch computes what the kernel table computes.

Every CP instruction is bound to its executor when its plan is
generated.  A one-instruction plan through the interpreter must give the
value, the ``cp_compute`` charge and the calibration samples of
``execute_kernel`` plus ``operation_flops``; every block must leave its
frame free of temporaries and the pool holding exactly the resident
matrices some frame references; and a traced run counts what it counted
before the dispatch was bound."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline as pipeline_mod
from repro import ElasticMLSession, prepare_inputs, scenario
from repro.cluster import paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler.runtime_prog import CPInstruction, Operand
from repro.cost.compute_model import operation_flops
from repro.cost.constants import DEFAULT_PARAMETERS
from repro.errors import ExecutionError
from repro.runtime.bufferpool import BufferPool
from repro.runtime.interpreter import ExecutionResult, Interpreter
from repro.runtime.kernels import ELEMENTWISE_BINARY, KERNELS, execute_kernel
from repro.runtime.matrix import MatrixObject
from tests.compiler.test_scalar_semantics import numbers

SAMPLE_CAP = 8

#: attrs the plan generator gives these opcodes
ATTRS = {
    "rand": {"params": ["rows", "cols", "min", "max"], "gen": "rand",
             "builtin": "rand"},
    "seq": {"params": ["from", "to", "incr"], "gen": "seq", "builtin": "seq"},
    "rix": {"all_rows": False, "all_cols": True},
    "lix": {"all_rows": False, "all_cols": False},
    "mapmmchain": {"chain": "XtXv"},
    "rmempty": {"margin": "rows"},
}

MATRIX_UNARY = (
    "ucumk+", "rmempty", "r'", "rdiag", "castdts", "nrow", "ncol", "length",
    "tsmm", "ua+", "uamean", "uamax", "uamin", "uatrace", "uar+", "uarmean",
    "uarmax", "uarmin", "uarimax", "uac+", "uacmean", "uacmax", "uacmin",
)
SCALAR_ONLY = ("castvtd", "castvti", "castvtb", "castdtm")
ELEMENTWISE_UNARY = tuple(
    op for op in KERNELS
    if op not in ELEMENTWISE_BINARY and op not in MATRIX_UNARY
    and op not in SCALAR_ONLY and KERNELS[op] is KERNELS["exp"]
)

cells = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    data = np.array(
        draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)),
        dtype=float,
    ).reshape(rows, cols)
    scale = draw(st.sampled_from([1, 3]))
    return MatrixObject.from_sample(data, rows * scale, cols)


@st.composite
def operands(draw, opcode):
    """Operands the plan generator could hand ``opcode``."""
    if opcode in ELEMENTWISE_BINARY:
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        side = st.one_of(numbers, matrices(rows, cols))
        return [draw(side), draw(side)]
    if opcode in ELEMENTWISE_UNARY:
        return [draw(st.one_of(numbers, matrices()))]
    if opcode in SCALAR_ONLY:
        return [draw(numbers)]
    if opcode in MATRIX_UNARY:
        if opcode == "rdiag":
            n = draw(st.integers(1, 3))
            return [draw(st.one_of(matrices(n, n), matrices(n, 1)))]
        return [draw(matrices())]
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    index = st.integers(1, 4)
    if opcode == "ba+*":
        return [draw(matrices(n, k)), draw(matrices(k, m))]
    if opcode == "mapmmchain":
        x = draw(matrices(n, k))
        v = MatrixObject.from_sample(np.ones((k, 1)))
        return [x, v]
    if opcode == "tak+*":
        return [draw(matrices(n, 1)) for _ in range(3)]
    if opcode == "rix":
        return [draw(matrices()), draw(index), draw(index), 1, 1]
    if opcode == "lix":
        return [draw(matrices(3, 3)), draw(matrices(2, 2)), draw(index),
                draw(index), draw(index), draw(index)]
    if opcode == "rand":
        return [draw(st.integers(0, 12)), draw(st.integers(0, 12)),
                draw(st.sampled_from([0.0, 1.0])), 1.0]
    if opcode == "seq":
        return [1, draw(st.integers(1, 20)), draw(st.sampled_from([1, 2]))]
    if opcode == "ctable":
        labels = np.array([[draw(st.integers(1, 3))] for _ in range(n)])
        return [MatrixObject.from_sample(np.arange(1.0, n + 1).reshape(-1, 1)),
                MatrixObject.from_sample(labels.astype(float))]
    if opcode in ("cbind", "rbind"):
        return [draw(matrices(n, k)), draw(matrices(n, k))]
    if opcode == "solve":
        a = np.eye(n) * draw(st.sampled_from([1.0, 2.0])) + 0.1
        return [MatrixObject.from_sample(a), draw(matrices(n, 1))]
    raise AssertionError(f"no operands for {opcode!r}")


class Recorder:
    enabled = True

    def __init__(self):
        self.samples = []

    def add(self, *sample):
        self.samples.append(sample)


def interpret(ins, frame):
    """Run one instruction as a run would: fresh result, pool and rng."""
    collector = Recorder()
    interp = Interpreter(paper_cluster(), sample_cap=SAMPLE_CAP,
                         collector=collector)
    interp.result = ExecutionResult()
    interp.pool = BufferPool(1 << 40, interp.params, interp.charge,
                             collector=collector)
    interp.rng = np.random.default_rng(3)
    interp._frames = [frame]
    interp._exec_cp(ins, frame)
    return frame[ins.output], interp.result.breakdown, collector.samples


def assert_same_value(ran, expected_kind, expected, expected_mc):
    if expected_kind == "matrix":
        assert isinstance(ran, MatrixObject)
        assert ran.mc == expected_mc
        np.testing.assert_array_equal(ran.data, expected)
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(ran)
    else:
        assert type(ran) is type(expected) and repr(ran) == repr(expected)


class TestOneInstructionPlans:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), opcode=st.sampled_from(sorted(KERNELS)))
    def test_bound_instruction_equals_kernel_and_flops(self, data, opcode):
        values = data.draw(operands(opcode))
        attrs = ATTRS.get(opcode, {})
        names = [f"in{i}" for i in range(len(values))]
        ins = CPInstruction(
            opcode=opcode, inputs=[Operand(name=n) for n in names],
            output="_mVar1", attrs=attrs,
        )
        try:
            kind, payload, mc = execute_kernel(
                opcode, list(values), attrs, np.random.default_rng(3),
                SAMPLE_CAP,
            )
        except ExecutionError as exc:
            with pytest.raises(ExecutionError) as ran:
                interpret(ins, dict(zip(names, values)))
            assert str(ran.value) == str(exc)
            return
        flops = operation_flops(
            opcode, mc if mc is not None else MatrixCharacteristics(0, 0, 0),
            [v.mc for v in values if isinstance(v, MatrixObject)], attrs,
        )
        seconds = flops / DEFAULT_PARAMETERS.cp_flops
        ran, breakdown, samples = interpret(ins, dict(zip(names, values)))
        assert_same_value(ran, kind, payload, mc)
        assert breakdown == {"cp_compute": seconds}
        assert samples == [("cp_compute", flops, seconds)]

    def test_literal_operands_and_undefined_variables(self):
        ins = CPInstruction(
            opcode="+", inputs=[Operand(literal=2), Operand(name="x")],
            output="_mVar1",
        )
        assert interpret(ins, {"x": 3})[0] == 5
        with pytest.raises(ExecutionError, match="undefined variable 'x'"):
            interpret(ins, {})

    def test_an_unknown_opcode_fails_when_it_runs(self):
        ins = CPInstruction(opcode="nope", inputs=[], output="_mVar1")
        with pytest.raises(ExecutionError, match="no kernel for opcode"):
            interpret(ins, {})


XS_PROGRAMS = [
    (script, cols)
    for script in ("LinregDS", "LinregCG", "L2SVM", "MLogreg", "GLM",
                   "KMeans", "PCA")
    for cols in (100, 1000)
]


class SweepChecker(Interpreter):
    """Checks the rmvar sweep after every block it runs."""

    sweeps = 0

    def _cleanup_temps(self, frame, kill):
        super()._cleanup_temps(frame, kill)
        SweepChecker.sweeps += 1
        swept = self._frames if frame is self._frames[0] else [frame]
        for checked in swept:
            left = [name for name in checked if name.startswith("_mVar")]
            assert not left, f"temporaries {left} outlived their block"
        referenced = {
            id(value)
            for any_frame in self._frames
            for value in any_frame.values()
            if isinstance(value, MatrixObject) and value.in_memory
        }
        assert set(self.pool._entries) == referenced


class TestSweep:
    @pytest.mark.parametrize("script,cols", XS_PROGRAMS)
    def test_every_block_sweeps_its_temporaries(self, monkeypatch, script,
                                                cols):
        monkeypatch.setattr(pipeline_mod, "Interpreter", SweepChecker)
        SweepChecker.sweeps = 0
        session = ElasticMLSession(sample_cap=64, seed=7)
        args = prepare_inputs(session.hdfs, script, scenario("XS", cols=cols))
        session.run(script, args)
        assert SweepChecker.sweeps > 0


class TestTracedCounters:
    def test_linregcg_xs_counts_what_it_counted(self):
        session = ElasticMLSession(sample_cap=64, seed=7, trace=True)
        args = prepare_inputs(session.hdfs, "LinregCG",
                              scenario("XS", cols=100))
        trace = session.run("LinregCG", args).trace
        assert trace.counter("bufferpool.hits") == 129
        assert trace.counter("bufferpool.misses") == 2
        assert trace.counter("runtime.cp_instructions") == 217
