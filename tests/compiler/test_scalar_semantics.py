"""One scalar semantics: the constant folder computes with the runtime's
operator definitions, so a folded constant equals what the interpreter
computes, and the folder has no value exactly where a run fails."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ElasticMLSession
from repro.common import SCALAR_UNARY
from repro.compiler import compile_program
from repro.compiler import hops as H
from repro.compiler.size_propagation import fold_scalar
from repro.errors import ExecutionError
from repro.runtime.kernels import execute_kernel
from repro.tools.explain import explain_program

BINARY_OPS = [
    H.OpCode.PLUS, H.OpCode.MINUS, H.OpCode.MULT, H.OpCode.DIV,
    H.OpCode.POW, H.OpCode.MOD, H.OpCode.INTDIV, H.OpCode.MIN,
    H.OpCode.MAX, H.OpCode.EQ, H.OpCode.NEQ, H.OpCode.LT, H.OpCode.LE,
    H.OpCode.GT, H.OpCode.GE, H.OpCode.AND, H.OpCode.OR,
]
UNARY_OPS = [H.OpCode(opcode) for opcode in SCALAR_UNARY]

# small ints keep int ** int cheap; the edge floats are the ones where
# display, overflow and signed zero differ between naive copies
numbers = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e16, -1e16, 1e308, -1e308, -0.0, 0.0, 0, 1, 0.5]),
    st.booleans(),
)
concat_operands = st.one_of(numbers, st.text(max_size=4))


def run_kernel(opcode, *args):
    """The runtime's scalar result, or None where it raises typed."""
    try:
        kind, value, _ = execute_kernel(opcode, list(args))
    except ExecutionError:
        return None
    assert kind == "scalar"
    return value


def assert_same(folded, ran):
    assert type(folded) is type(ran)
    if isinstance(ran, float) and math.isnan(ran):
        assert math.isnan(folded)
    else:
        assert repr(folded) == repr(ran)


class TestFoldEqualsRun:
    def test_every_opcode_is_a_runtime_opcode(self):
        for op in BINARY_OPS + UNARY_OPS:
            assert execute_kernel(op.value, [1] * (2 if op in BINARY_OPS else 1))

    def test_unknown_binary_opcode_has_no_value(self):
        assert fold_scalar(H.OpCode.SOLVE, 1, 2) is None

    @settings(max_examples=400, deadline=None)
    @given(op=st.sampled_from(BINARY_OPS), a=numbers, b=numbers)
    def test_binary(self, op, a, b):
        assert_same(fold_scalar(op, a, b), run_kernel(op.value, a, b))

    @settings(max_examples=200, deadline=None)
    @given(a=concat_operands, b=concat_operands)
    def test_concat(self, a, b):
        op = H.OpCode.PLUS
        assert_same(fold_scalar(op, a, b), run_kernel(op.value, a, b))

    @settings(max_examples=300, deadline=None)
    @given(op=st.sampled_from(UNARY_OPS), a=numbers)
    def test_unary(self, op, a):
        assert_same(fold_scalar(op, a), run_kernel(op.value, a))

    def test_failures_are_typed_and_fold_to_none(self):
        for op, args in [
            (H.OpCode.DIV, (1, 0.0)),
            (H.OpCode.POW, (10.0, 400)),
            (H.OpCode.LOG, (0.0,)),
            (H.OpCode.CAST_AS_INT, (math.inf,)),
        ]:
            assert fold_scalar(op, *args) is None
            assert run_kernel(op.value, *args) is None


class TestFoldScalar:
    def test_fold_scalar_binary_coverage(self):
        assert fold_scalar(H.OpCode.MIN, 2, 5) == 2
        assert fold_scalar(H.OpCode.POW, 2, 3) == 8
        assert fold_scalar(H.OpCode.AND, True, False) is False
        assert fold_scalar(H.OpCode.LE, 2, 2) is True

    def test_fold_scalar_unary_coverage(self):
        assert fold_scalar(H.OpCode.NEG, 3) == -3
        assert fold_scalar(H.OpCode.SQRT, 16) == 4
        assert fold_scalar(H.OpCode.SIGN, -2) == -1
        assert fold_scalar(H.OpCode.LOG, -1) is None


class TestFoldedAndComputedPrintsAgree:
    FOLDED = 'x = 1e16\nprint("x=" + x)'
    COMPUTED = 'x = 1.0\nfor (i in 1:16) {\n  x = x * 10\n}\nprint("x=" + x)'

    def test_folded_print_is_a_literal(self):
        text = explain_program(compile_program(self.FOLDED, {}, {}),
                               level="runtime")
        assert "CP print [lit('x=1e+16')]" in text

    def test_same_line(self):
        session = ElasticMLSession(sample_cap=32)
        folded = session.run(self.FOLDED, {}).prints
        computed = session.run(self.COMPUTED, {}).prints
        assert folded == computed == ["x=1e+16"]
