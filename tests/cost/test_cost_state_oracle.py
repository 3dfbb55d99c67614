"""Exactness oracle for the incremental cost state.

``CostState`` keeps a running total of the resident working set so that
``CostModel._balance_pool`` can skip its re-sum; the claim is that no
cost, no eviction and no dict order moves by a bit.  The oracle here is
the walk as it was before that change — a plain-dict state whose fork
and merge copy every entry, and the old ``_balance_pool`` verbatim,
re-summing ``memory_estimate()`` of every resident variable after every
instruction.  Both walks are driven over the same generated instruction
streams and compared after every instruction.
"""

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import MatrixCharacteristics
from repro.compiler import statement_blocks as SB
from repro.compiler.lops import JobType, Phase
from repro.compiler.runtime_prog import (
    BlockPlan,
    CPInstruction,
    MRJobInstruction,
    MRStep,
    Operand,
    PredicatePlan,
)
from repro.cost import model as model_mod
from repro.cost.model import CostModel, CostState, VarCostState

SETTINGS = settings(deadline=None, derandomize=True, max_examples=200)


# -- the oracle ----------------------------------------------------------------


def _old_copy(vstate):
    """``VarCostState.copy`` as it was: the characteristics copied too."""
    return VarCostState(
        vstate.mc.copy(), vstate.in_memory, vstate.dirty, vstate.fmt
    )


class OracleState(dict):
    """The pre-incremental ``CostState``: a plain mapping."""

    def copy(self):
        return OracleState({k: _old_copy(v) for k, v in self.items()})

    def merge_with(self, other):
        merged = OracleState()
        for name, state in self.items():
            o = other.get(name)
            if o is None:
                merged[name] = _old_copy(state)
                continue
            m = _old_copy(state)
            m.in_memory = state.in_memory and o.in_memory
            m.dirty = state.dirty or o.dirty
            merged[name] = m
        for name, o in other.items():
            if name not in self:
                merged[name] = _old_copy(o)
        return merged

    def adopt(self, other):
        self.clear()
        self.update(other)

    def set_in_memory(self, vstate, in_memory):
        vstate.in_memory = in_memory


def _oracle_balance_pool(self, state, resource, pinned):
    """``CostModel._balance_pool`` before the running total, verbatim."""
    budget = resource.cp_budget_bytes
    live = []
    seen = set()
    total = 0.0
    for name in state:
        vstate = state[name]
        if id(vstate) in seen or not vstate.in_memory:
            continue
        seen.add(id(vstate))
        size = vstate.mc.memory_estimate()
        if math.isfinite(size):
            live.append((vstate, size))
            total += size
    if total <= budget:
        return
    pinned_ids = {id(v) for v in pinned}
    # evict insertion-ordered (oldest first), keeping current operands
    for vstate, size in live:
        if total <= budget:
            break
        if id(vstate) in pinned_ids:
            continue
        vstate.in_memory = False
        total -= size


@contextlib.contextmanager
def oracle_walk():
    """Every cost walk inside runs the oracle: any ``CostModel``, so the
    optimizer, the session and runtime re-optimization included.

    The reference must be a walk, never an answer: the oracle body reads
    the budget without ``CostModel._holds``, so the interval it would
    leave behind is too wide, and nothing is recalled from the memo."""
    with mock.patch.object(model_mod, "CostState", OracleState), \
            mock.patch.object(CostModel, "_balance_pool",
                              _oracle_balance_pool), \
            mock.patch.object(CostModel, "_recall",
                              lambda self, key, resource: None):
        yield


# -- driving a walk and watching it --------------------------------------------


def resummed(state):
    """The sum ``_balance_pool`` computes, as the oracle computes it."""
    seen = set()
    total = 0.0
    for vstate in state.values():
        if id(vstate) in seen or not vstate.in_memory:
            continue
        seen.add(id(vstate))
        size = vstate.mc.memory_estimate()
        if math.isfinite(size):
            total += size
    return total


def assert_within_slack(state):
    gap = abs(Fraction(state.total) - Fraction(resummed(state)))
    slack = state.slack()
    assert math.isinf(slack) or gap <= Fraction(slack), (
        f"running {state.total!r} vs re-summed {resummed(state)!r}: "
        f"gap {float(gap)!r} > declared slack {slack!r}"
    )


class Watched(CostModel):
    """Logs, after every instruction, its cost and every name's
    ``(in_memory, dirty)`` in dict order; on the incremental state it
    also checks the declared slack and the cached sizes."""

    def __init__(self):
        super().__init__(paper_cluster())
        self.log = []

    def _watch(self, cost, state):
        self.log.append((
            cost.hex(),
            [(name, v.in_memory, v.dirty) for name, v in state.items()],
        ))
        if isinstance(state, CostState):
            assert_within_slack(state)
            for vstate in state.values():
                assert vstate.size == vstate.mc.memory_estimate()
        return cost

    def _cost_cp(self, ins, resource, state):
        return self._watch(super()._cost_cp(ins, resource, state), state)

    def _cost_mr_job(self, job, resource, state):
        return self._watch(super()._cost_mr_job(job, resource, state), state)


@dataclass
class Budget(ResourceConfig):
    """A resource whose CP budget is any float, to the ulp."""

    budget: float = 0.0

    @property
    def cp_budget_bytes(self):
        return self.budget


def walk(blocks, budget, oracle=False):
    """(total cost, per-instruction log, final state) of one walk."""
    model = Watched()
    resource = Budget(2048, 1024, budget=budget)
    if oracle:
        state = OracleState()
        with oracle_walk():
            cost = model._cost_blocks(blocks, resource, state, None, set())
    else:
        state = CostState()
        cost = model._cost_blocks(blocks, resource, state, None, set())
    return cost, model.log, state


def assert_walks_agree(blocks, budget):
    cost, log, state = walk(blocks, budget)
    oracle_cost, oracle_log, oracle_state = walk(blocks, budget, oracle=True)
    assert log == oracle_log
    assert cost.hex() == oracle_cost.hex()
    assert list(state) == list(oracle_state)
    assert_within_slack(state)
    return log


def resident_totals(blocks, budget):
    """The re-summed resident total after every instruction of a walk."""
    totals = []

    class Totals(Watched):
        def _watch(self, cost, state):
            totals.append(resummed(state))
            return cost

    model = Totals()
    model._cost_blocks(
        blocks, Budget(2048, 1024, budget=budget), CostState(), None, set()
    )
    return totals


def nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


# -- program construction ------------------------------------------------------


def generic(*instructions):
    block = SB.GenericBlock()
    block.plan = BlockPlan(
        instructions=list(instructions),
        num_mr_jobs=sum(
            isinstance(i, MRJobInstruction) for i in instructions
        ),
    )
    return block


def holder(*instructions):
    pred = SB.PredicateHolder()
    pred.plan = PredicatePlan(instructions=list(instructions))
    return pred


def op(opcode, inputs, output, out_mc, in_mcs=None, **attrs):
    in_mcs = [out_mc] * len(inputs) if in_mcs is None else in_mcs
    return CPInstruction(
        opcode=opcode, inputs=[Operand(name=n) for n in inputs],
        output=output, out_mc=out_mc, in_mcs=in_mcs, attrs=attrs,
    )


def dense(rows, cols):
    return MatrixCharacteristics(rows, cols, rows * cols)


def sparse(rows, cols, nnz):
    """Sparse layout: 44 + rows*cols*(nnz/cells)*16 + rows*4 bytes, a
    float.  An integer ``nnz`` puts it within an ulp or two of an
    integer; a fractional one (a scaled sample count) anywhere."""
    mc = MatrixCharacteristics(rows, cols, nnz)
    assert mc.sparsity < 0.4 and cols > 1
    return mc


TB = 1 << 40

# -- strategies ----------------------------------------------------------------

NAMES = [f"v{i}" for i in range(7)]
names = st.sampled_from(NAMES)

dense_mcs = st.builds(dense, st.integers(1, 3000), st.integers(1, 300))
sparse_mcs = st.builds(
    lambda rows, cols, frac, whole: sparse(
        rows, cols,
        int(rows * cols * frac) if whole else rows * cols * frac,
    ),
    st.integers(2, 5000), st.integers(2, 500),
    st.floats(0.0, 0.39), st.booleans(),
)
unknown_mcs = st.sampled_from([
    MatrixCharacteristics.unknown(),
    MatrixCharacteristics(1000, None, None),
    MatrixCharacteristics(200, 30, None),  # nnz unknown: costed dense
])
#: at least a terabyte, dense (an int) or sparse (a float)
huge_mcs = st.one_of(
    st.builds(dense, st.integers(10**6, 10**7), st.integers(10**6, 10**7)),
    st.builds(
        lambda rows, nnz: sparse(rows, 10**7, nnz),
        st.integers(10**6, 10**7), st.integers(10**11, 10**12),
    ),
)
mcs = st.one_of(dense_mcs, sparse_mcs, sparse_mcs, unknown_mcs)


@st.composite
def cp_instructions(draw):
    kind = draw(st.sampled_from([
        "createvar", "mvvar", "ghost", "write", "op", "op", "op", "op",
    ]))
    out = draw(names)
    mc = draw(mcs)
    if kind == "createvar":
        fmt = draw(st.sampled_from(["binary", "csv"]))
        return CPInstruction(
            opcode="createvar", output=out, out_mc=mc, attrs={"format": fmt}
        )
    if kind == "mvvar":  # alias, or re-alias, an existing name
        return op("mvvar", [draw(names)], out, mc)
    if kind == "ghost":
        # mvvar from a name no state knows: resident whatever its size,
        # which is how a terabyte gets counted under a megabyte budget
        return op("mvvar", ["ghost"], out, draw(st.one_of(mcs, huge_mcs)))
    if kind == "write":
        return op("write", [draw(names)], None, mc)
    count = draw(st.integers(1, 3))
    inputs = draw(st.lists(names, min_size=count, max_size=count))
    in_mcs = draw(st.lists(mcs, min_size=count, max_size=count))
    opcode = draw(st.sampled_from(["+", "abs", "exp", "ba+*", "uak+"]))
    return op(opcode, inputs, draw(st.one_of(st.none(), names)), mc, in_mcs)


@st.composite
def mr_jobs(draw):
    inputs = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    broadcasts = draw(st.lists(names, max_size=1))
    out = draw(names)
    operands = inputs + broadcasts
    step = MRStep(
        opcode=draw(st.sampled_from(["+", "ba+*", "uak+"])), method="map",
        phase=draw(st.sampled_from(list(Phase))),
        inputs=[Operand(name=n) for n in operands], output=out,
        out_mc=draw(mcs), in_mcs=[draw(mcs) for _ in operands],
    )
    return MRJobInstruction(
        job_type=JobType.GMR, steps=[step], input_vars=inputs,
        broadcast_vars=broadcasts,
        output_vars=[out] if draw(st.booleans()) else [],
    )


instruction_lists = st.lists(
    st.one_of(cp_instructions(), cp_instructions(), mr_jobs()),
    min_size=1, max_size=8,
)
predicates = st.builds(
    lambda instructions: holder(*instructions),
    st.lists(cp_instructions(), max_size=2),
)


def block_lists(depth):
    leaf = st.builds(lambda ins: generic(*ins), instruction_lists)
    if depth == 0:
        return st.lists(leaf, min_size=1, max_size=2)
    body = block_lists(depth - 1)
    nested = st.one_of(
        st.builds(
            lambda pred, then, orelse: SB.IfBlock(
                predicate=pred, body=then, else_body=orelse
            ),
            predicates, body, st.one_of(st.just([]), body),
        ),
        st.builds(
            lambda pred, loop: SB.WhileBlock(predicate=pred, body=loop),
            predicates, body,
        ),
        st.builds(
            lambda pred, loop, n: SB.ForBlock(
                from_holder=pred, to_holder=holder(), body=loop,
                known_iterations=n,
            ),
            predicates, body, st.sampled_from([None, 0, 1, 3]),
        ),
    )
    return st.lists(st.one_of(leaf, nested), min_size=1, max_size=3)


budgets = st.one_of(
    st.floats(1e4, 1e8),
    st.sampled_from([0.0, 1e12, float(4 * TB), math.inf]),
)


# -- the properties ------------------------------------------------------------


class TestGeneratedStreams:
    @SETTINGS
    @given(block_lists(2), budgets, st.booleans(), st.integers(0, 10**6),
           st.integers(-4, 4))
    def test_every_cost_and_every_flag_equal_the_oracle(
            self, blocks, budget, near, pick, ulps):
        if near:
            # put the budget within 4 ulp of a total the walk really sees
            totals = sorted({
                t for t in resident_totals(blocks, budget) if t > 0.0
            })
            if totals:
                budget = nudged(totals[pick % len(totals)], ulps)
        assert_walks_agree(blocks, budget)

    @SETTINGS
    @given(
        st.lists(sparse_mcs, min_size=3, max_size=12),
        st.integers(0, 10**6), st.integers(-4, 4),
        st.one_of(st.none(), huge_mcs),
    )
    def test_total_within_four_ulp_of_the_budget(self, outputs, pick, ulps,
                                                 huge):
        """Sparse (non-integer) sizes, made resident in another order
        than the dict holds them, so the running total and the re-sum
        round differently; the total only grows, so nothing is evicted
        before check ``pick`` — whose exact total is then ``ulps`` away
        from the budget.  With ``huge``, a terabyte is bound and rebound
        just before that check: it leaves an absolute error in the
        running total that dwarfs the total's own ulp."""
        count = len(outputs)
        stream = [
            CPInstruction(opcode="createvar", output=f"x{i}", out_mc=mc)
            for i, mc in enumerate(outputs)
        ] + [
            op("abs", [f"x{count - 1 - i}"], f"y{i}", mc)
            for i, mc in enumerate(outputs)
        ]
        totals = resident_totals([generic(*stream)], math.inf)
        assert totals == sorted(totals)
        at = count + pick % count
        if huge is not None:
            stream[at:at] = [
                op("mvvar", ["ghost"], "T", huge),
                CPInstruction(opcode="createvar", output="T",
                              out_mc=dense(1, 1)),
            ]
        log = assert_walks_agree([generic(*stream)], nudged(totals[at], ulps))
        assert len(log) == len(stream)


class TestSlackScalesWithThePeak:
    """The derivation in ``CostState.slack``, on the case that breaks a
    slack computed from what is resident *now*."""

    def test_terabyte_bound_then_rebound_leaves_an_error_the_slack_covers(
            self):
        state = CostState()
        small = [sparse(1000 + i, 37, 4001.37 + 13.11 * i) for i in range(9)]
        for i, mc in enumerate(small):
            state[f"s{i}"] = VarCostState(mc, in_memory=True)
        before = state.total
        state["T"] = VarCostState(dense(10**6, 10**6), in_memory=True)
        state["T"] = VarCostState(dense(1, 1))
        # the terabyte is gone and so are the low bits it rounded away
        gap = abs(state.total - resummed(state))
        assert gap > 4 * math.ulp(before)
        assert state.peak >= TB
        assert gap <= state.slack()
        assert_within_slack(state)

    def test_exact_path_re_anchors_the_total_and_the_peak(self):
        model = CostModel(paper_cluster())
        state = CostState()
        mc = sparse(3000, 41, 20011.3)
        for i in range(5):
            state[f"s{i}"] = VarCostState(mc, in_memory=True)
        state["T"] = VarCostState(dense(10**6, 10**6), in_memory=True)
        state["T"] = VarCostState(dense(1, 1))
        assert state.peak >= TB
        # a budget the resident set fits, too close for the slack
        budget = nudged(resummed(state), 1)
        model._balance_pool(state, Budget(2048, 1024, budget=budget), [])
        assert state.total == resummed(state)
        assert state.peak == state.total
        assert all(state[f"s{i}"].in_memory for i in range(5))

    def test_fast_path_leaves_the_state_alone(self):
        model = CostModel(paper_cluster())
        state = CostState()
        state["X"] = VarCostState(dense(100, 100), in_memory=True)
        ops = state.ops
        model._balance_pool(state, Budget(2048, 1024, budget=1e9), [])
        assert state.ops == ops  # no re-anchor: the O(1) return


class TestAliasReferenceCounts:
    def test_alias_is_counted_once_and_leaves_with_its_last_name(self):
        state = CostState()
        x = VarCostState(dense(100, 10), in_memory=True)
        state["X"] = x
        state["Y"] = x  # mvvar
        assert x.refs == 2
        assert state.total == x.size
        state["X"] = VarCostState(dense(1, 1))
        assert x.refs == 1 and state.total == x.size
        state["Y"] = VarCostState(dense(1, 1))
        assert x.refs == 0 and state.total == 0.0

    def test_rebinding_a_name_to_its_own_state_changes_nothing(self):
        state = CostState()
        x = VarCostState(dense(100, 10), in_memory=True)
        state["X"] = x
        state["X"] = x
        assert x.refs == 1 and state.total == x.size and state.ops == 1

    def test_unknown_sizes_are_never_counted(self):
        state = CostState()
        state["U"] = VarCostState(
            MatrixCharacteristics.unknown(), in_memory=True
        )
        assert state.total == 0.0 and state.ops == 0

    def test_set_in_memory_moves_the_total(self):
        state = CostState()
        x = VarCostState(dense(100, 10))
        state["X"] = x
        assert state.total == 0.0
        state.set_in_memory(x, True)
        assert state.total == x.size
        state.set_in_memory(x, True)  # no flip, no operation
        assert state.ops == 1
        state.set_in_memory(x, False)
        assert state.total == 0.0

    def test_unguarded_dict_mutators_are_fenced_off(self):
        state = CostState()
        for call in (
            state.clear,
            lambda: state.update({"X": VarCostState(dense(1, 1))}),
            lambda: state.pop("X", None),
            lambda: state.setdefault("X", VarCostState(dense(1, 1))),
        ):
            with pytest.raises(TypeError):
                call()


# -- the two preserved quirks, by name -----------------------------------------
#
# Both make the model price a working set larger than the real one.  They
# are priced into every checked-in result, so fixing either is a behaviour
# change that regenerates result files — and flips the test below.


class TestPreservedQuirks:
    MB400 = dense(10**6, 50)  # 400 MB

    def _aliased(self):
        """X resident under two names, and a budget that holds it twice
        only without anything else."""
        return [
            op("mvvar", ["ghost"], "X", self.MB400),
            op("mvvar", ["X"], "Y", self.MB400),
        ], 900e6

    def test_quirk_alias_split_by_branch_copy_is_counted_twice(self):
        setup, budget = self._aliased()
        touch = op("abs", ["small"], "z", dense(10**6, 20))  # 160 MB

        flat = [generic(*setup), generic(touch)]
        _, _, state = walk(flat, budget)
        assert state["X"] is state["Y"]
        assert state["X"].in_memory  # 400 + 160 + 160 MB fit

        forked = [generic(*setup), SB.IfBlock(
            predicate=holder(), body=[generic(touch)], else_body=[]
        )]
        _, _, state = walk(forked, budget)
        # the arm's copy made X and Y two states of 400 MB each: over
        # budget, so the older one was dropped, and stays dropped
        assert state["X"] is not state["Y"]
        assert not state["X"].in_memory and state["Y"].in_memory
        assert_walks_agree(forked, budget)

    def test_quirk_dead_temporary_stays_resident(self):
        blocks = [generic(
            op("mvvar", ["ghost"], "X", self.MB400),
            op("abs", ["X"], "_t1", self.MB400),
            op("abs", ["_t1"], "y", dense(1, 1)),
            # _t1 is never read again, yet holds 400 MB of the budget
            # and pushes the live X out
            op("abs", ["small"], "z", dense(10**6, 20)),
        )]
        _, _, state = walk(blocks, 900e6)
        assert "_t1" in state and state["_t1"].in_memory
        assert not state["X"].in_memory
        assert_walks_agree(blocks, 900e6)
