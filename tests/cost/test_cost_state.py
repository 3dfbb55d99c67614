"""Unit tests for cost-state tracking (variable residency/merging)."""

import pytest

from repro.cluster import ResourceConfig, paper_cluster
from repro.common import FileFormat, MatrixCharacteristics
from repro.cost.model import CostModel, CostState, VarCostState


def state_of(rows=1000, cols=100, in_memory=False, dirty=False):
    return VarCostState(
        MatrixCharacteristics(rows, cols, rows * cols), in_memory, dirty
    )


class TestVarCostState:
    def test_walk_shares_characteristics_and_never_writes_them(self):
        """States share the instructions' characteristics instead of
        copying them, which is sound because the walk never writes one:
        every ``out_mc`` / ``in_mcs`` / step ``out_mc`` of the plans is
        field-for-field what it was, and every cached size is still the
        estimate of the characteristics it was taken from."""
        from repro import prepare_inputs, scenario
        from repro.compiler import compile_program
        from repro.compiler.runtime_prog import MRJobInstruction
        from repro.runtime import SimulatedHDFS
        from repro.scripts import load_script

        def characteristics(compiled):
            for block in compiled.last_level_blocks():
                for ins in block.plan.instructions if block.plan else ():
                    if isinstance(ins, MRJobInstruction):
                        for step in ins.steps:
                            yield step.out_mc
                            yield from step.in_mcs
                    else:
                        yield ins.out_mc
                        yield from ins.in_mcs

        rc = ResourceConfig(2048, 1024)
        for script in ("GLM", "MLogreg"):
            hdfs = SimulatedHDFS(sample_cap=64)
            args = prepare_inputs(hdfs, script, scenario("M", cols=1000))
            compiled = compile_program(
                load_script(script), args, hdfs.input_meta(), rc
            )
            model = CostModel(paper_cluster(), exclude_provisional=False)
            before = [
                (mc, (mc.rows, mc.cols, mc.nnz))
                for mc in characteristics(compiled)
            ]
            assert before
            model.estimate_program(compiled, rc)
            state = CostState()
            model._cost_blocks(compiled.blocks, rc, state, compiled, set())
            assert [mc for mc, _ in before] == list(characteristics(compiled))
            for mc, fields in before:
                assert (mc.rows, mc.cols, mc.nnz) == fields
            shared = {id(mc) for mc, _ in before}
            assert any(id(v.mc) in shared for v in state.values())
            for vstate in state.values():
                assert vstate.size == vstate.mc.memory_estimate()

    def test_default_format(self):
        assert state_of().fmt is FileFormat.BINARY_BLOCK


class TestCostStateMerge:
    def test_in_memory_requires_both_branches(self):
        left = CostState({"X": state_of(in_memory=True)})
        right = CostState({"X": state_of(in_memory=False)})
        merged = left.merge_with(right)
        assert not merged["X"].in_memory

    def test_dirty_if_either_branch(self):
        left = CostState({"X": state_of(dirty=False)})
        right = CostState({"X": state_of(dirty=True)})
        merged = left.merge_with(right)
        assert merged["X"].dirty

    def test_one_sided_variables_kept(self):
        left = CostState({"X": state_of()})
        right = CostState({"Y": state_of()})
        merged = left.merge_with(right)
        assert set(merged) == {"X", "Y"}

    def test_copy_independent(self):
        original = CostState({"X": state_of(in_memory=True)})
        clone = original.copy()
        clone["X"].in_memory = False
        assert original["X"].in_memory


class TestWorkingSetApproximation:
    def make_model(self):
        return CostModel(paper_cluster())

    def test_oversized_output_not_retained(self):
        from repro.compiler.runtime_prog import CPInstruction, Operand

        model = self.make_model()
        rc = ResourceConfig(512, 512)  # 358 MB budget
        state = CostState()
        big = MatrixCharacteristics(10**6, 100, 10**8)  # 800 MB output
        ins = CPInstruction(
            opcode="abs", inputs=[Operand(name="X")], output="_t1",
            out_mc=big, in_mcs=[big], out_is_matrix=True,
        )
        state["X"] = VarCostState(big, in_memory=False, dirty=False)
        model._cost_cp(ins, rc, state)
        assert not state["_t1"].in_memory

    def test_working_set_pressure_drops_oldest(self):
        from repro.compiler.runtime_prog import CPInstruction, Operand

        model = self.make_model()
        rc = ResourceConfig(1024, 512)  # ~717 MB budget
        state = CostState()
        mc = MatrixCharacteristics(10**6, 50, 5 * 10**7)  # 400 MB each
        for idx in range(3):
            ins = CPInstruction(
                opcode="abs", inputs=[Operand(name=f"in{idx}")],
                output=f"out{idx}", out_mc=mc, in_mcs=[mc],
                out_is_matrix=True,
            )
            state[f"in{idx}"] = VarCostState(mc, in_memory=True, dirty=False)
            model._cost_cp(ins, rc, state)
        resident = sum(
            1 for v in state.values() if v.in_memory
        )
        # 6 x 400 MB cannot be resident in a 717 MB budget
        assert resident <= 2

    def test_rereading_charged_after_drop(self):
        """A matrix exceeding the budget is re-read on each access."""
        from repro.compiler.runtime_prog import CPInstruction, Operand

        model = self.make_model()
        rc = ResourceConfig(512, 512)
        state = CostState()
        big = MatrixCharacteristics(10**6, 100, 10**8)
        state["X"] = VarCostState(big, in_memory=False, dirty=False)
        ins = CPInstruction(
            opcode="uamax", inputs=[Operand(name="X")], output="m",
            out_mc=MatrixCharacteristics(0, 0, 0), in_mcs=[big],
        )
        first = model._cost_cp(ins, rc, state)
        second = model._cost_cp(ins, rc, state)
        assert first == pytest.approx(second)
        assert first > 1.0  # dominated by the 800 MB read
