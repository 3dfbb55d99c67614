"""Unit tests for HOP DAG infrastructure (traversal, parents, explain)."""

from repro.common import DataType
from repro.compiler import hops as H


def small_dag():
    """X -> t(X) -> t(X)%*%X -> sum; plus a literal-scaled branch."""
    x = H.DataOp(H.DataOpKind.TRANSIENT_READ, "X")
    t = H.ReorgOp(H.OpCode.TRANSPOSE, x)
    mm = H.AggBinaryOp(t, x)
    s = H.AggUnaryOp(H.OpCode.SUM, H.AggDirection.ALL, mm)
    two = H.LiteralOp(2)
    scaled = H.BinaryOp(H.OpCode.MULT, mm, two)
    w1 = H.DataOp(H.DataOpKind.TRANSIENT_WRITE, "s", inputs=[s],
                  data_type=DataType.SCALAR)
    w2 = H.DataOp(H.DataOpKind.TRANSIENT_WRITE, "Z", inputs=[scaled])
    return [w1, w2], {"x": x, "t": t, "mm": mm, "s": s, "scaled": scaled}


class TestTraversal:
    def test_post_order_inputs_first(self):
        roots, nodes = small_dag()
        order = H.iter_dag(roots)
        position = {hop.hop_id: i for i, hop in enumerate(order)}
        for hop in order:
            for inp in hop.inputs:
                assert position[inp.hop_id] < position[hop.hop_id]

    def test_each_hop_once(self):
        roots, nodes = small_dag()
        order = H.iter_dag(roots)
        ids = [hop.hop_id for hop in order]
        assert len(ids) == len(set(ids))
        # the shared mm node appears once despite two consumers
        assert ids.count(nodes["mm"].hop_id) == 1

    def test_parent_map(self):
        roots, nodes = small_dag()
        parents = H.build_parent_map(roots)
        mm_parents = parents[nodes["mm"].hop_id]
        assert len(mm_parents) == 2
        assert not parents[roots[0].hop_id]

    def test_replace_input(self):
        roots, nodes = small_dag()
        new_x = H.DataOp(H.DataOpKind.TRANSIENT_READ, "Y")
        nodes["mm"].replace_input(nodes["x"], new_x)
        assert nodes["mm"].inputs[1] is new_x
        assert nodes["t"].inputs[0] is nodes["x"]  # untouched elsewhere


class TestNodeBasics:
    def test_unique_ids(self):
        a = H.LiteralOp(1)
        b = H.LiteralOp(1)
        assert a.hop_id != b.hop_id

    def test_literal_value_types(self):
        from repro.common import ValueType

        assert H.LiteralOp(True).value_type is ValueType.BOOLEAN
        assert H.LiteralOp(3).value_type is ValueType.INT64
        assert H.LiteralOp(3.5).value_type is ValueType.FP64
        assert H.LiteralOp("x").value_type is ValueType.STRING

    def test_dataop_read_write_predicates(self):
        read = H.DataOp(H.DataOpKind.PERSISTENT_READ, "f")
        write = H.DataOp(H.DataOpKind.TRANSIENT_WRITE, "v",
                         inputs=[H.LiteralOp(1)])
        assert read.is_read and not read.is_write
        assert write.is_write and not write.is_read

    def test_binary_shape_predicates(self):
        x = H.DataOp(H.DataOpKind.TRANSIENT_READ, "X")
        lit = H.LiteralOp(2)
        mm = H.BinaryOp(H.OpCode.MULT, x, x)
        ms = H.BinaryOp(H.OpCode.MULT, x, lit)
        assert mm.is_matrix_matrix
        assert not ms.is_matrix_matrix

    def test_explain_renders_all_nodes(self):
        roots, nodes = small_dag()
        text = H.explain(roots)
        assert "ba(+*)" in text
        assert "tread:X" in text
        assert text.count("\n") + 1 == len(H.iter_dag(roots))

    def test_agg_opcode_strings(self):
        x = H.DataOp(H.DataOpKind.TRANSIENT_READ, "X")
        assert H.AggUnaryOp(
            H.OpCode.SUM, H.AggDirection.ROW, x
        ).opcode_str() == "uarsum"
        assert H.AggUnaryOp(
            H.OpCode.SUM, H.AggDirection.ALL, x
        ).opcode_str() == "uasum"
