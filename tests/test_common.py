"""Unit tests for shared core types (repro.common)."""

import math

import pytest

from repro.common import (
    FileFormat,
    MatrixCharacteristics,
    SPARSE_THRESHOLD,
    binary_nnz_estimate,
    estimate_matrix_memory,
    estimate_serialized_size,
    is_sparse_representation,
    mult_nnz_estimate,
)


class TestRepresentationChoice:
    def test_dense_above_threshold(self):
        assert not is_sparse_representation(0.9, 100)

    def test_sparse_below_threshold(self):
        assert is_sparse_representation(0.01, 100)

    def test_vectors_always_dense(self):
        assert not is_sparse_representation(0.01, 1)

    def test_unknown_sparsity_dense(self):
        assert not is_sparse_representation(None, 100)

    def test_threshold_boundary(self):
        assert not is_sparse_representation(SPARSE_THRESHOLD, 100)
        assert is_sparse_representation(SPARSE_THRESHOLD - 1e-9, 100)


class TestMemoryEstimates:
    def test_dense_eight_bytes_per_cell(self):
        est = estimate_matrix_memory(1000, 1000, 1.0)
        assert est == pytest.approx(8 * 10**6, rel=0.01)

    def test_sparse_smaller(self):
        assert estimate_matrix_memory(10**5, 1000, 0.01) < (
            estimate_matrix_memory(10**5, 1000, 1.0)
        )

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            estimate_matrix_memory(-1, 10)

    def test_serialized_text_more_expensive(self):
        binary = estimate_serialized_size(1000, 100, 1.0,
                                          FileFormat.BINARY_BLOCK)
        csv = estimate_serialized_size(1000, 100, 1.0, FileFormat.CSV)
        assert csv > binary

    def test_serialized_unknown_infinite(self):
        assert estimate_serialized_size(None, 10) == math.inf


class TestMatrixCharacteristics:
    def test_dims_known_predicates(self):
        assert not MatrixCharacteristics(3, None).dims_known
        assert MatrixCharacteristics(3, 4).dims_known
        assert not MatrixCharacteristics(3, 4).nnz_known

    def test_sparsity_clamped(self):
        mc = MatrixCharacteristics(2, 2, 100)  # inconsistent nnz
        assert mc.sparsity == 1.0

    def test_empty_matrix_sparsity(self):
        assert MatrixCharacteristics(0, 5, 0).sparsity == 1.0

    def test_same_dims(self):
        a = MatrixCharacteristics(3, 4, 5)
        b = MatrixCharacteristics(3, 4, 12)
        c = MatrixCharacteristics(4, 3, 5)
        assert a.same_dims(b)
        assert not a.same_dims(c)
        assert not a.same_dims(MatrixCharacteristics(None, 4))

    def test_copy_independent(self):
        a = MatrixCharacteristics(3, 4, 5)
        b = a.copy()
        b.rows = 99
        assert a.rows == 3

    def test_str_rendering(self):
        assert str(MatrixCharacteristics(3, None, 5)) == "[3 x ?, nnz=5]"


class TestNnzEstimators:
    def test_mult_unknown_inputs(self):
        assert mult_nnz_estimate(
            MatrixCharacteristics(None, 3), MatrixCharacteristics(3, 2, 6)
        ) is None

    def test_mult_zero_common_dim(self):
        assert mult_nnz_estimate(
            MatrixCharacteristics(3, 0, 0), MatrixCharacteristics(0, 2, 0)
        ) == 0

    def test_mult_dense_inputs_dense_output(self):
        out = mult_nnz_estimate(
            MatrixCharacteristics(10, 10, 100),
            MatrixCharacteristics(10, 10, 100),
        )
        assert out == 100

    def test_binary_unknown_nnz_falls_back_to_cells(self):
        left = MatrixCharacteristics(10, 10, None)
        right = MatrixCharacteristics(10, 10, 5)
        assert binary_nnz_estimate(True, left, right) == 100
