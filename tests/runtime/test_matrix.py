"""Unit tests for sample-backed matrix objects."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime.matrix import (
    DEFAULT_SAMPLE_CAP,
    MatrixObject,
    measure_nnz,
    sample_rows,
)


class TestSampling:
    def test_small_matrix_unsampled(self):
        assert sample_rows(100) == 100

    def test_large_matrix_capped(self):
        assert sample_rows(10**7) == DEFAULT_SAMPLE_CAP

    def test_custom_cap(self):
        assert sample_rows(1000, cap=64) == 64

    def test_generate_logical_vs_physical(self):
        obj = MatrixObject.generate(10**6, 10, sample_cap=128)
        assert obj.mc.rows == 10**6
        assert obj.data.shape == (128, 10)

    def test_generate_constant_matrix(self):
        obj = MatrixObject.generate(100, 5, min_value=3.0, max_value=3.0)
        assert np.all(obj.data == 3.0)
        assert obj.mc.nnz == 500

    def test_generate_zero_matrix(self):
        obj = MatrixObject.generate(100, 5, min_value=0.0, max_value=0.0)
        assert obj.mc.nnz == 0

    def test_generate_sparse(self):
        rng = np.random.default_rng(1)
        obj = MatrixObject.generate(10**5, 100, sparsity=0.01, rng=rng,
                                    sample_cap=512)
        density = np.count_nonzero(obj.data) / obj.data.size
        assert 0.005 < density < 0.02
        assert obj.mc.nnz == 10**5

    def test_generate_labels_contains_all_classes(self):
        obj = MatrixObject.generate_labels(10**5, 7, sample_cap=256)
        assert set(np.unique(obj.data)) == set(float(k) for k in range(1, 8))

    def test_labels_logical_shape(self):
        obj = MatrixObject.generate_labels(10**5, 2, sample_cap=64)
        assert (obj.mc.rows, obj.mc.cols) == (10**5, 1)
        assert obj.data.shape == (64, 1)


class TestNnzMeasurement:
    def test_dense_sample(self):
        data = np.ones((10, 10))
        assert measure_nnz(data, 1000) == 1000

    def test_half_sparse_sample(self):
        data = np.zeros((10, 10))
        data[:5, :] = 1.0
        assert measure_nnz(data, 1000) == 500

    def test_empty_sample(self):
        assert measure_nnz(np.zeros((0, 1)), 0) == 0

    def test_mc_and_memory_size_fixed_at_construction(self):
        """Replaces ``test_refresh_nnz``: nnz is measured when an object
        is built and nothing re-measures it in place — a runtime ``mc``
        is immutable, so ``memory_size`` is computed once."""
        obj = MatrixObject.from_sample(np.ones((4, 4)), logical_rows=4000)
        assert obj.mc.nnz == 16000
        size = obj.memory_size
        assert size == obj.mc.memory_estimate() == 44 + 4000 * 4 * 8
        obj.data[:, :3] = 0.0  # a sparser sample is not a resize
        assert obj.mc.nnz == 16000 and obj.memory_size == size
        assert not hasattr(obj, "refresh_nnz")
        # a result with other characteristics is another object
        sparser = MatrixObject.from_sample(obj.data, logical_rows=4000)
        assert sparser.mc.nnz == 4000
        assert sparser.memory_size == sparser.mc.memory_estimate() < size
        clone = obj.copy()
        assert clone.mc is not obj.mc and clone.memory_size == size


class TestObjectSemantics:
    def test_from_sample_defaults(self):
        obj = MatrixObject.from_sample(np.eye(3))
        assert (obj.mc.rows, obj.mc.cols, obj.mc.nnz) == (3, 3, 3)

    def test_from_sample_logical_override(self):
        obj = MatrixObject.from_sample(np.ones((8, 2)), logical_rows=800)
        assert obj.mc.rows == 800
        assert obj.mc.nnz == 1600

    def test_one_dimensional_sample_rejected(self):
        with pytest.raises(ExecutionError):
            MatrixObject(np.ones(5), None)

    def test_memory_size_uses_logical_dims(self):
        small = MatrixObject.generate(100, 10)
        big = MatrixObject.generate(10**6, 10, sample_cap=64)
        assert big.memory_size > small.memory_size

    def test_copy_is_independent(self):
        obj = MatrixObject.from_sample(np.ones((3, 3)))
        clone = obj.copy()
        clone.data[0, 0] = 99.0
        assert obj.data[0, 0] == 1.0

    def test_residency_flags_default(self):
        obj = MatrixObject.from_sample(np.ones((2, 2)))
        assert obj.in_memory and obj.dirty and not obj.local_copy
