"""Sample-backed matrix objects.

A :class:`MatrixObject` pairs a small physical numpy *sample* with
*logical* :class:`~repro.common.MatrixCharacteristics` at full scale.
The sampling rule is symmetric: every logical dimension of size L maps
to ``min(L, sample_cap)`` physical elements, so dimensions shared by two
matrices (e.g. the feature dimension of X and of the model vector) stay
conformable.  Kernels additionally align sample shapes defensively (see
:mod:`repro.runtime.kernels`) for shapes perturbed by appends.
"""

from __future__ import annotations

import numpy as np

from repro.common import FileFormat, MatrixCharacteristics
from repro.errors import ExecutionError

#: default per-dimension sample cap; the paper's scenarios (<= 1,000
#: columns) keep feature dimensions unsampled under this default
DEFAULT_SAMPLE_CAP = 2048


def sample_rows(logical_rows, cap=DEFAULT_SAMPLE_CAP):
    """Physical sample size for one logical dimension."""
    return int(min(logical_rows, cap))


def measure_nnz(data, logical_cells):
    """Scale the sample's non-zero density to the logical cell count."""
    if data.size == 0:
        return 0
    density = np.count_nonzero(data) / data.size
    return int(round(density * logical_cells))


class MatrixObject:
    """A runtime matrix: sample data + logical metadata + residency state.

    ``mc`` is never mutated after construction (a result with other
    characteristics is a new object), which is what lets
    ``memory_size`` be computed once and the buffer pool keep a running
    occupancy.
    """

    __slots__ = (
        "data",
        "mc",
        "memory_size",
        "fmt",
        "hdfs_path",
        "in_memory",
        "dirty",
        "local_copy",
    )

    def __init__(self, data, mc, fmt=FileFormat.BINARY_BLOCK, hdfs_path=None,
                 in_memory=True, dirty=True):
        if data.ndim != 2:
            raise ExecutionError("matrix sample must be 2-dimensional")
        self.data = data
        self.mc = mc
        #: logical in-memory size in bytes
        self.memory_size = mc.memory_estimate()
        self.fmt = fmt
        #: backing file on simulated HDFS holding a clean copy (if any)
        self.hdfs_path = hdfs_path
        #: resident in the CP buffer pool
        self.in_memory = in_memory
        #: in-memory copy newer than any HDFS/local representation
        self.dirty = dirty
        #: evicted copy exists on local disk
        self.local_copy = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_sample(cls, data, logical_rows=None, logical_cols=None):
        """Wrap a sample; logical dims default to the sample's shape."""
        rows = int(logical_rows if logical_rows is not None else data.shape[0])
        cols = int(logical_cols if logical_cols is not None else data.shape[1])
        mc = MatrixCharacteristics(rows, cols, measure_nnz(data, rows * cols))
        return cls(np.asarray(data, dtype=np.float64), mc)

    @classmethod
    def generate(cls, rows, cols, sparsity=1.0, min_value=0.0, max_value=1.0,
                 rng=None, sample_cap=DEFAULT_SAMPLE_CAP):
        """Generate a random matrix with the given logical shape/sparsity."""
        rng = rng or np.random.default_rng(0)
        srows = sample_rows(rows, sample_cap)
        scols = sample_rows(cols, sample_cap)
        if min_value == max_value:
            data = np.full((srows, scols), float(min_value))
            if min_value == 0.0:
                nnz = 0
            else:
                nnz = rows * cols
        else:
            if sparsity < 0.05:
                # very sparse samples: draw the non-zero pattern directly
                from scipy import sparse as scipy_sparse

                pattern = scipy_sparse.random(
                    srows, scols, density=sparsity, random_state=rng,
                    data_rvs=lambda n: rng.uniform(min_value, max_value, n),
                )
                data = pattern.toarray()
            else:
                data = rng.uniform(min_value, max_value, size=(srows, scols))
                if sparsity < 1.0:
                    mask = rng.random((srows, scols)) < sparsity
                    data = np.where(mask, data, 0.0)
            nnz = int(round(sparsity * rows * cols))
        mc = MatrixCharacteristics(int(rows), int(cols), nnz)
        return cls(data, mc)

    @classmethod
    def generate_labels(cls, rows, num_classes, rng=None,
                        sample_cap=DEFAULT_SAMPLE_CAP):
        """Generate an n x 1 label vector with values 1..num_classes,
        guaranteed to contain every class in the sample."""
        rng = rng or np.random.default_rng(0)
        srows = sample_rows(rows, sample_cap)
        values = rng.integers(1, num_classes + 1, size=(srows, 1)).astype(float)
        # ensure every class appears so table() infers the true k
        for k in range(1, min(num_classes, srows) + 1):
            values[k - 1, 0] = float(k)
        mc = MatrixCharacteristics(int(rows), 1, int(rows))
        return cls(values, mc)

    def copy(self):
        clone = MatrixObject(
            self.data.copy(), self.mc.copy(), self.fmt, self.hdfs_path,
            self.in_memory, self.dirty,
        )
        clone.local_copy = self.local_copy
        return clone

    def __repr__(self):
        return (
            f"MatrixObject({self.mc}, sample={self.data.shape}, "
            f"mem={self.in_memory}, dirty={self.dirty})"
        )
