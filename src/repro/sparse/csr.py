"""Compressed sparse row (CSR) matrix container.

This is the storage format the paper assumes throughout (§1): entries are
sorted by row, values and column ids are stored explicitly, and a row
pointer array of length ``rows + 1`` marks the beginning of each row in
the sorted arrays.

The container is deliberately minimal and immutable-ish: algorithms in
:mod:`repro.core` and :mod:`repro.baselines` treat the three arrays as
read-only device buffers.  Mutating helpers always return new matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["CSRMatrix"]

_INDEX_DTYPE = np.int64


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=_INDEX_DTYPE)


@dataclass
class CSRMatrix:
    """A sparse matrix in CSR format.

    Parameters
    ----------
    rows, cols:
        Matrix dimensions.
    row_ptr:
        ``rows + 1`` monotonically non-decreasing offsets into
        ``col_idx`` / ``values``; ``row_ptr[0] == 0`` and
        ``row_ptr[-1] == nnz``.
    col_idx:
        Column index of every stored entry, sorted ascending within each
        row, each in ``[0, cols)``.
    values:
        Numeric value of every stored entry (float32 or float64; the
        paper evaluates both precisions).
    """

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = int(self.rows)
        self.cols = int(self.cols)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.row_ptr = _as_index_array(self.row_ptr, "row_ptr")
        self.col_idx = _as_index_array(self.col_idx, "col_idx")
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(np.float64)
        self.values = np.ascontiguousarray(values)
        if self.row_ptr.shape[0] != self.rows + 1:
            raise ValueError(
                f"row_ptr must have rows + 1 = {self.rows + 1} entries, "
                f"got {self.row_ptr.shape[0]}"
            )
        if self.col_idx.shape[0] != self.values.shape[0]:
            raise ValueError("col_idx and values must have the same length")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.shape[0]:
            raise ValueError("row_ptr must start at 0 and end at nnz")

    # -- basic properties -------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of explicitly stored entries."""
        return int(self.col_idx.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols)."""
        return (self.rows, self.cols)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float32 or float64)."""
        return self.values.dtype

    @property
    def is_square(self) -> bool:
        """True when rows == cols."""
        return self.rows == self.cols

    def row_lengths(self) -> np.ndarray:
        """Length of every row (``np.diff`` of the row pointer)."""
        return np.diff(self.row_ptr)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the column ids and values of row ``i``."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}-row matrix")
        a, b = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[a:b], self.values[a:b]

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, col_idx_view, values_view)`` for non-empty rows."""
        for i in range(self.rows):
            a, b = self.row_ptr[i], self.row_ptr[i + 1]
            if b > a:
                yield i, self.col_idx[a:b], self.values[a:b]

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, rows: int, cols: int, dtype=np.float64) -> "CSRMatrix":
        """An all-zero matrix with no stored entries."""
        return cls(
            rows=rows,
            cols=cols,
            row_ptr=np.zeros(rows + 1, dtype=_INDEX_DTYPE),
            col_idx=np.zeros(0, dtype=_INDEX_DTYPE),
            values=np.zeros(0, dtype=dtype),
        )

    @classmethod
    def identity(cls, n: int, dtype=np.float64) -> "CSRMatrix":
        """The n x n identity matrix."""
        return cls(
            rows=n,
            cols=n,
            row_ptr=np.arange(n + 1, dtype=_INDEX_DTYPE),
            col_idx=np.arange(n, dtype=_INDEX_DTYPE),
            values=np.ones(n, dtype=dtype),
        )

    @classmethod
    def from_dense(cls, dense, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping entries with ``|x| <= tol``."""
        d = np.asarray(dense)
        if d.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        mask = np.abs(d) > tol
        rows, cols = d.shape
        row_counts = mask.sum(axis=1)
        row_ptr = np.zeros(rows + 1, dtype=_INDEX_DTYPE)
        np.cumsum(row_counts, out=row_ptr[1:])
        r, c = np.nonzero(mask)
        return cls(rows=rows, cols=cols, row_ptr=row_ptr, col_idx=c, values=d[r, c])

    # -- conversions -------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array (duplicates summed)."""
        out = np.zeros(self.shape, dtype=self.values.dtype)
        row_ids = np.repeat(np.arange(self.rows), self.row_lengths())
        # += via np.add.at so duplicate (row, col) pairs accumulate
        np.add.at(out, (row_ids, self.col_idx), self.values)
        return out

    def astype(self, dtype) -> "CSRMatrix":
        """Copy with values cast to ``dtype`` (e.g. float32 for the paper's
        single-precision experiments)."""
        return CSRMatrix(
            rows=self.rows,
            cols=self.cols,
            row_ptr=self.row_ptr.copy(),
            col_idx=self.col_idx.copy(),
            values=self.values.astype(dtype),
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy of all three arrays."""
        return CSRMatrix(
            rows=self.rows,
            cols=self.cols,
            row_ptr=self.row_ptr.copy(),
            col_idx=self.col_idx.copy(),
            values=self.values.copy(),
        )

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (testing helper)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, m) -> "CSRMatrix":
        """Build from any scipy sparse matrix (testing helper)."""
        csr = m.tocsr()
        csr.sort_indices()
        return cls(
            rows=csr.shape[0],
            cols=csr.shape[1],
            row_ptr=csr.indptr.astype(_INDEX_DTYPE),
            col_idx=csr.indices.astype(_INDEX_DTYPE),
            values=np.asarray(csr.data),
        )

    # -- memory accounting (used by Table 3 / Fig. 8 benches) --------------

    def nbytes(self) -> int:
        """Bytes occupied by the three CSR arrays."""
        return int(self.row_ptr.nbytes + self.col_idx.nbytes + self.values.nbytes)

    # -- comparisons ---------------------------------------------------

    def exactly_equal(self, other: "CSRMatrix") -> bool:
        """Bitwise equality of structure and values (the paper's
        *bit-stable* criterion: repeated runs must produce exactly this)."""
        return (
            self.shape == other.shape
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(
                self.values.view(np.uint8), other.values.view(np.uint8)
            )
        )

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-10, atol: float = 0.0) -> bool:
        """Numerical equality up to a tolerance, after canonicalisation.

        Unlike :meth:`exactly_equal` this tolerates differently ordered
        accumulation (what the non-bit-stable baselines produce).
        """
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.row_ptr, other.row_ptr):
            return False
        if not np.array_equal(self.col_idx, other.col_idx):
            return False
        return bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"
        )
