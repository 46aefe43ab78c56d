"""Coordinate (COO) sparse matrix container.

Matrix Market files are coordinate lists, and the paper's artifact
converts COO to CSR on load (Appendix A.4: "Conversion operators are
provided ... convert the COO format to CSR if required").  This module is
that conversion substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix

__all__ = ["COOMatrix", "row_major_order"]

_INDEX_DTYPE = np.int64
#: one past the largest packed key ``row * n_cols + col`` int64 can hold
_KEY_LIMIT = 2**63


def row_major_order(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable row-major order of ``(row, col)`` coordinate pairs.

    Packs every pair into one int64 key ``row * n_cols + col``, which is
    injective for in-range ids, and sorts the keys with one stable
    ``argsort``. That is the permutation of a two-key ``np.lexsort`` by
    row, then column, at a fraction of its cost. Returns
    ``(order, keys)`` with ``keys`` the packed keys in sorted order;
    ``np.divmod(keys, n_cols)`` recovers the pairs.

    Raises :class:`ValueError` when an id lies outside the shape or
    ``n_rows * n_cols`` does not fit in int64.
    """
    if int(n_rows) * int(n_cols) > _KEY_LIMIT:
        raise ValueError(
            f"shape ({n_rows}, {n_cols}) overflows a packed int64 (row, col) key"
        )
    if rows.shape[0] and (
        rows.min() < 0 or rows.max() >= n_rows
        or cols.min() < 0 or cols.max() >= n_cols
    ):
        raise ValueError(f"(row, col) ids outside the shape ({n_rows}, {n_cols})")
    key = rows.astype(_INDEX_DTYPE)
    key *= n_cols
    key += cols
    order = np.argsort(key, kind="stable")
    return order, key[order]


@dataclass
class COOMatrix:
    """A sparse matrix as parallel ``(row, col, value)`` triplet arrays.

    Duplicate coordinates are allowed; conversion to CSR sums them,
    matching the usual Matrix Market semantics for symmetric expansions.
    """

    rows: int
    cols: int
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.rows = int(self.rows)
        self.cols = int(self.cols)
        self.row_idx = np.ascontiguousarray(self.row_idx, dtype=_INDEX_DTYPE)
        self.col_idx = np.ascontiguousarray(self.col_idx, dtype=_INDEX_DTYPE)
        self.values = np.ascontiguousarray(self.values)
        if not (
            self.row_idx.shape == self.col_idx.shape == self.values.shape
        ):
            raise ValueError("row_idx, col_idx and values must have equal length")
        if self.row_idx.ndim != 1:
            raise ValueError("triplet arrays must be one-dimensional")
        if self.nnz:
            if self.row_idx.min(initial=0) < 0 or self.col_idx.min(initial=0) < 0:
                raise ValueError("negative indices in COO triplets")
            if self.row_idx.max(initial=-1) >= self.rows:
                raise ValueError("row index out of range")
            if self.col_idx.max(initial=-1) >= self.cols:
                raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        """Number of stored triplets."""
        return int(self.values.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols)."""
        return (self.rows, self.cols)

    def to_csr(self, *, sum_duplicates: bool = True) -> CSRMatrix:
        """Convert to CSR, sorting by (row, col) and summing duplicates.

        The sort is stable so that for duplicate coordinates the
        accumulation order equals the triplet order — this keeps the
        conversion deterministic (bit-stable) for a fixed input file.
        """
        if self.nnz == 0:
            return CSRMatrix.empty(self.rows, self.cols, dtype=self.values.dtype)
        order, keys = row_major_order(
            self.row_idx, self.col_idx, self.rows, self.cols
        )
        v = self.values[order]
        if sum_duplicates:
            # boundaries where (row, col) changes
            new_group = np.empty(keys.shape[0], dtype=bool)
            new_group[0] = True
            np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
            group_id = np.cumsum(new_group) - 1
            n_groups = int(group_id[-1]) + 1
            out_v = np.zeros(n_groups, dtype=v.dtype)
            np.add.at(out_v, group_id, v)
            keys, v = keys[new_group], out_v
        r, c = np.divmod(keys, self.cols)
        row_counts = np.bincount(r, minlength=self.rows)
        row_ptr = np.zeros(self.rows + 1, dtype=_INDEX_DTYPE)
        np.cumsum(row_counts, out=row_ptr[1:])
        return CSRMatrix(
            rows=self.rows, cols=self.cols, row_ptr=row_ptr, col_idx=c, values=v
        )

    @classmethod
    def from_csr(cls, m: CSRMatrix) -> "COOMatrix":
        """Expand a CSR matrix into triplets (CSR order preserved)."""
        row_idx = np.repeat(np.arange(m.rows, dtype=_INDEX_DTYPE), m.row_lengths())
        return cls(
            rows=m.rows,
            cols=m.cols,
            row_idx=row_idx,
            col_idx=m.col_idx.copy(),
            values=m.values.copy(),
        )

    def transpose(self) -> "COOMatrix":
        """Swap the roles of rows and columns (O(1), views swapped)."""
        return COOMatrix(
            rows=self.cols,
            cols=self.rows,
            row_idx=self.col_idx,
            col_idx=self.row_idx,
            values=self.values,
        )
