"""Format conversions and structural transforms on CSR matrices.

The paper computes ``A @ A.T`` for non-square inputs with ``A.T``
precomputed (§4); :func:`transpose` provides that precomputation.
"""

from __future__ import annotations

import numpy as np

from .coo import COOMatrix, row_major_order
from .csr import CSRMatrix

__all__ = [
    "transpose",
    "sort_row_entries",
    "prune_explicit_zeros",
    "extract_rows",
    "lower_triangle",
    "upper_triangle",
]

_INDEX_DTYPE = np.int64


def transpose(m: CSRMatrix) -> CSRMatrix:
    """Permuted-transposition of a CSR matrix (Gustavson's second fast
    algorithm [18]): a counting pass over column ids followed by a
    scatter, O(nnz + rows + cols), no comparison sort."""
    if m.nnz == 0:
        return CSRMatrix.empty(m.cols, m.rows, dtype=m.dtype)
    col_counts = np.bincount(m.col_idx, minlength=m.cols)
    out_ptr = np.zeros(m.cols + 1, dtype=_INDEX_DTYPE)
    np.cumsum(col_counts, out=out_ptr[1:])
    # scatter: stable order of rows within each output row because we walk
    # entries in CSR (row-major) order via argsort(kind="stable")
    order = np.argsort(m.col_idx, kind="stable")
    row_ids = np.repeat(np.arange(m.rows, dtype=_INDEX_DTYPE), m.row_lengths())
    return CSRMatrix(
        rows=m.cols,
        cols=m.rows,
        row_ptr=out_ptr,
        col_idx=row_ids[order],
        values=m.values[order],
    )


def sort_row_entries(m: CSRMatrix) -> CSRMatrix:
    """Return a copy with column ids sorted ascending within every row.

    Entries produced by our algorithms are already sorted; this is the
    canonicalisation step for externally supplied matrices.
    """
    row_ids = np.repeat(np.arange(m.rows, dtype=_INDEX_DTYPE), m.row_lengths())
    order, _ = row_major_order(row_ids, m.col_idx, m.rows, m.cols)
    return CSRMatrix(
        rows=m.rows,
        cols=m.cols,
        row_ptr=m.row_ptr.copy(),
        col_idx=m.col_idx[order],
        values=m.values[order],
    )


def prune_explicit_zeros(m: CSRMatrix, *, tol: float = 0.0) -> CSRMatrix:
    """Drop stored entries with ``|value| <= tol``."""
    keep = np.abs(m.values) > tol
    if keep.all():
        return m.copy()
    row_ids = np.repeat(np.arange(m.rows, dtype=_INDEX_DTYPE), m.row_lengths())
    row_ids = row_ids[keep]
    counts = np.bincount(row_ids, minlength=m.rows)
    row_ptr = np.zeros(m.rows + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRMatrix(
        rows=m.rows,
        cols=m.cols,
        row_ptr=row_ptr,
        col_idx=m.col_idx[keep],
        values=m.values[keep],
    )


def extract_rows(m: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """Sub-matrix of the given rows (in the given order)."""
    rows = np.asarray(rows, dtype=_INDEX_DTYPE)
    lengths = m.row_lengths()[rows]
    row_ptr = np.zeros(rows.shape[0] + 1, dtype=_INDEX_DTYPE)
    np.cumsum(lengths, out=row_ptr[1:])
    idx_chunks = [np.arange(m.row_ptr[r], m.row_ptr[r + 1]) for r in rows]
    gather = (
        np.concatenate(idx_chunks) if idx_chunks else np.zeros(0, dtype=_INDEX_DTYPE)
    )
    gather = gather.astype(_INDEX_DTYPE)
    return CSRMatrix(
        rows=rows.shape[0],
        cols=m.cols,
        row_ptr=row_ptr,
        col_idx=m.col_idx[gather],
        values=m.values[gather],
    )


def _triangle(m: CSRMatrix, keep_mask_fn) -> CSRMatrix:
    row_ids = np.repeat(np.arange(m.rows, dtype=_INDEX_DTYPE), m.row_lengths())
    keep = keep_mask_fn(row_ids, m.col_idx)
    counts = np.bincount(row_ids[keep], minlength=m.rows)
    row_ptr = np.zeros(m.rows + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRMatrix(
        rows=m.rows,
        cols=m.cols,
        row_ptr=row_ptr,
        col_idx=m.col_idx[keep],
        values=m.values[keep],
    )


def lower_triangle(m: CSRMatrix, *, strict: bool = True) -> CSRMatrix:
    """Lower-triangular part (used by the triangle-counting example)."""
    if strict:
        return _triangle(m, lambda r, c: c < r)
    return _triangle(m, lambda r, c: c <= r)


def upper_triangle(m: CSRMatrix, *, strict: bool = True) -> CSRMatrix:
    """Upper-triangular part (strict by default)."""
    if strict:
        return _triangle(m, lambda r, c: c > r)
    return _triangle(m, lambda r, c: c >= r)
