"""Shared statistics helpers for the baseline cost models."""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix

__all__ = ["row_temp_counts", "output_row_counts"]


def row_temp_counts(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Temporary products generated per row of A (the quantity every
    inspection-based approach bins rows by).

    Each row's sum of B row lengths over its columns, as a difference
    of one cumulative sum at A's row pointers (exact in int64).
    """
    expand = b.row_lengths()[a.col_idx]
    csum = np.zeros(len(expand) + 1, dtype=np.int64)
    np.cumsum(expand, dtype=np.int64, out=csum[1:])
    return csum[a.row_ptr[1:]] - csum[a.row_ptr[:-1]]


def output_row_counts(c: CSRMatrix) -> np.ndarray:
    """nnz per output row (post-hoc stand-in for symbolic counts)."""
    return c.row_lengths()
