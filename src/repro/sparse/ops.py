"""Reference (host-side) sparse operations.

:func:`spgemm_reference` is the sequential Gustavson [18] algorithm with a
sparse accumulator (SPA) — the ground truth every GPU-simulated algorithm
in this repository is validated against, and also the paper's "CPU
implementation ... to confirm the results of the framework output"
(Appendix A.6).
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = [
    "spgemm_reference",
    "spgemm_dense_check",
    "add",
    "scale",
    "spmv",
    "hadamard",
    "mask_by_pattern",
    "diagonal",
    "count_intermediate_products",
    "row_temp_counts",
    "symbolic_nnz",
    "ragged_arange",
]

_INDEX_DTYPE = np.int64


def _check_compatible(a: CSRMatrix, b: CSRMatrix) -> None:
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )


def spgemm_reference(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Sequential two-pass Gustavson SpGEMM.

    Pass 1 counts the non-zeros of each output row with a boolean SPA;
    pass 2 fills values with a dense accumulator per row.  Accumulation
    within a row happens in ascending column order (entries are emitted
    sorted), making the result deterministic.

    Vectorised per-row with numpy; the dense accumulator arrays are
    allocated once and reset sparsely, so the cost is O(flops + nnz(C)),
    not O(rows * cols).
    """
    _check_compatible(a, b)
    out_dtype = np.result_type(a.dtype, b.dtype)
    accumulator = np.zeros(b.cols, dtype=out_dtype)
    present = np.zeros(b.cols, dtype=bool)

    out_ptr = np.zeros(a.rows + 1, dtype=_INDEX_DTYPE)
    col_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []

    a_ptr, a_col, a_val = a.row_ptr, a.col_idx, a.values
    b_ptr, b_col, b_val = b.row_ptr, b.col_idx, b.values

    for i in range(a.rows):
        lo, hi = a_ptr[i], a_ptr[i + 1]
        if hi == lo:
            out_ptr[i + 1] = out_ptr[i]
            continue
        touched_parts = []
        for t in range(lo, hi):
            k = a_col[t]
            aval = a_val[t]
            blo, bhi = b_ptr[k], b_ptr[k + 1]
            if bhi == blo:
                continue
            cols = b_col[blo:bhi]
            accumulator[cols] += aval * b_val[blo:bhi]
            fresh = ~present[cols]
            if fresh.any():
                newly = cols[fresh]
                present[newly] = True
                touched_parts.append(newly)
        if touched_parts:
            touched = np.concatenate(touched_parts)
            touched.sort()
            col_chunks.append(touched)
            val_chunks.append(accumulator[touched].copy())
            # sparse reset of the SPA
            accumulator[touched] = 0
            present[touched] = False
            out_ptr[i + 1] = out_ptr[i] + touched.shape[0]
        else:
            out_ptr[i + 1] = out_ptr[i]

    if col_chunks:
        col_idx = np.concatenate(col_chunks)
        values = np.concatenate(val_chunks)
    else:
        col_idx = np.zeros(0, dtype=_INDEX_DTYPE)
        values = np.zeros(0, dtype=out_dtype)
    return CSRMatrix(
        rows=a.rows, cols=b.cols, row_ptr=out_ptr, col_idx=col_idx, values=values
    )


def spgemm_dense_check(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Dense ``A @ B`` for tiny matrices — a second, independent oracle."""
    _check_compatible(a, b)
    return a.to_dense() @ b.to_dense()


def add(a: CSRMatrix, b: CSRMatrix, alpha: float = 1.0, beta: float = 1.0) -> CSRMatrix:
    """``alpha * A + beta * B`` (used by the AMG and graph examples)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    from .coo import COOMatrix

    row_a = np.repeat(np.arange(a.rows, dtype=_INDEX_DTYPE), a.row_lengths())
    row_b = np.repeat(np.arange(b.rows, dtype=_INDEX_DTYPE), b.row_lengths())
    coo = COOMatrix(
        rows=a.rows,
        cols=a.cols,
        row_idx=np.concatenate([row_a, row_b]),
        col_idx=np.concatenate([a.col_idx, b.col_idx]),
        values=np.concatenate([alpha * a.values, beta * b.values]),
    )
    return coo.to_csr()


def scale(a: CSRMatrix, alpha: float) -> CSRMatrix:
    """``alpha * A``."""
    out = a.copy()
    out.values *= alpha
    return out


def spmv(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``A @ x`` (examples substrate)."""
    x = np.asarray(x)
    if x.shape[0] != a.cols:
        raise ValueError(f"vector length {x.shape[0]} != cols {a.cols}")
    products = a.values * x[a.col_idx]
    out = np.zeros(a.rows, dtype=np.result_type(a.dtype, x.dtype))
    row_ids = np.repeat(np.arange(a.rows, dtype=_INDEX_DTYPE), a.row_lengths())
    np.add.at(out, row_ids, products)
    return out


def _intersect_rows(a: CSRMatrix, b: CSRMatrix):
    """Per-row sorted-intersection of two same-shaped CSR matrices.

    Yields ``(row, idx_a, idx_b)`` index arrays into the entry arrays of
    ``a`` and ``b`` for the common (row, col) positions.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    for i in range(a.rows):
        alo, ahi = a.row_ptr[i], a.row_ptr[i + 1]
        blo, bhi = b.row_ptr[i], b.row_ptr[i + 1]
        if ahi == alo or bhi == blo:
            continue
        common, ia, ib = np.intersect1d(
            a.col_idx[alo:ahi], b.col_idx[blo:bhi], return_indices=True
        )
        if common.size:
            yield i, alo + ia, blo + ib


def hadamard(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Element-wise product ``A .* B`` (the contraction step of
    SpGEMM-based triangle counting: ``sum(hadamard(L @ L, L))``)."""
    rows_parts, ia_parts, ib_parts = [], [], []
    for i, ia, ib in _intersect_rows(a, b):
        rows_parts.append(np.full(ia.shape[0], i, dtype=_INDEX_DTYPE))
        ia_parts.append(ia)
        ib_parts.append(ib)
    if not rows_parts:
        return CSRMatrix.empty(a.rows, a.cols, dtype=a.dtype)
    rows = np.concatenate(rows_parts)
    ia = np.concatenate(ia_parts)
    ib = np.concatenate(ib_parts)
    counts = np.bincount(rows, minlength=a.rows)
    row_ptr = np.zeros(a.rows + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRMatrix(
        rows=a.rows,
        cols=a.cols,
        row_ptr=row_ptr,
        col_idx=a.col_idx[ia].copy(),
        values=a.values[ia] * b.values[ib],
    )


def mask_by_pattern(a: CSRMatrix, mask: CSRMatrix) -> CSRMatrix:
    """Keep only the entries of ``a`` whose positions are stored in
    ``mask`` (masked SpGEMM post-filter, GraphBLAS-style)."""
    keep = np.zeros(a.nnz, dtype=bool)
    for _, ia, _ in _intersect_rows(a, mask):
        keep[ia] = True
    row_ids = np.repeat(np.arange(a.rows, dtype=_INDEX_DTYPE), a.row_lengths())
    counts = np.bincount(row_ids[keep], minlength=a.rows)
    row_ptr = np.zeros(a.rows + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRMatrix(
        rows=a.rows,
        cols=a.cols,
        row_ptr=row_ptr,
        col_idx=a.col_idx[keep],
        values=a.values[keep],
    )


def diagonal(a: CSRMatrix) -> np.ndarray:
    """The (dense) main diagonal — e.g. closed-walk counts of A^k."""
    n = min(a.rows, a.cols)
    out = np.zeros(n, dtype=a.dtype)
    for i in range(n):
        lo, hi = a.row_ptr[i], a.row_ptr[i + 1]
        pos = lo + np.searchsorted(a.col_idx[lo:hi], i)
        if pos < hi and a.col_idx[pos] == i:
            out[i] = a.values[pos]
    return out


def count_intermediate_products(a: CSRMatrix, b: CSRMatrix) -> int:
    """Total number of temporary products ``A_ik * B_kj`` in A @ B.

    This is the paper's "temp" statistic (Table 2, x-axis of Fig. 5):
    sum over entries of A of the length of the referenced B row.  Also
    defines FLOPs = 2 * temp for GFLOPS reporting.
    """
    _check_compatible(a, b)
    return int(row_temp_counts(a, b).sum())


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


def symbolic_nnz(a: CSRMatrix, b: CSRMatrix) -> int:
    """nnz of A @ B without computing values (boolean SPA, one pass)."""
    _check_compatible(a, b)
    present = np.zeros(b.cols, dtype=bool)
    total = 0
    a_ptr, a_col = a.row_ptr, a.col_idx
    b_ptr, b_col = b.row_ptr, b.col_idx
    for i in range(a.rows):
        lo, hi = a_ptr[i], a_ptr[i + 1]
        if hi == lo:
            continue
        ks = a_col[lo:hi]
        touched_parts = []
        for k in ks:
            cols = b_col[b_ptr[k] : b_ptr[k + 1]]
            fresh = ~present[cols]
            if fresh.any():
                newly = cols[fresh]
                present[newly] = True
                touched_parts.append(newly)
        if touched_parts:
            touched = np.concatenate(touched_parts)
            total += touched.shape[0]
            present[touched] = False
    return total


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + lengths[i])``:
    the element indices of several CSR rows, gathered in one pass."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    off = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=off[1:])
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(np.asarray(starts, dtype=np.int64) - off, lengths)
    return out
