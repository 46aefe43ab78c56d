"""Sparse matrix substrate: CSR/COO containers, conversions, reference
operations, I/O and statistics (systems S1–S2 of DESIGN.md)."""

from .coo import COOMatrix
from .convert import (
    extract_rows,
    lower_triangle,
    prune_explicit_zeros,
    sort_row_entries,
    transpose,
    upper_triangle,
)
from .csr import CSRMatrix
from .io import (
    MatrixMarketError,
    load_binary,
    load_matrix,
    read_matrix_market,
    save_binary,
    write_matrix_market,
)
from .ops import (
    add,
    count_intermediate_products,
    diagonal,
    hadamard,
    mask_by_pattern,
    row_temp_counts,
    scale,
    spgemm_dense_check,
    spgemm_reference,
    spmv,
    symbolic_nnz,
)
from .stats import (
    HIGHLY_SPARSE_SPLIT,
    MatrixStats,
    ProductStats,
    is_highly_sparse,
    matrix_stats,
    product_stats,
    squared_operands,
)
from .validate import CSRValidationError, is_canonical, validate_csr

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSRValidationError",
    "HIGHLY_SPARSE_SPLIT",
    "MatrixMarketError",
    "MatrixStats",
    "ProductStats",
    "add",
    "count_intermediate_products",
    "diagonal",
    "extract_rows",
    "hadamard",
    "mask_by_pattern",
    "is_canonical",
    "is_highly_sparse",
    "load_binary",
    "load_matrix",
    "lower_triangle",
    "matrix_stats",
    "product_stats",
    "prune_explicit_zeros",
    "read_matrix_market",
    "row_temp_counts",
    "save_binary",
    "scale",
    "sort_row_entries",
    "spgemm_dense_check",
    "spgemm_reference",
    "spmv",
    "squared_operands",
    "symbolic_nnz",
    "transpose",
    "upper_triangle",
    "validate_csr",
    "write_matrix_market",
]
