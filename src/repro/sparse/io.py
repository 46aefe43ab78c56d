"""Matrix Market (.mtx) and binary matrix I/O.

The paper's artifact parses Matrix Market files from SuiteSparse and
caches a binary form ("``.hicoo``") for fast reloading (Appendix A.2.5).
We implement both: a self-contained ``.mtx`` reader/writer (coordinate
and array formats, general/symmetric/skew-symmetric, real/integer/
pattern) and an ``.npz``-based binary cache.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..resilience.errors import ReproError
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "read_matrix_market_header",
    "write_matrix_market",
    "save_binary",
    "load_binary",
    "load_matrix",
]


class MatrixMarketError(ReproError, ValueError):
    """Malformed Matrix Market content (also a :class:`ValueError`)."""


_VALID_FORMATS = {"coordinate", "array"}
_VALID_FIELDS = {"real", "integer", "pattern", "complex"}
_VALID_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def _parse_header(line: str) -> tuple[str, str, str]:
    parts = line.strip().lower().split()
    if len(parts) < 5 or parts[0] != "%%matrixmarket" or parts[1] != "matrix":
        raise MatrixMarketError(f"bad MatrixMarket banner: {line!r}")
    fmt, field, symmetry = parts[2], parts[3], parts[4]
    if fmt not in _VALID_FORMATS:
        raise MatrixMarketError(f"unsupported format {fmt!r}")
    if field not in _VALID_FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}")
    if field == "complex":
        raise MatrixMarketError("complex matrices are not supported")
    if symmetry not in _VALID_SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")
    if symmetry == "hermitian":
        raise MatrixMarketError("hermitian matrices are not supported")
    return fmt, field, symmetry


def _parse_size(parts: list[str], line: str, n: int) -> tuple[int, ...]:
    if len(parts) != n:
        raise MatrixMarketError(f"bad size line: {line!r}")
    try:
        dims = tuple(int(x) for x in parts)
    except ValueError:
        raise MatrixMarketError(f"non-integer size line: {line!r}") from None
    if any(d < 0 for d in dims):
        raise MatrixMarketError(f"negative dimension in size line: {line!r}")
    return dims


def read_matrix_market_header(fh, *, name: str = "<stream>"):
    """Read the banner and size line of an open Matrix Market stream.

    Returns ``(format, field, symmetry, dims)`` with ``dims`` being
    ``(rows, cols, nnz)`` for coordinate and ``(rows, cols)`` for array
    format, and leaves ``fh`` positioned at the first entry line.
    Nothing is sized by the declared dimensions, so callers can bound
    them before reading the body.
    """
    header = fh.readline()
    if not header:
        raise MatrixMarketError(f"empty file: {name!r}")
    fmt, field, symmetry = _parse_header(header)
    line = fh.readline()
    while line.startswith("%"):
        line = fh.readline()
    if not line.strip():
        raise MatrixMarketError("truncated file: missing size line")
    dims = _parse_size(line.split(), line, 3 if fmt == "coordinate" else 2)
    return fmt, field, symmetry, dims


def read_matrix_market(source, *, strict: bool = True) -> CSRMatrix:
    """Parse a ``.mtx`` file, or an open text stream, into canonical CSR.

    ``source`` is a path (read as ASCII) or anything with ``readline``,
    e.g. ``io.StringIO(text, newline=None)``; both go through the same
    parser and raise the same errors.

    Symmetric/skew-symmetric storage is expanded to general form
    (off-diagonal entries mirrored; skew mirrors with negated value).
    ``pattern`` entries get value 1.0.

    Truncated files, unparsable bodies, non-integer or out-of-range
    indices always raise :class:`MatrixMarketError`.  Non-finite values
    (NaN/inf) are rejected under ``strict`` (the default) and passed
    through verbatim with ``strict=False``.
    """
    if hasattr(source, "readline"):
        return _read_matrix_market(source, "<stream>", strict)
    with open(source, "r", encoding="ascii") as fh:
        return _read_matrix_market(fh, os.fspath(source), strict)


def _read_matrix_market(fh, name: str, strict: bool) -> CSRMatrix:
    """The body of :func:`read_matrix_market` over an open stream."""
    fmt, field, symmetry, dims = read_matrix_market_header(fh, name=name)
    if fmt == "coordinate":
        rows, cols, nnz = dims
        try:
            body = np.loadtxt(fh, ndmin=2) if nnz else np.zeros((0, 3))
        except ValueError as exc:
            raise MatrixMarketError(f"unparsable entry body: {exc}") from None
        if body.shape[0] != nnz:
            raise MatrixMarketError(
                f"expected {nnz} entries, found {body.shape[0]}"
            )
        if nnz == 0:
            return CSRMatrix.empty(rows, cols)
        if body.shape[1] < 2:
            raise MatrixMarketError("entry lines need row and column indices")
        rc = body[:, :2]
        if not np.all(rc == np.floor(rc)):
            raise MatrixMarketError("non-integer row/column index")
        r = rc[:, 0].astype(np.int64) - 1
        c = rc[:, 1].astype(np.int64) - 1
        if np.any((r < 0) | (r >= rows)) or np.any((c < 0) | (c >= cols)):
            raise MatrixMarketError(
                f"index out of range for {rows}x{cols} matrix "
                "(1-based indices must lie in [1, rows] x [1, cols])"
            )
        if field == "pattern":
            v = np.ones(nnz, dtype=np.float64)
        else:
            if body.shape[1] < 3:
                raise MatrixMarketError("missing value column")
            v = body[:, 2].astype(np.float64)
        if strict and not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise MatrixMarketError(
                f"non-finite value at entry {bad + 1} "
                "(pass strict=False to accept NaN/inf)"
            )
    else:  # array (dense column-major)
        rows, cols = dims
        try:
            data = np.loadtxt(fh)
        except ValueError as exc:
            raise MatrixMarketError(f"unparsable entry body: {exc}") from None
        if np.asarray(data).size != rows * cols:
            raise MatrixMarketError(
                f"expected {rows * cols} array entries, "
                f"found {np.asarray(data).size}"
            )
        if strict and not np.all(np.isfinite(data)):
            raise MatrixMarketError(
                "non-finite value in array body "
                "(pass strict=False to accept NaN/inf)"
            )
        dense = np.asarray(data, dtype=np.float64).reshape(cols, rows).T
        if symmetry in ("symmetric", "skew-symmetric"):
            raise MatrixMarketError(
                "symmetric array format is not supported"
            )
        return CSRMatrix.from_dense(dense)

    if symmetry in ("symmetric", "skew-symmetric"):
        off = r != c
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        r = np.concatenate([r, c[off]])
        c2 = np.concatenate([c, body[off, 0].astype(np.int64) - 1])
        v = np.concatenate([v, sign * v[off]])
        c = c2
    return COOMatrix(rows=rows, cols=cols, row_idx=r, col_idx=c, values=v).to_csr()


def write_matrix_market(path: str | os.PathLike, m: CSRMatrix) -> None:
    """Write CSR as general real coordinate Matrix Market."""
    coo = COOMatrix.from_csr(m)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("% written by repro (AC-SpGEMM reproduction)\n")
        fh.write(f"{m.rows} {m.cols} {m.nnz}\n")
        for r, c, v in zip(coo.row_idx, coo.col_idx, coo.values):
            fh.write(f"{int(r) + 1} {int(c) + 1} {float(v):.17g}\n")


def save_binary(path: str | os.PathLike, m: CSRMatrix) -> None:
    """Binary cache (analogue of the artifact's ``.hicoo`` files)."""
    np.savez_compressed(
        path,
        rows=np.int64(m.rows),
        cols=np.int64(m.cols),
        row_ptr=m.row_ptr,
        col_idx=m.col_idx,
        values=m.values,
    )


def load_binary(path: str | os.PathLike) -> CSRMatrix:
    """Load a matrix from the ``.npz`` binary cache format."""
    with np.load(path) as z:
        return CSRMatrix(
            rows=int(z["rows"]),
            cols=int(z["cols"]),
            row_ptr=z["row_ptr"],
            col_idx=z["col_idx"],
            values=z["values"],
        )


def load_matrix(
    path: str | os.PathLike, *, cache: bool = True, strict: bool = True
) -> CSRMatrix:
    """Load ``.mtx`` (building a ``.npz`` cache next to it, like the
    artifact's first-parse conversion) or a previously written ``.npz``."""
    p = Path(path)
    if p.suffix == ".npz":
        return load_binary(p)
    cache_path = p.with_suffix(".npz")
    if cache and cache_path.exists() and cache_path.stat().st_mtime >= p.stat().st_mtime:
        return load_binary(cache_path)
    m = read_matrix_market(p, strict=strict)
    if cache:
        save_binary(cache_path, m)
    return m
