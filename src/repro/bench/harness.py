"""Benchmark harness: cases, runs, and a persistent result cache.

Every experiment in the paper's evaluation section reduces to "run a set
of algorithms over a set of matrices and report simulated GFLOPS plus
side statistics".  The harness centralises that: :class:`MatrixCase`
wraps a matrix with its benchmark operands (``A @ A`` or ``A @ A.T`` per
§4), :func:`run_case` executes one (case, algorithm, dtype) cell, and
:class:`ResultCache` memoises cells on disk so the per-figure bench
files can share one sweep.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:  # POSIX-only; cache locking degrades gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..baselines.base import ProductPlan, SpGEMMAlgorithm
from ..baselines.registry import make_algorithm
from ..sparse.csr import CSRMatrix
from ..sparse.ops import count_intermediate_products, spgemm_reference
from ..sparse.stats import matrix_stats, squared_operands

__all__ = ["MatrixCase", "RunRecord", "ResultCache", "run_case", "default_cache"]

#: bump when generators / cost model / record schema change incompatibly
CACHE_VERSION = 10


@dataclass
class MatrixCase:
    """One benchmark input: the matrix and its squared-product operands.

    Operands, the intermediate-product count and the row statistics are
    computed lazily and memoised: a warm-cache sweep that answers every
    cell from the :class:`ResultCache` never touches them (they are the
    expensive part — ``A @ A.T`` transposes and a full product count).
    """

    name: str
    matrix: CSRMatrix
    family: str = ""
    _operands: tuple[CSRMatrix, CSRMatrix] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _temp: int | None = field(default=None, init=False, repr=False, compare=False)
    _stats: object | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def materialized(self) -> bool:
        """Whether the benchmark operands have been constructed yet."""
        return self._operands is not None

    @property
    def a(self) -> CSRMatrix:
        """Left operand of the benchmark product."""
        if self._operands is None:
            self._operands = squared_operands(self.matrix)
        return self._operands[0]

    @property
    def b(self) -> CSRMatrix:
        """Right operand (``A`` or the precomputed ``A.T``)."""
        if self._operands is None:
            self._operands = squared_operands(self.matrix)
        return self._operands[1]

    @property
    def temp(self) -> int:
        """Intermediate products of the benchmark product."""
        if self._temp is None:
            self._temp = count_intermediate_products(self.a, self.b)
        return self._temp

    @property
    def stats(self):
        """Row-structure statistics of the input matrix."""
        if self._stats is None:
            self._stats = matrix_stats(self.matrix)
        return self._stats

    @property
    def mean_row_length(self) -> float:
        """Average non-zeros per row of the input matrix."""
        return self.stats.mean_row_length

    @property
    def highly_sparse(self) -> bool:
        """The paper's a <= 42 classification."""
        return self.stats.highly_sparse


@dataclass(frozen=True)
class RunRecord:
    """One cell of the sweep: algorithm x matrix x dtype."""

    matrix: str
    algorithm: str
    dtype: str
    gflops: float
    seconds: float
    cycles: float
    temp: int
    nnz_c: int
    mean_row_length: float
    extra_memory_bytes: int
    bit_stable: bool
    correct: bool
    stage_cycles: dict[str, float] = field(default_factory=dict)
    ac_extras: dict[str, float] = field(default_factory=dict)
    #: engine the adaptive selector routed this cell to ("" when the
    #: algorithm does not dispatch)
    dispatched_to: str = ""

    def to_json(self) -> dict:
        """Serialisable form for the on-disk cache."""
        d = self.__dict__.copy()
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RunRecord":
        """Inverse of :meth:`to_json`."""
        return cls(**d)


def run_case(
    case: MatrixCase,
    algorithm: str | SpGEMMAlgorithm,
    dtype=np.float64,
    *,
    verify: bool = True,
    plan: ProductPlan | None = None,
) -> RunRecord:
    """Execute one algorithm on one case and collect the record.

    ``plan`` (a :class:`~repro.baselines.base.ProductPlan` of
    ``case.a @ case.b``) lets the baselines run on one case share their
    expanded and sorted products.
    """
    alg = (
        make_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    )
    run = alg.multiply(case.a, case.b, dtype=dtype, plan=plan)
    correct = True
    if verify:
        ref = spgemm_reference(case.a.astype(dtype), case.b.astype(dtype))
        correct = run.matrix.allclose(ref, rtol=1e-4 if dtype == np.float32 else 1e-10)
    extras: dict[str, float] = {}
    ac = getattr(run, "ac_result", None)
    if ac is not None:
        extras = {
            "degraded": 1.0 if getattr(ac, "degraded", False) else 0.0,
            "restarts": ac.restarts,
            "mp_load": ac.multiprocessor_load,
            "n_chunks": ac.n_chunks,
            "shared_rows": ac.shared_rows,
            "helper_bytes": ac.memory.helper_bytes,
            "chunk_pool_bytes": ac.memory.chunk_pool_bytes,
            "chunk_used_bytes": ac.memory.chunk_used_bytes,
            "output_bytes": ac.memory.output_bytes,
        }
    return RunRecord(
        matrix=case.name,
        algorithm=run.algorithm,
        dtype=np.dtype(dtype).name,
        gflops=run.gflops(case.temp),
        seconds=run.seconds,
        cycles=run.cycles,
        temp=case.temp,
        nnz_c=run.matrix.nnz,
        mean_row_length=case.mean_row_length,
        extra_memory_bytes=run.extra_memory_bytes,
        bit_stable=run.bit_stable,
        correct=correct,
        stage_cycles=dict(run.stage_cycles),
        ac_extras=extras,
        dispatched_to=getattr(run, "dispatched_to", "") or "",
    )


class ResultCache:
    """Disk-backed memo of :class:`RunRecord` cells.

    The simulator is deterministic, so a cell never changes for a fixed
    cache version; the per-figure benches share one sweep through this
    cache instead of re-running the full cross product.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._data: dict[str, dict] = self._read_disk_cells()

    def _read_disk_cells(self) -> dict[str, dict]:
        """Current on-disk cells (empty on corruption/version mismatch)."""
        if not self.path.exists():
            return {}
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("version") == CACHE_VERSION:
                return payload.get("cells", {})
        except (json.JSONDecodeError, OSError):
            pass
        return {}

    @staticmethod
    def key(matrix: str, algorithm: str, dtype: str, options=None) -> str:
        """Cache key of one sweep cell.

        Non-default pipeline options key their cells separately: the
        engine name (human-readable) plus a fingerprint of every option
        field, so tweaked runs can never collide with default ones.
        """
        if options is None:
            return f"{matrix}|{algorithm}|{dtype}"
        return (
            f"{matrix}|{algorithm}|{dtype}"
            f"|{options.engine}|{options.cache_fingerprint()}"
        )

    def get_or_run(
        self,
        case: MatrixCase,
        algorithm: str,
        dtype=np.float64,
        *,
        verify: bool = True,
        options=None,
        plan: ProductPlan | None = None,
    ) -> RunRecord:
        """Return the memoised record, executing the cell on a miss.

        ``options`` (an :class:`~repro.core.options.AcSpgemmOptions`)
        customises the pipeline of a registered-backend cell (a
        fixed-function baseline raises ``ValueError``); it becomes part
        of the cache key.  ``plan`` is passed to :func:`run_case`.
        """
        k = self.key(case.name, algorithm, np.dtype(dtype).name, options)
        if k in self._data:
            return RunRecord.from_json(self._data[k])
        alg: str | SpGEMMAlgorithm = algorithm
        if options is not None:
            alg = make_algorithm(algorithm, options=options)
        rec = run_case(case, alg, dtype, verify=verify, plan=plan)
        self._data[k] = rec.to_json()
        return rec

    def save(self) -> None:
        """Persist the cache to disk, safely under concurrent writers.

        The old implementation rewrote the JSON file in place, so a
        concurrent writer lost the other's cells and a mid-write kill
        left a torn (unparseable) file.  Now the writer takes an
        exclusive file lock, merges the current on-disk cells with its
        own (its own cells win, though for a deterministic simulator
        they can only ever agree), writes a temp file in the same
        directory and atomically renames it over the cache.  Readers
        therefore always see either the old or the new complete file.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        lock = open(lock_path, "a+")
        try:
            if fcntl is not None:
                fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            merged = self._read_disk_cells()
            merged.update(self._data)
            self._data = merged
            tmp = self.path.with_name(
                f".{self.path.name}.tmp.{os.getpid()}"
            )
            tmp.write_text(
                json.dumps(
                    {"version": CACHE_VERSION, "cells": merged},
                    sort_keys=True,
                )
            )
            os.replace(tmp, self.path)
        finally:
            if fcntl is not None:
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
            lock.close()

    def __len__(self) -> int:
        return len(self._data)


def default_cache(root: str | Path = "results") -> ResultCache:
    """The shared on-disk sweep cache used by the benches."""
    return ResultCache(Path(root) / "sweep_cache.json")
