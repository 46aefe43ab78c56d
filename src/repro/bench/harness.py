"""Benchmark harness: cases and runs.

Every experiment in the paper's evaluation section reduces to "run a set
of algorithms over a set of matrices and report simulated GFLOPS plus
side statistics".  The harness centralises that: :class:`MatrixCase`
wraps a matrix with its benchmark operands (``A @ A`` or ``A @ A.T`` per
§4) and :func:`run_case` executes one (case, algorithm, dtype) cell.
The on-disk result store is the campaign directory
(:mod:`repro.campaign`), which runs these cells and keeps their records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import ProductPlan, SpGEMMAlgorithm
from ..baselines.registry import make_algorithm
from ..sparse.csr import CSRMatrix
from ..sparse.ops import count_intermediate_products, spgemm_reference
from ..sparse.stats import matrix_stats, squared_operands

__all__ = ["MatrixCase", "RunRecord", "run_case"]


@dataclass
class MatrixCase:
    """One benchmark input: the matrix and its squared-product operands.

    Operands, the intermediate-product count and the row statistics are
    computed lazily and memoised: a resumed campaign that answers every
    cell from its checkpoints never touches them (they are the expensive
    part — ``A @ A.T`` transposes and a full product count).
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
        """Serialisable form for the campaign checkpoints."""
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
