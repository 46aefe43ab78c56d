"""Bit-stability verification (§4.4 and the † marks of Table 1).

An algorithm is *bit-stable* when repeated executions produce bitwise
identical output.  Sort/merge-based algorithms accumulate in a fixed
order; hash-based ones accumulate in hardware-scheduler order, modelled
here by varying the scheduler seed across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import ProductPlan
from ..baselines.registry import make_algorithm
from ..sparse.csr import CSRMatrix

__all__ = ["StabilityReport", "check_bit_stability"]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a repeated-run bitwise comparison."""

    algorithm: str
    claims_stable: bool
    observed_stable: bool
    n_runs: int
    max_value_deviation: float

    @property
    def consistent(self) -> bool:
        """Claimed and observed stability agree."""
        return self.claims_stable == self.observed_stable


def check_bit_stability(
    algorithm: str,
    a: CSRMatrix,
    b: CSRMatrix,
    *,
    n_runs: int = 4,
    dtype=np.float64,
) -> StabilityReport:
    """Run ``n_runs`` times under different modelled schedules and
    compare results bitwise."""
    alg = make_algorithm(algorithm)
    plan = ProductPlan(a, b)
    runs = [
        alg.multiply(a, b, dtype=dtype, scheduler_seed=seed, plan=plan)
        for seed in range(n_runs)
    ]
    first = runs[0].matrix
    stable = all(r.matrix.exactly_equal(first) for r in runs[1:])
    max_dev = 0.0
    for r in runs[1:]:
        if (
            r.matrix.nnz == first.nnz
            and np.array_equal(r.matrix.col_idx, first.col_idx)
        ):
            diff = np.abs(r.matrix.values - first.values)
            if diff.size:
                max_dev = max(max_dev, float(diff.max()))
    return StabilityReport(
        algorithm=algorithm,
        claims_stable=alg.bit_stable,
        observed_stable=stable,
        n_runs=n_runs,
        max_value_deviation=max_dev,
    )
