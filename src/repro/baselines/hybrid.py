"""Adaptive hybrid SpGEMM (§5 future work).

The paper's conclusion: "extending the adaptive behaviour of our
chunk-based approach to choose between alternative approaches (ESC,
hashing, merging) depending on the load currently seen by the work
distribution may lead to a further improvement of performance in those
scenarios where other strategies shine."

This baseline realises the coarse-grained version of that idea: a cheap
O(rows) pre-inspection of the operands estimates where the input lands
relative to the ESC/hashing crossover, and dispatches the whole product
to AC-SpGEMM or to the hash pipeline accordingly.  The dispatch
heuristic uses exactly the quantities the evaluation identifies as
decisive: average row length (the a <= 42 split) and the estimated
compaction regime.

Because the hash path may be chosen, the hybrid is *not* bit-stable —
the price the paper predicts for chasing the last factor on dense
inputs.
"""

from __future__ import annotations

import numpy as np

from ..gpu.cost import CostMeter
from ..sparse.csr import CSRMatrix
from .base import SpGEMMAlgorithm, SpGEMMRun
from .nsparse import NsparseHash

__all__ = ["HybridAdaptive"]


class HybridAdaptive(SpGEMMAlgorithm):
    """Dispatch between AC-SpGEMM and nsparse-style hashing."""

    name = "hybrid-adaptive"
    bit_stable = False  # the hash path may be selected

    #: dispatch threshold on the mean B-row length referenced by A —
    #: the empirical ESC/hashing crossover of the cost model (it sits
    #: near the paper's a = 42 split for uniform structures)
    row_length_threshold = 42.0
    #: rows whose columns spread over less than this fraction of the
    #: matrix width are "structured": dynamic bit reduction shrinks the
    #: sort keys enough that ESC stays competitive even on long rows
    structure_span_fraction = 0.25
    structure_sample_rows = 64

    def __init__(self, device=None, costs=None):
        from ..gpu.config import TITAN_XP
        from ..gpu.cost import DEFAULT_COSTS
        from .registry import make_algorithm

        super().__init__(device or TITAN_XP, costs or DEFAULT_COSTS)
        self._ac = make_algorithm(
            "ac-spgemm", device=self.device, costs=self.costs
        )
        self._hash = NsparseHash(device=self.device, costs=self.costs)

    # -- dispatch heuristic ----------------------------------------------

    def choose(self, a: CSRMatrix, b: CSRMatrix) -> str:
        """Return "esc" or "hash" from an O(rows + nnz) inspection."""
        return self._inspect(a, b)[0]

    def _inspect(self, a: CSRMatrix, b: CSRMatrix) -> tuple[str, int]:
        """The dispatch decision plus the probe's actual read volume.

        The second element counts the 4-byte B-side reads the span probe
        really performed (row-pointer pair plus first/last column id per
        sampled row), so ``multiply`` can charge what was touched instead
        of a flat guess.
        """
        if a.nnz == 0 or b.nnz == 0:
            return "esc", 0
        mean_expansion = float(b.row_lengths()[a.col_idx].mean())
        if mean_expansion <= self.row_length_threshold:
            return "esc", 0
        if b.cols == 0:
            # width-degenerate B: no column span to measure (and nothing
            # for the hash tables to key on) — ESC handles it trivially
            return "esc", 0
        # estimate the column span a block will see: sample B rows and
        # measure each row's column spread relative to the matrix width
        step = max(1, b.rows // self.structure_sample_rows)
        spreads = []
        sampled_reads = 0
        for r in range(0, b.rows, step):
            lo, hi = b.row_ptr[r], b.row_ptr[r + 1]
            sampled_reads += 2  # the row-pointer pair
            if hi - lo >= 2:
                sampled_reads += 2  # first and last column id
                spreads.append(int(b.col_idx[hi - 1] - b.col_idx[lo]))
        if spreads and float(np.mean(spreads)) <= (
            self.structure_span_fraction * b.cols
        ):
            return "esc", sampled_reads  # structured: bit reduction wins
        return "hash", sampled_reads

    # -- execution ---------------------------------------------------------

    def multiply(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        *,
        dtype=np.float64,
        scheduler_seed: int = 0,
        plan=None,
    ) -> SpGEMMRun:
        """Inspect, dispatch, and execute the chosen pipeline."""
        if a.cols != b.rows:
            raise ValueError(
                f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
            )
        # the inspection itself costs one streaming pass plus whatever
        # the span probe actually touched (not a flat min(nnz, 512))
        decision, sampled_reads = self._inspect(a, b)
        probe = CostMeter(config=self.device, constants=self.costs)
        probe.global_read(a.nnz, 4)
        if a.nnz:
            # gathering B's row lengths for the expansion estimate
            probe.global_read(min(a.nnz, b.rows), 4, coalesced=False)
        if sampled_reads:
            probe.global_read(sampled_reads, 4, coalesced=False)
        probe.kernel_launch()
        inner = self._ac if decision == "esc" else self._hash
        run = inner.multiply(
            a, b, dtype=dtype, scheduler_seed=scheduler_seed, plan=plan
        )
        run.algorithm = self.name
        run.cycles += probe.cycles / self.device.num_sms
        run.counters.merge(probe.counters)
        run.bit_stable = inner is self._ac
        run.stage_cycles = {"dispatch": probe.cycles, **run.stage_cycles}
        run.dispatched_to = inner.name
        return run

    def _execute(self, *args, **kwargs):  # pragma: no cover - not used
        raise NotImplementedError("HybridAdaptive overrides multiply")
