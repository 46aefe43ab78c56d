"""Common infrastructure for the competing SpGEMM implementations.

Every baseline evaluated in the paper (cuSPARSE, bhSparse, RMerge,
nsparse, Kokkos) plus the CUSP-style global ESC and a CPU Gustavson
reference is reimplemented here against the same simulated device and
cost model as AC-SpGEMM, so relative comparisons are apples-to-apples:
each algorithm charges the global traffic, on-chip work, kernel
launches and inspection passes its published design implies.

Numerical results are always the true product; what differs between
algorithms is (a) the cost profile and (b) the floating-point
*accumulation order*.  Hash-based algorithms accumulate in an order
determined by the hardware scheduler — modelled by a seeded shuffle —
and are therefore not bit-stable (†-rows of Table 1); sort- and
merge-based algorithms accumulate in deterministic sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.config import DeviceConfig, TITAN_XP
from ..gpu.cost import CostConstants, CostMeter, DEFAULT_COSTS
from ..gpu.counters import TrafficCounters
from ..sparse.coo import row_major_order
from ..sparse.csr import CSRMatrix
from ..sparse.ops import row_temp_counts

__all__ = [
    "SpGEMMRun",
    "SpGEMMAlgorithm",
    "ProductPlan",
    "expand_products",
    "accumulate_products",
]

_INDEX_DTYPE = np.int64


@dataclass
class SpGEMMRun:
    """Result of one simulated SpGEMM execution."""

    matrix: CSRMatrix
    algorithm: str
    cycles: float
    counters: TrafficCounters
    clock_ghz: float
    bit_stable: bool
    extra_memory_bytes: int = 0
    stage_cycles: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Simulated execution time."""
        return self.cycles / (self.clock_ghz * 1e9)

    def gflops(self, temp_products: int) -> float:
        """GFLOPS by the paper's convention (2 FLOPs per temporary
        product) against simulated time."""
        if self.seconds <= 0:
            return 0.0
        return 2.0 * temp_products / self.seconds / 1e9


class SpGEMMAlgorithm:
    """Interface of a simulated SpGEMM implementation.

    Subclasses set ``name`` / ``bit_stable`` and implement
    :meth:`_execute`, returning the product matrix (read from the
    :class:`ProductPlan`) and charging all work to the provided meter.
    """

    name: str = "abstract"
    bit_stable: bool = True

    def __init__(
        self,
        device: DeviceConfig = TITAN_XP,
        costs: CostConstants = DEFAULT_COSTS,
    ) -> None:
        self.device = device
        self.costs = costs

    def multiply(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        *,
        dtype=np.float64,
        scheduler_seed: int = 0,
        plan: ProductPlan | None = None,
    ) -> SpGEMMRun:
        """Compute ``A @ B``; returns the matrix with full accounting.

        ``scheduler_seed`` perturbs the modelled hardware scheduling;
        bit-stable algorithms ignore it by construction.  ``plan`` is a
        :class:`ProductPlan` of ``(a, b)`` shared with other algorithms
        run on the same operands; one is built when none is given.
        """
        if a.cols != b.rows:
            raise ValueError(
                f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
            )
        if plan is None:
            plan = ProductPlan(a, b)
        elif plan.a is not a or plan.b is not b:
            raise ValueError("the product plan was built for other operands")
        meter = CostMeter(config=self.device, constants=self.costs)
        stage_cycles: dict[str, float] = {}
        matrix, extra_mem = self._execute(
            a, b, plan, np.dtype(dtype), meter, stage_cycles, scheduler_seed
        )
        return SpGEMMRun(
            matrix=matrix,
            algorithm=self.name,
            cycles=meter.cycles,
            counters=meter.counters,
            clock_ghz=self.device.clock_ghz,
            bit_stable=self.bit_stable,
            extra_memory_bytes=extra_mem,
            stage_cycles=stage_cycles,
        )

    # implemented by subclasses -------------------------------------------
    def _execute(
        self,
        a: CSRMatrix,
        b: CSRMatrix,
        plan: ProductPlan,
        dtype: np.dtype,
        meter: CostMeter,
        stage_cycles: dict[str, float],
        scheduler_seed: int,
    ) -> tuple[CSRMatrix, int]:
        raise NotImplementedError

    # shared helpers ---------------------------------------------------

    def _device_parallel(self, meter: CostMeter, serial_cycles: float) -> float:
        """Cycles of a device-wide pass spread over all SMs."""
        return serial_cycles / self.device.num_sms


def expand_products(
    a: CSRMatrix, b: CSRMatrix, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All temporary products of A @ B in deterministic CSR order.

    Returns ``(rows, cols, vals)`` with one entry per product
    ``A[i, k] * B[k, j]``; the order is row-major over A's entries and
    B-row order within each — the canonical expansion order.
    """
    if a.nnz == 0 or b.nnz == 0:
        empty = np.zeros(0, dtype=_INDEX_DTYPE)
        return empty, empty.copy(), np.zeros(0, dtype=dtype)
    expand_counts = b.row_lengths()[a.col_idx]
    # products before each A entry; differenced at A's row pointers it
    # gives the products of each row
    run_starts = np.zeros(a.nnz + 1, dtype=_INDEX_DTYPE)
    np.cumsum(expand_counts, out=run_starts[1:])
    total = int(run_starts[-1])
    if total == 0:
        empty = np.zeros(0, dtype=_INDEX_DTYPE)
        return empty, empty.copy(), np.zeros(0, dtype=dtype)

    rows = np.repeat(
        np.arange(a.rows, dtype=_INDEX_DTYPE),
        run_starts[a.row_ptr[1:]] - run_starts[a.row_ptr[:-1]],
    )
    a_vals = np.repeat(a.values.astype(dtype, copy=False), expand_counts)
    # B element index of each product: per A entry a run
    # [b_ptr[k], b_ptr[k] + len), as a repeated offset plus the product id
    b_elem = np.repeat(b.row_ptr[a.col_idx] - run_starts[:-1], expand_counts)
    b_elem += np.arange(total, dtype=_INDEX_DTYPE)

    cols = b.col_idx[b_elem]
    vals = a_vals * b.values[b_elem].astype(dtype, copy=False)
    return rows, cols, vals


def accumulate_products(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_rows: int,
    n_cols: int,
    *,
    shuffle_seed: int | None = None,
) -> CSRMatrix:
    """Sort products by (row, col) and sum duplicates into canonical CSR.

    With ``shuffle_seed=None`` the accumulation order within each output
    entry is the expansion order (stable sort) — deterministic, the
    behaviour of sort/merge-based algorithms.  With a seed, products are
    permuted within their group before summation, modelling the
    scheduler-dependent insertion order of hash-based algorithms.

    The order is one stable sort of packed ``row * n_cols + col`` keys
    (:func:`~repro.sparse.coo.row_major_order`); :class:`_Groups` holds
    the grouping and does the shuffle and the sum, as it does for
    :class:`ProductPlan`.
    """
    if rows.shape[0] == 0:
        return CSRMatrix.empty(n_rows, n_cols, dtype=vals.dtype)
    order, keys = row_major_order(rows, cols, n_rows, n_cols)
    groups = _Groups.of(order, keys, n_rows, n_cols)
    del keys
    return groups.accumulate(vals[order], shuffle_seed)


@dataclass
class _Groups:
    """The output entries of a sorted product list, for every dtype and
    seed: C's pattern, each entry's first sorted position, and what the
    seeded shuffle reads of the groups of two or more products."""

    n_rows: int
    n_cols: int
    #: products in the list (the shuffle draws one priority per product)
    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    #: first sorted position of each output entry
    starts: np.ndarray
    #: sorted positions in groups of two or more, ascending
    shared_pos: np.ndarray
    #: their products' positions in expansion order
    shared_ids: np.ndarray
    #: their packed ``row * n_cols + col`` keys (the shuffle's outer key)
    shared_keys: np.ndarray

    @classmethod
    def of(cls, order: np.ndarray, keys: np.ndarray, n_rows: int, n_cols: int):
        """Group a non-empty stable sort (``row_major_order``'s result)."""
        n = order.shape[0]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        # sorted positions in a group of two or more: the position
        # continues its group, or the next position continues it
        shared = ~new_group
        del new_group
        shared[:-1] |= shared[1:]
        pos = np.flatnonzero(shared)
        del shared
        out_rows, out_cols = np.divmod(keys[starts], n_cols)
        row_ptr = np.zeros(n_rows + 1, dtype=_INDEX_DTYPE)
        np.cumsum(np.bincount(out_rows, minlength=n_rows), out=row_ptr[1:])
        return cls(
            n_rows=n_rows,
            n_cols=n_cols,
            n=n,
            row_ptr=row_ptr,
            col_idx=out_cols,
            starts=starts,
            shared_pos=pos,
            shared_ids=order[pos],
            shared_keys=keys[pos],
        )

    def accumulate(self, vals: np.ndarray, shuffle_seed: int | None) -> CSRMatrix:
        """Sum ``vals`` (the products in sorted order) per output entry.

        A seed draws one priority per product, ``default_rng(seed).random(n)``,
        and orders each group of two or more products by it (ties in
        input order); a single product needs no reordering. Pairs do:
        IEEE addition of two NaNs keeps the first operand's payload, so
        even a two-product sum depends on the order.
        """
        if shuffle_seed is not None and self.shared_pos.shape[0]:
            priority = np.random.default_rng(shuffle_seed).random(self.n)
            priority = priority[self.shared_ids]
            perm = np.lexsort((priority, self.shared_keys))
            del priority
            shuffled = vals.copy()
            shuffled[self.shared_pos] = vals[self.shared_pos[perm]]
            vals = shuffled
        return CSRMatrix(
            rows=self.n_rows,
            cols=self.n_cols,
            row_ptr=self.row_ptr.copy(),
            col_idx=self.col_idx.copy(),
            values=np.add.reduceat(vals, self.starts),
        )


class ProductPlan:
    """The product of one operand pair, expanded and sorted once for
    every competitor that runs on it.

    Construction is free; everything is computed on first use and kept:

    * ``per_row``, the temporary products of each row of A
      (:func:`~repro.sparse.ops.row_temp_counts`, read-only);
    * the grouping of the sorted products (:class:`_Groups`): C's
      pattern, the group starts, and the sorted positions and product
      ids of the groups of two or more that a seeded shuffle reorders;
    * one dtype's products in sorted order. Asking for another dtype
      replaces them (expanded and sorted again; the grouping stays).

    The expansion order and the sort keys are dropped once the grouping
    is built. :meth:`product` returns the bytes
    ``accumulate_products(*expand_products(a, b, dtype), a.rows, b.cols,
    shuffle_seed=...)`` does, in fresh arrays on each call.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix) -> None:
        self.a = a
        self.b = b
        self._per_row: np.ndarray | None = None
        self._groups: _Groups | None = None
        self._dtype: np.dtype | None = None
        self._vals: np.ndarray | None = None

    @property
    def per_row(self) -> np.ndarray:
        """Temporary products per row of A (int64, read-only)."""
        if self._per_row is None:
            per_row = row_temp_counts(self.a, self.b)
            per_row.flags.writeable = False
            self._per_row = per_row
        return self._per_row

    def product(self, dtype, shuffle_seed: int | None = None) -> CSRMatrix:
        """``A @ B`` in ``dtype``; a seed shuffles each product group as
        :func:`accumulate_products` does."""
        dtype = np.dtype(dtype)
        # (``np.dtype(None)`` is float64, so a dtype compares equal to None)
        if self._vals is None or self._dtype != dtype:
            self._sort(dtype)
        if self._groups is None:
            return CSRMatrix.empty(self.a.rows, self.b.cols, dtype=dtype)
        return self._groups.accumulate(self._vals, shuffle_seed)

    def _sort(self, dtype: np.dtype) -> None:
        self._dtype = self._vals = None  # one dtype held at a time
        rows, cols, vals = expand_products(self.a, self.b, dtype)
        if rows.shape[0]:
            order, keys = row_major_order(rows, cols, self.a.rows, self.b.cols)
            del rows, cols  # bounds the peak heap
            if self._groups is None:
                self._groups = _Groups.of(order, keys, self.a.rows, self.b.cols)
            del keys
            vals = vals[order]
        self._vals = vals
        self._dtype = dtype
