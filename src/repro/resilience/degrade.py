"""Graceful degradation: global-ESC fallback after unrecoverable failure.

When the adaptive pipeline cannot finish — restart budget exhausted,
non-recoverable overflow, sanitizer-detected corruption — and the caller
opted in via ``AcSpgemmOptions(on_failure="fallback")``, the driver
recomputes C with the CUSP-style global ESC baseline instead of
raising.  Global ESC needs no chunk pool: it gets one fresh conservative
allocation sized for *every* temporary product (the known worst case,
``temp × pair bytes`` double-buffered for the device-wide sort), so it
cannot hit the failure again.

The fallback is **correct and bit-stable**: global ESC expands in the
canonical row-major order and accumulates each output entry in a fixed
order behind a stable sort, so it yields exactly the Gustavson
reference's sparsity pattern with values equal up to FP summation-tree
rounding (``allclose`` at 1e-10, the repo's reference tolerance), and
repeated/degraded runs are bit-identical to each other on every engine.
A degraded ``multiply()`` still returns a correct C, merely slower and
with a worst-case memory footprint.  The degradation is recorded on the
result (``result.degraded`` / ``result.failure``) rather than hidden.

Imports are function-level: this module sits below ``repro.core`` in the
import graph but needs the baseline implementation, which must never be
imported during ``repro.resilience`` package init.
"""

from __future__ import annotations

__all__ = ["conservative_pool_bytes", "fallback_multiply"]


def conservative_pool_bytes(a, b, options) -> int:
    """Worst-case allocation for the fallback: every temporary product.

    ``2 × temp × (8-byte packed key + value)`` — the double-buffered
    device-wide sort storage of global ESC, never undersized because the
    intermediate-product count is exact, not estimated.
    """
    from ..sparse.ops import count_intermediate_products

    temp = count_intermediate_products(a, b)
    pair_bytes = 8 + options.value_dtype.itemsize
    return 2 * temp * pair_bytes


def fallback_multiply(a, b, options):
    """Recompute ``A @ B`` with the global-ESC baseline.

    Returns the baseline's :class:`~repro.baselines.base.SpGEMMRun`
    (matrix plus its own cost accounting) computed on the same simulated
    device and cost constants as the failed adaptive run.  The driver
    records it on its launch ledger as the ``FB`` stage.
    """
    from ..baselines.esc_global import EscGlobal

    algo = EscGlobal(device=options.device, costs=options.costs)
    return algo.multiply(a, b, dtype=options.value_dtype)
