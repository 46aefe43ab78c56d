"""Backend protocol for first-class SpGEMM engines.

A *backend* is a full simulated-GPU SpGEMM implementation: it runs
through ``repro.gpu`` (scratchpad occupancy, traffic counters, kernel
scheduling), emits a span tree, optionally records a device trace, and
returns the same :class:`~repro.core.acspgemm.AcSpgemmResult` the
AC-SpGEMM driver produces — so every downstream consumer (bench
harness, campaign runner, serve daemon, analyzers) works unchanged.

This is the tier above the ``baselines`` package: baselines are
host-side cost sketches compared in a lineup; backends are engines a
multiply can actually be routed to, including by the adaptive selector
(the paper's §5 "choose between alternative approaches" future work).
"""

from __future__ import annotations

import numpy as np

from ..core.options import AcSpgemmOptions
from ..gpu.cost import BlockArrayMeter, CostMeter
from ..obs.ledger import LaunchLedger

__all__ = ["Backend"]


class Backend:
    """One registered SpGEMM engine.

    Subclasses set ``name`` / ``bit_stable`` and implement :meth:`run`
    plus :meth:`predict_cycles` (the closed-form cost estimate the
    adaptive selector ranks engines by).
    """

    #: registry key; also what ``--engine`` and ``dispatched_to`` carry
    name: str = "abstract"
    #: True when repeated runs (any scheduler seed) are byte-identical
    #: to the sorted-accumulation reference product
    bit_stable: bool = True

    def run(
        self,
        a,
        b,
        options: AcSpgemmOptions | None = None,
        *,
        ledger: LaunchLedger | None = None,
        scheduler_seed: int = 0,
    ):
        """Compute ``C = A @ B`` on the simulated device.

        ``ledger`` nests the run inside a caller's recording context
        (the adaptive selector); by default the backend owns its spans
        and device trace.  Returns an
        :class:`~repro.core.acspgemm.AcSpgemmResult`.
        """
        raise NotImplementedError

    def predict_cycles(self, features, options: AcSpgemmOptions) -> float:
        """Estimated total cycles for a multiply with these
        :class:`~repro.backends.selector.SelectionFeatures` — computed
        from the same cost constants the engine charges, so predictions
        track the model instead of hand-tuned thresholds."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------

    @staticmethod
    def _fresh_meter(opts: AcSpgemmOptions) -> CostMeter:
        return CostMeter(config=opts.device, constants=opts.costs)

    @staticmethod
    def _block_meter(opts: AcSpgemmOptions, n: int) -> BlockArrayMeter:
        """Meters for the ``n`` blocks of one launch, priced as arrays."""
        return BlockArrayMeter(opts.device, n, opts.costs)

    @staticmethod
    def _key_bits(n_cols: int) -> int:
        """Sort-key width for full column indices."""
        return max(1, int(np.ceil(np.log2(max(2, n_cols)))))
