"""Adaptive engine selection (§5 "choose between alternative approaches").

The selector runs one cheap inspection kernel — the Table-2-style row
statistics plus the OCEAN-style sampled output estimate — and routes
the multiply to whichever registered engine predicts the fewest cycles
for that structure.  The probe is charged like any device pass: its
cycles land in a ``SEL`` stage, its traffic in the result counters,
and its device-trace record reconciles exactly; the chosen engine then
runs *inside* the selector's span tree, so a traced adaptive run looks
like one pipeline with a routing prologue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.estimate_sampling import sampled_output_estimate
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..obs.flight import get_flight_recorder
from ..obs.ledger import LaunchLedger
from ..obs.trace import current_trace_attrs, trace_note
from ..sparse import row_temp_counts
from .base import Backend
from .registry import get_backend, register_backend

__all__ = ["SelectionFeatures", "collect_features", "AdaptiveSelector"]

#: rows of B sampled for the column-span probe.  A narrow span means
#: dynamic bit reduction shrinks ESC's sort keys enough that ESC stays
#: competitive on long rows; the ``ac-spgemm`` predictor prices its
#: column bits from it
SPAN_SAMPLE_ROWS = 64


@dataclass
class SelectionFeatures:
    """Table-2-style statistics of one multiply, plus sampled estimates."""

    rows: int
    cols: int
    inner: int
    nnz_a: int
    nnz_b: int
    temp_products: int
    mean_row_a: float
    max_row_a: float
    mean_temp_row: float
    max_temp_row: int
    #: temporary products per A non-zero (the expansion factor)
    expansion: float
    #: OCEAN-style sampled estimate of nnz(C)
    est_nnz_c: float
    #: temp products per (estimated) output entry — the compaction ratio
    compaction: float
    #: mean sampled B-row column spread over the matrix width (0.0 for
    #: width-degenerate B, which has no width to divide by)
    span_fraction: float
    row_temps: np.ndarray = field(repr=False, default=None)
    row_lengths_a: np.ndarray = field(repr=False, default=None)


def collect_features(a, b, meter=None, *, seed: int = 0) -> SelectionFeatures:
    """One inspection pass over the operands, charged to ``meter``.

    Degenerate inputs (0×n, n×0, zero nnz, ``b.cols == 0``) produce
    well-defined all-zero statistics instead of division errors.
    """
    a_lengths = np.asarray(a.row_lengths(), dtype=np.int64)
    temps = np.asarray(row_temp_counts(a, b), dtype=np.int64)
    temp = int(temps.sum())
    if meter is not None:
        meter.global_read(a.rows + 1, 4)
        meter.global_read(a.nnz, 4)
        if a.nnz:
            meter.global_read(min(a.nnz, b.rows), 4, coalesced=False)
        meter.alu(2 * a.nnz + a.rows)

    # column-span probe: first/last column id of sampled B rows
    span_fraction = 0.0
    if b.cols > 0 and b.nnz > 0:
        step = max(1, b.rows // SPAN_SAMPLE_ROWS)
        spreads = []
        sampled_reads = 0
        for r in range(0, b.rows, step):
            lo, hi = b.row_ptr[r], b.row_ptr[r + 1]
            sampled_reads += 2
            if hi - lo >= 2:
                sampled_reads += 2
                spreads.append(int(b.col_idx[hi - 1] - b.col_idx[lo]))
        if meter is not None:
            meter.global_read(sampled_reads, 4, coalesced=False)
        if spreads:
            span_fraction = float(np.mean(spreads)) / b.cols

    est_nnz_c = sampled_output_estimate(a, b, seed=seed, meter=meter)
    return SelectionFeatures(
        rows=a.rows,
        cols=b.cols,
        inner=a.cols,
        nnz_a=a.nnz,
        nnz_b=b.nnz,
        temp_products=temp,
        mean_row_a=float(a_lengths.mean()) if a.rows else 0.0,
        max_row_a=float(a_lengths.max()) if a.rows else 0.0,
        mean_temp_row=temp / a.rows if a.rows else 0.0,
        max_temp_row=int(temps.max()) if a.rows else 0,
        expansion=temp / a.nnz if a.nnz else 0.0,
        est_nnz_c=est_nnz_c,
        compaction=temp / est_nnz_c if est_nnz_c > 0 else 1.0,
        span_fraction=span_fraction,
        row_temps=temps,
        row_lengths_a=a_lengths,
    )


@register_backend
class AdaptiveSelector(Backend):
    """Route each multiply to the engine predicting the fewest cycles."""

    name = "adaptive"
    #: the hash engines may be selected
    bit_stable = False

    #: candidate order doubles as the deterministic tie-break: the
    #: bit-stable reference engine wins exact ties
    candidates = ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")

    def select(
        self,
        features,
        options: AcSpgemmOptions | None = None,
        *,
        predictions: dict[str, float] | None = None,
    ) -> str:
        """The candidate with the lowest predicted cycle count.

        ``predictions`` (from :meth:`predictions`) spares pricing every
        candidate again when the caller already has them.
        """
        if features.temp_products == 0:
            # nothing to multiply: any engine is free; keep bit-stable
            return self.candidates[0]
        if predictions is None:
            predictions = self.predictions(features, options)
        best_name = None
        best = float("inf")
        for name in self.candidates:
            if predictions[name] < best:
                best_name, best = name, predictions[name]
        return best_name

    def predictions(self, features, options: AcSpgemmOptions | None = None):
        """Per-candidate predicted cycles, in candidate order."""
        opts = options or DEFAULT_OPTIONS
        return {
            name: get_backend(name).predict_cycles(features, opts)
            for name in self.candidates
        }

    def predict_cycles(self, features, options: AcSpgemmOptions | None = None) -> float:
        return min(self.predictions(features, options).values())

    def run(self, a, b, options=None, *, ledger=None, scheduler_seed=0):
        opts = options or DEFAULT_OPTIONS
        if a.cols != b.rows:
            raise ValueError(
                f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
            )
        ledger = LaunchLedger(opts, ("SEL",), parent=ledger)
        anchor = ledger.spans.start(
            "adaptive",
            rows=a.rows,
            inner=a.cols,
            cols=b.cols,
            nnz_a=a.nnz,
            nnz_b=b.nnz,
        )

        # the routing probe is one fused inspection kernel: the
        # statistics gather and the sampled symbolic estimate share a
        # launch, so the device-side work parallelises over the SMs and
        # exactly one launch overhead reaches the makespan
        probe = self._fresh_meter(opts)
        features = collect_features(a, b, probe)
        # each candidate is priced once: the route and the flight
        # recorder's audit read the same predictions
        preds = self.predictions(features, opts)
        choice = self.select(features, opts, predictions=preds)
        trace_note("selector.choice", choice)
        sel_cycles = ledger.device_wide(
            "SEL",
            "select",
            probe,
            engine=choice,
            est_nnz_c=int(features.est_nnz_c),
            expansion=round(features.expansion, 3),
        )

        result = get_backend(choice).run(
            a, b, opts, ledger=ledger, scheduler_seed=scheduler_seed
        )
        result.stage_cycles = {**ledger.stage_cycles, **result.stage_cycles}
        ledger.counters.merge(result.counters)
        result.counters = ledger.counters
        result.spans = ledger.finish(anchor, dispatched_to=choice)
        result.dispatched_to = choice

        # flight-recorder dispatch event: the predicted makespan of each
        # candidate against what the routed engine actually spent (the
        # run minus the probe itself), with the per-decision regret
        # bound.  No wall-clock fields — replays log byte-identically.
        actual = result.total_cycles - sel_cycles
        predicted_chosen = float(preds[choice])
        abs_error = abs(actual - predicted_chosen)
        audit = {
            "kind": "dispatch",
            "chosen": choice,
            "predicted": {k: float(preds[k]) for k in sorted(preds)},
            "predicted_chosen": predicted_chosen,
            "actual_cycles": float(actual),
            "abs_error": abs_error,
            "rel_error": abs_error / actual if actual > 0 else 0.0,
            "regret_bound": max(0.0, actual - min(preds.values())),
            "degraded": result.degraded,
            "rows": a.rows,
            "cols": b.cols,
            "nnz_a": a.nnz,
            "nnz_b": b.nnz,
            "temp_products": features.temp_products,
            **current_trace_attrs(),
        }
        result.routing_audit = get_flight_recorder().record(audit)
        return result
