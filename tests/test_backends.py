"""Tests for the backend registry, the hash engines and the selector.

The contract being pinned down (docs/ARCHITECTURE.md §10):

* the registry enumerates deterministically, hands out fresh instances
  and rejects duplicate names;
* every registered engine — including both simulated hash engines —
  produces a device trace that reconciles **exactly** against stage
  cycles, counters and spans (zero tolerance, the same invariant the
  AC-SpGEMM pipeline honours);
* every engine advertising ``bit_stable=True`` is byte-identical to the
  reference pipeline on the engine-equivalence shape sweep;
* the adaptive selector makes well-defined decisions on degenerate
  inputs and surfaces its routing outcome end to end (result,
  RunRecord, campaign checkpoint);
* the OCEAN-style sampling estimator is byte-stable across processes.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro import AcSpgemmOptions, CSRMatrix, ac_spgemm
from repro.backends import (
    AdaptiveSelector,
    available_backends,
    collect_features,
    get_backend,
    is_backend,
    register_backend,
    run_backend,
)
from repro.backends.base import Backend
from repro.backends.selector import SPAN_SAMPLE_ROWS
from repro.gpu.config import TITAN_XP
from repro.gpu.cost import CostMeter
from repro.matrices import generators as g
from repro.obs.analyze import reconcile, stage_leaf_spans
from repro.resilience.faults import FaultPlan
from repro.sparse.ops import spgemm_reference
from repro.sparse.stats import squared_operands
from tests.conftest import random_csr

ENGINES = ("ac-spgemm", "adaptive", "hash-spgemm", "hashmap-spgemm")


def _traced_options(**kw) -> AcSpgemmOptions:
    return AcSpgemmOptions(device_trace=True, **kw)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_enumeration_is_deterministic_and_complete(self):
        names = available_backends()
        assert names == tuple(sorted(names))
        for name in ENGINES:
            assert name in names
            assert is_backend(name)
        assert not is_backend("nope")

    def test_instances_are_fresh(self):
        assert get_backend("adaptive") is not get_backend("adaptive")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="adaptive"):
            get_backend("no-such-engine")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):

            @register_backend
            class Dup(Backend):  # noqa: F811 - the point of the test
                name = "adaptive"

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):

            @register_backend
            class NoName(Backend):
                name = "abstract"


# ---------------------------------------------------------------------------
# exact reconciliation of every engine
# ---------------------------------------------------------------------------


class TestReconciliation:
    @pytest.mark.parametrize("name", ENGINES)
    def test_uniform(self, name):
        a, b = squared_operands(g.random_uniform(250, 250, 12, seed=81001))
        res = run_backend(name, a, b, _traced_options())
        summary = reconcile(res)
        assert summary["checked"]
        assert summary["counters_exact"] and summary["spans_exact"]

    @pytest.mark.parametrize("name", ENGINES)
    def test_skewed(self, name):
        m = g.long_row_matrix(
            300, 2.5, n_long_rows=2, long_row_len=150, seed=81002
        )
        a, b = squared_operands(m)
        res = run_backend(name, a, b, _traced_options())
        assert reconcile(res)["checked"]

    @pytest.mark.parametrize("name", ENGINES)
    def test_result_is_correct(self, name):
        a, b = squared_operands(g.power_law(300, 2.8, max_row_len=40, seed=81003))
        res = run_backend(name, a, b, AcSpgemmOptions())
        ref = spgemm_reference(a, b)
        assert res.matrix.allclose(ref, rtol=1e-10)

    @pytest.mark.parametrize("name", ENGINES)
    def test_leaf_spans_match_records(self, name):
        a, b = squared_operands(g.stencil_2d(15, seed=81004))
        res = run_backend(name, a, b, _traced_options())
        leaves = stage_leaf_spans(res.spans)
        assert len(leaves) == len(res.device_trace.records)

    @pytest.mark.parametrize(
        "name,kw",
        [(name, {}) for name in ENGINES]
        + [
            (
                "ac-spgemm",
                {"chunk_pool_bytes": 1 << 11, "chunk_pool_lower_bound_bytes": 0},
            ),
            (
                "ac-spgemm",
                {
                    "fault_plan": FaultPlan.single(
                        "scratchpad_overflow", stage="MM", round=0, block=0
                    ),
                    "on_failure": "fallback",
                },
            ),
        ],
        ids=[*ENGINES, "ac-spgemm-restart", "ac-spgemm-degraded"],
    )
    def test_trace_does_not_perturb_result(self, name, kw):
        """An untraced run builds no block metadata; every simulated
        statistic must still equal the traced run's."""
        a, b = squared_operands(g.random_uniform(200, 200, 8, seed=81005))
        plain = run_backend(name, a, b, AcSpgemmOptions(**kw))
        traced = run_backend(name, a, b, _traced_options(**kw))
        assert plain.device_trace is None and traced.device_trace is not None
        assert plain.matrix.values.tobytes() == traced.matrix.values.tobytes()
        assert plain.counters == traced.counters
        assert list(plain.stage_cycles.items()) == list(traced.stage_cycles.items())
        assert plain.multiprocessor_load == traced.multiprocessor_load
        assert plain.sm_utilization == traced.sm_utilization
        assert plain.restarts == traced.restarts
        assert plain.spans.to_dict() == traced.spans.to_dict()


# ---------------------------------------------------------------------------
# bit-stability property: advertised => byte-identical to reference
# ---------------------------------------------------------------------------


class TestBitStableParity:
    def _cases(self, rng):
        yield squared_operands(g.random_uniform(220, 220, 9, seed=81010))
        yield squared_operands(
            g.long_row_matrix(250, 2.0, n_long_rows=2, long_row_len=120, seed=81011)
        )
        sparse = random_csr(rng, 200, 200, 0.01)
        yield sparse, sparse
        dense = random_csr(rng, 70, 70, 0.5)
        yield dense, dense

    def test_every_bit_stable_engine_matches_reference(self, rng):
        stable = [n for n in available_backends() if get_backend(n).bit_stable]
        assert "ac-spgemm" in stable
        for a, b in self._cases(rng):
            ref = ac_spgemm(a, b)
            for name in stable:
                res = run_backend(name, a, b, AcSpgemmOptions())
                assert (
                    res.matrix.row_ptr.tobytes() == ref.matrix.row_ptr.tobytes()
                    and res.matrix.col_idx.tobytes()
                    == ref.matrix.col_idx.tobytes()
                    and res.matrix.values.tobytes()
                    == ref.matrix.values.tobytes()
                ), f"{name} advertises bit_stable but diverges from reference"

    def test_hash_engines_declare_instability(self):
        assert not get_backend("hash-spgemm").bit_stable
        assert not get_backend("hashmap-spgemm").bit_stable
        assert not get_backend("adaptive").bit_stable


# ---------------------------------------------------------------------------
# selector decisions and degenerate inputs
# ---------------------------------------------------------------------------


def _empty(rows: int, cols: int) -> CSRMatrix:
    return CSRMatrix(
        rows=rows,
        cols=cols,
        row_ptr=np.zeros(rows + 1, dtype=np.int64),
        col_idx=np.zeros(0, dtype=np.int64),
        values=np.zeros(0, dtype=np.float64),
    )


class TestSelectorDegenerate:
    def test_zero_by_n(self):
        a = _empty(0, 40)
        b = random_csr(np.random.default_rng(1), 40, 30, 0.2)
        res = run_backend("adaptive", a, b, _traced_options())
        assert res.matrix.shape == (0, 30)
        assert res.dispatched_to == "ac-spgemm"  # nothing to do: tie-break
        assert reconcile(res)["checked"]

    def test_n_by_zero(self):
        a = random_csr(np.random.default_rng(2), 30, 40, 0.2)
        b = _empty(40, 0)
        res = run_backend("adaptive", a, b, _traced_options())
        assert res.matrix.shape == (30, 0)
        assert res.matrix.nnz == 0
        assert reconcile(res)["checked"]

    def test_zero_nnz_operands(self):
        a, b = _empty(25, 25), _empty(25, 25)
        res = run_backend("adaptive", a, b, _traced_options())
        assert res.matrix.nnz == 0
        assert res.dispatched_to == "ac-spgemm"
        assert "SEL" in res.stage_cycles
        assert reconcile(res)["checked"]

    def test_single_all_dense_row(self):
        rows = 60
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        row_ptr[1:] = rows  # row 0 holds every column, the rest are empty
        a = CSRMatrix(
            rows=rows,
            cols=rows,
            row_ptr=row_ptr,
            col_idx=np.arange(rows, dtype=np.int64),
            values=np.ones(rows),
        )
        res = run_backend("adaptive", a, a, _traced_options())
        assert res.dispatched_to in ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")
        ref = spgemm_reference(a, a)
        assert res.matrix.allclose(ref, rtol=1e-10)
        assert reconcile(res)["checked"]

    def test_inner_dimension_mismatch_rejected(self, rng):
        a = random_csr(rng, 3, 4, 0.5)
        with pytest.raises(ValueError, match="inner dimensions"):
            run_backend("adaptive", a, a)

    def test_b_cols_zero_features_are_finite(self):
        a = random_csr(np.random.default_rng(3), 20, 15, 0.3)
        b = _empty(15, 0)
        f = collect_features(a, b)
        assert f.span_fraction == 0.0
        assert f.temp_products == 0
        assert np.isfinite(f.compaction)

    def test_selection_matches_prediction_argmin(self):
        a, b = squared_operands(g.random_uniform(280, 280, 15, seed=81020))
        sel = AdaptiveSelector()
        f = collect_features(a, b)
        preds = sel.predictions(f)
        assert sel.select(f) == min(preds, key=preds.get)

    def test_sel_stage_rides_along(self):
        a, b = squared_operands(g.random_uniform(150, 150, 6, seed=81021))
        res = run_backend("adaptive", a, b, _traced_options())
        assert list(res.stage_cycles)[0] == "SEL"
        assert res.stage_cycles["SEL"] > 0
        # the root span records the routing outcome
        assert res.spans.attrs["dispatched_to"] == res.dispatched_to


# ---------------------------------------------------------------------------
# predict once: one prediction per candidate per routed multiply
# ---------------------------------------------------------------------------


def _candidate_classes():
    return {name: type(get_backend(name)) for name in AdaptiveSelector.candidates}


@pytest.fixture
def predict_calls(monkeypatch):
    """Count ``predict_cycles`` calls per candidate engine."""
    calls = {name: 0 for name in AdaptiveSelector.candidates}
    for name, cls in _candidate_classes().items():
        orig = cls.predict_cycles

        def counting(self, *args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "predict_cycles", counting)
    return calls


class TestPredictOnce:
    def test_direct_run_prices_each_candidate_once(self, predict_calls):
        a, b = squared_operands(g.random_uniform(200, 200, 8, seed=81050))
        run_backend("adaptive", a, b)
        assert predict_calls == {name: 1 for name in AdaptiveSelector.candidates}

    def test_summa_tiles_price_each_candidate_once(self, predict_calls, monkeypatch):
        from repro.multi import NodeConfig, summa_spgemm

        runs = []
        orig_run = AdaptiveSelector.run

        def counting_run(self, *args, **kwargs):
            runs.append(1)
            return orig_run(self, *args, **kwargs)

        monkeypatch.setattr(AdaptiveSelector, "run", counting_run)
        a, b = squared_operands(g.random_uniform(120, 120, 6, seed=81051))
        summa_spgemm(a, b, NodeConfig(devices=4), backend="adaptive")
        assert len(runs) > 1
        assert predict_calls == {
            name: len(runs) for name in AdaptiveSelector.candidates
        }

    def test_flight_record_chooses_argmin_of_its_predictions(self):
        from repro.campaign.plan import tiny_entries

        chosen = set()
        inputs = [entry.build() for entry in tiny_entries()]
        inputs.append(g.random_uniform(250, 250, 12, seed=81052))
        for m in inputs:
            self._check_audit(*squared_operands(m), chosen)
        # the inputs exercise every candidate as the argmin
        assert chosen == set(AdaptiveSelector.candidates)

    @staticmethod
    def _check_audit(a, b, chosen):
        res = run_backend("adaptive", a, b)
        audit = res.routing_audit
        predicted = audit["predicted"]
        argmin = min(AdaptiveSelector.candidates, key=predicted.__getitem__)
        assert audit["chosen"] == argmin == res.dispatched_to
        assert audit["predicted_chosen"] == predicted[argmin]
        chosen.add(argmin)

    def test_forced_tie_routes_to_ac_spgemm(self, monkeypatch):
        for cls in _candidate_classes().values():
            monkeypatch.setattr(cls, "predict_cycles", lambda self, f, o=None: 1234.0)
        a, b = squared_operands(g.random_uniform(150, 150, 8, seed=81055))
        f = collect_features(a, b)
        assert f.temp_products > 0
        assert AdaptiveSelector().select(f) == "ac-spgemm"
        res = run_backend("adaptive", a, b)
        assert res.dispatched_to == "ac-spgemm"
        assert res.routing_audit["chosen"] == "ac-spgemm"


# ---------------------------------------------------------------------------
# prediction accuracy: the op-list replay keeps hash engines honest
# ---------------------------------------------------------------------------


class TestPredictionAccuracy:
    @pytest.mark.parametrize("name", ("hash-spgemm", "hashmap-spgemm"))
    def test_hash_engine_prediction_within_five_percent(self, name):
        a, b = squared_operands(g.random_uniform(300, 300, 14, seed=81030))
        f = collect_features(a, b)
        opts = AcSpgemmOptions()
        predicted = get_backend(name).predict_cycles(f, opts)
        actual = run_backend(name, a, b, opts).total_cycles
        assert abs(predicted - actual) / actual < 0.05


# ---------------------------------------------------------------------------
# sampling estimator (satellite: seed handling + cross-process stability)
# ---------------------------------------------------------------------------


_SUBPROCESS_SNIPPET = """
import sys
import numpy as np
from repro.core.estimate_sampling import sampled_output_estimate
from repro.matrices import generators as g
from repro.sparse.stats import squared_operands

a, b = squared_operands(g.random_uniform(240, 240, 10, seed=81040))
vals = [sampled_output_estimate(a, b, seed=s) for s in (0, 7, 123)]
gen = np.random.default_rng(7)
vals.append(sampled_output_estimate(a, b, seed=gen))
print(repr(vals))
"""


class TestSamplingEstimator:
    def test_seed_like_accepts_generator(self):
        from repro.core.estimate_sampling import sampled_output_estimate

        a, b = squared_operands(g.random_uniform(200, 200, 8, seed=81041))
        by_int = sampled_output_estimate(a, b, seed=9)
        by_gen = sampled_output_estimate(a, b, seed=np.random.default_rng(9))
        assert by_int == by_gen

    def test_cross_process_byte_stability(self):
        outs = [
            subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SNIPPET],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert "[" in outs[0]

    def test_estimator_option_reaches_pipeline(self):
        a, b = squared_operands(g.random_uniform(220, 220, 10, seed=81042))
        res = ac_spgemm(a, b, _traced_options(estimator="sampling"))
        assert reconcile(res)["checked"]
        # the sampled symbolic pass is a visible, accounted device pass
        leaves = [s.name for s in stage_leaf_spans(res.spans)]
        assert "estimate.sample" in leaves
        # and the answer is unchanged from the uniform-estimator run
        ref = ac_spgemm(a, b)
        assert res.matrix.values.tobytes() == ref.matrix.values.tobytes()

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            AcSpgemmOptions(estimator="psychic")


# ---------------------------------------------------------------------------
# selector probe accounting
# ---------------------------------------------------------------------------


class TestSelectorProbe:
    def test_probe_counts_actual_sampled_reads(self):
        # B row r holds r % 4 entries: the sampled rows mix lengths 0-3
        rows = 200
        pattern = np.zeros((rows, rows))
        for r in range(rows):
            pattern[r, (np.arange(r % 4) * 37 + r) % rows] = 1.0
        b = CSRMatrix.from_dense(pattern)
        a = random_csr(np.random.default_rng(5), 30, rows, 0.1)
        meter = CostMeter(config=TITAN_XP)
        reads = []
        charge = meter.global_read

        def spy(n, nbytes, *, coalesced=True):
            reads.append((n, nbytes, coalesced))
            charge(n, nbytes, coalesced=coalesced)

        meter.global_read = spy
        collect_features(a, b, meter)
        # 2 reads (the row-pointer pair) per sampled B row, plus 2 (the
        # first and last column id) per sampled row of 2 or more entries
        step = max(1, b.rows // SPAN_SAMPLE_ROWS)
        lengths = b.row_lengths()[::step]
        expected = 2 * len(lengths) + 2 * int((lengths >= 2).sum())
        assert 0 < (lengths < 2).sum() < len(lengths)
        # the row statistics' three reads come first, then the span probe
        assert reads[:4] == [
            (a.rows + 1, 4, True),
            (a.nnz, 4, True),
            (min(a.nnz, b.rows), 4, False),
            (expected, 4, False),
        ]

    def test_narrow_span_keeps_structured_dense_on_ac_spgemm(self):
        # long rows (about 63 entries) but a narrow column span: bit
        # reduction shrinks ESC's sort keys
        a = g.banded(600, 32, seed=3)
        f = collect_features(a, a)
        assert f.span_fraction < 0.25
        assert AdaptiveSelector().select(f) == "ac-spgemm"
        ac = get_backend("ac-spgemm")
        opts = AcSpgemmOptions()
        wide = dataclasses.replace(f, span_fraction=1.0)
        assert ac.predict_cycles(f, opts) < ac.predict_cycles(wide, opts)


# ---------------------------------------------------------------------------
# harness / campaign threading
# ---------------------------------------------------------------------------


class TestDispatchThreading:
    def test_run_record_carries_dispatched_to(self):
        from repro.bench.harness import MatrixCase, run_case

        case = MatrixCase("t", g.random_uniform(150, 150, 7, seed=81050))
        rec = run_case(case, "adaptive", verify=False)
        assert rec.algorithm == "adaptive"
        assert rec.dispatched_to in ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")
        rec_fixed = run_case(case, "ac-spgemm", verify=False)
        assert rec_fixed.dispatched_to == ""
        # the field round-trips through the cache serialisation
        from repro.bench.harness import RunRecord

        assert RunRecord.from_json(rec.to_json()).dispatched_to == rec.dispatched_to

    def test_campaign_config_accepts_backend_algorithms(self):
        from repro.campaign.plan import CampaignConfig, CampaignError

        cfg = CampaignConfig(
            suite="tiny", algorithms=("ac-spgemm", "adaptive", "hash-spgemm")
        )
        assert "adaptive" in cfg.algorithms
        with pytest.raises(CampaignError):
            CampaignConfig(suite="tiny", algorithms=("warp-drive",))
        with pytest.raises(CampaignError):
            CampaignConfig(suite="tiny", estimator="psychic")

    def test_worker_applies_options_to_backend_cells(self):
        from repro.backends.adapter import BackendAlgorithm
        from repro.baselines import make_algorithm
        from repro.campaign.plan import CellSpec
        from repro.campaign.worker import _algorithm_for
        from repro.core.options import AcSpgemmOptions as Opts

        opts = Opts(estimator="sampling")
        for name in ("ac-spgemm", "adaptive"):
            alg = make_algorithm(name, options=opts)
            assert isinstance(alg, BackendAlgorithm)
            assert alg.options_for(np.float64).estimator == "sampling"
            cell = CellSpec(index=0, matrix="m", algorithm=name, dtype="float64")
            built = _algorithm_for(cell, opts)
            assert built.options_for(np.float64).estimator == "sampling"
            # no options: the plain name goes through the registry
            assert _algorithm_for(cell, None) == name
        # a fixed-function baseline runs stock under any campaign options
        cell = CellSpec(index=0, matrix="m", algorithm="cusparse", dtype="float64")
        assert _algorithm_for(cell, opts) == "cusparse"
