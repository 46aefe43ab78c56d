"""Fault-injection, typed-error and graceful-degradation tests.

Everything here carries the ``fault`` marker so CI can run the
resilience suite on its own (``pytest -m fault``).

The acceptance bar throughout: the same :class:`FaultPlan` produces the
same exceptions, the same restart counts and a bit-identical recovered
C on both engines — also when the batched engine splits its ESC
launches into slabs.
"""

import numpy as np
import pytest

from repro import (
    AcSpgemmOptions,
    FaultPlan,
    FaultSpec,
    ReproError,
    RestartBudgetExceeded,
    ac_spgemm,
    spgemm_reference,
)
from repro.core.chunks import PoolExhausted
from repro.engine import batched
from repro.gpu import SMALL_DEVICE
from repro.gpu.memory import ScratchpadOverflow
from repro.resilience import ADVERSARIAL_MODES, corrupt_csr
from repro.sparse import validate_csr
from repro.sparse.stats import count_intermediate_products
from repro.sparse.validate import CSRValidationError
from tests.conftest import random_csr

pytestmark = pytest.mark.fault

ENGINES = ("reference", "batched")


@pytest.fixture
def operand(rng):
    return random_csr(rng, 60, 60, 0.1)


def _opts(**kwargs):
    kwargs.setdefault("device", SMALL_DEVICE)
    kwargs.setdefault("chunk_pool_lower_bound_bytes", 1 << 20)
    return AcSpgemmOptions(**kwargs)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(kind="pool_exhaust", at=3),
                FaultSpec(kind="scratchpad_overflow", stage="MM",
                          round=1, block=2),
                FaultSpec(kind="block_abort", stage="ESC", round=0, block=0),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_round_trip_drops_nothing(self):
        plan = FaultPlan.pool_exhaust_at(1, 5, 9, seed=42)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.seed == 42
        assert again == plan

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray")
        with pytest.raises(ValueError, match="'at' ordinal"):
            FaultSpec(kind="pool_exhaust")
        with pytest.raises(ValueError, match="stage"):
            FaultSpec(kind="scratchpad_overflow", stage="GLB",
                      round=0, block=0)
        with pytest.raises(ValueError, match="round"):
            FaultSpec(kind="block_abort", stage="ESC", block=0)

    def test_activation_gives_fresh_counters(self):
        plan = FaultPlan.pool_exhaust_at(1)
        inj1, inj2 = plan.activate(), plan.activate()
        assert inj1.pool_gate(64) is True
        assert inj1.admissions == 1
        assert inj2.admissions == 0  # untouched by inj1's run


class TestPoolExhaustInjection:
    def test_forces_restart_and_recovers(self, operand):
        clean = ac_spgemm(operand, operand, _opts())
        assert clean.restarts == 0
        faulty = ac_spgemm(
            operand, operand,
            _opts(fault_plan=FaultPlan.pool_exhaust_at(3)),
        )
        assert faulty.restarts == 1
        assert faulty.matrix.exactly_equal(clean.matrix)

    def test_identical_across_engines(self, operand):
        plan = FaultPlan.pool_exhaust_at(3, 40)
        results = [
            ac_spgemm(operand, operand, _opts(fault_plan=plan, engine=e))
            for e in ENGINES
        ]
        assert len({r.restarts for r in results}) == 1
        assert results[0].restarts >= 1
        for r in results[1:]:
            assert r.matrix.exactly_equal(results[0].matrix)

    def test_same_plan_same_run(self, operand):
        plan = FaultPlan.pool_exhaust_at(5)
        r1 = ac_spgemm(operand, operand, _opts(fault_plan=plan))
        r2 = ac_spgemm(operand, operand, _opts(fault_plan=plan))
        assert r1.restarts == r2.restarts
        assert r1.matrix.exactly_equal(r2.matrix)

    def test_budget_exhaustion_raises_typed(self, operand):
        # every early admission fails: no restart can make progress
        plan = FaultPlan.pool_exhaust_at(*range(1, 500))
        opts = _opts(fault_plan=plan, max_restarts=2)
        with pytest.raises(RestartBudgetExceeded) as ei:
            ac_spgemm(operand, operand, opts)
        assert ei.value.stage == "ESC"
        assert ei.value.block_id is not None
        assert ei.value.restarts == 2
        assert isinstance(ei.value, ReproError)

    def test_direct_pool_exhausted_carries_context(self):
        from repro.core.chunks import Chunk, ChunkPool
        from repro.gpu.cost import DEFAULT_COSTS, CostMeter

        pool = ChunkPool(capacity_bytes=16)
        chunk = Chunk(order_key=(7, 0), kind="data", first_row=0, last_row=0)
        with pytest.raises(PoolExhausted) as ei:
            pool.allocate(chunk, 64, CostMeter(DEFAULT_COSTS))
        assert ei.value.block_id == 7
        assert isinstance(ei.value, MemoryError)  # old except-clauses still work


class TestScratchpadOverflowInjection:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_raises_typed_with_context(self, operand, engine):
        plan = FaultPlan.single(
            "scratchpad_overflow", stage="ESC", round=0, block=0
        )
        with pytest.raises(ScratchpadOverflow) as ei:
            ac_spgemm(operand, operand, _opts(fault_plan=plan, engine=engine))
        assert ei.value.stage == "ESC"
        assert ei.value.restarts == 0
        assert "injected" in str(ei.value)

    def test_merge_stage_overflow(self, rng):
        # density 0.2 drives this matrix through the MM merge stage
        a = random_csr(rng, 80, 80, 0.2)
        plan = FaultPlan.single(
            "scratchpad_overflow", stage="MM", round=0, block=0
        )
        with pytest.raises(ScratchpadOverflow) as ei:
            ac_spgemm(a, a, _opts(fault_plan=plan))
        assert ei.value.stage == "MM"

    def test_unreached_stage_never_fires(self, operand):
        # a fault parked in a round the run never enters must be inert
        plan = FaultPlan.single(
            "scratchpad_overflow", stage="SM", round=99, block=0
        )
        clean = ac_spgemm(operand, operand, _opts())
        faulty = ac_spgemm(operand, operand, _opts(fault_plan=plan))
        assert faulty.matrix.exactly_equal(clean.matrix)


class TestSlabBoundaryParity:
    """Fault outcomes with batched ESC launches split into slabs: one
    block per slab, and about three slabs per launch."""

    @pytest.fixture(params=["block-per-slab", "mid"])
    def slabbed(self, request, operand, monkeypatch):
        budget = (
            1
            if request.param == "block-per-slab"
            else count_intermediate_products(operand, operand) // 3
        )
        monkeypatch.setattr(batched, "SLAB_ELEMENTS", budget)

    @staticmethod
    def _both(operand, **kw):
        return [
            ac_spgemm(operand, operand, _opts(engine=e, device_trace=True, **kw))
            for e in ENGINES
        ]

    @staticmethod
    def _assert_same(ref, bat):
        if not bat.degraded:  # a degraded result has no engine stats
            assert bat.engine_stats["fused_esc_slabs"] > bat.engine_stats[
                "fused_esc_launches"
            ], "the launches must split"
        assert bat.matrix.exactly_equal(ref.matrix)
        assert bat.restarts == ref.restarts
        assert bat.n_chunks == ref.n_chunks
        assert bat.stage_cycles == ref.stage_cycles
        assert bat.counters == ref.counters
        assert bat.degraded == ref.degraded
        assert bat.device_trace.to_json() == ref.device_trace.to_json()

    def test_pool_exhaust(self, operand, slabbed):
        ref, bat = self._both(
            operand, fault_plan=FaultPlan.pool_exhaust_at(3, 12, 40)
        )
        assert ref.restarts >= 1
        self._assert_same(ref, bat)

    def test_pool_exhaust_budget_raises_same(self, operand, slabbed):
        plan = FaultPlan.pool_exhaust_at(*range(1, 500))
        raised = []
        for e in ENGINES:
            with pytest.raises(RestartBudgetExceeded) as ei:
                ac_spgemm(
                    operand, operand,
                    _opts(fault_plan=plan, max_restarts=2, engine=e),
                )
            raised.append(
                (ei.value.stage, ei.value.block_id, ei.value.restarts, str(ei.value))
            )
        assert raised[0] == raised[1]

    def test_scratchpad_overflow_in_restart_round(self, operand, slabbed):
        # the restart round's launch holds only the blocks the replay
        # failed; an overflow there fires identically on both engines
        plan = FaultPlan(faults=(
            FaultSpec(kind="pool_exhaust", at=3),
            FaultSpec(kind="scratchpad_overflow", stage="ESC", round=1, block=0),
        ))
        raised = []
        for e in ENGINES:
            with pytest.raises(ScratchpadOverflow) as ei:
                ac_spgemm(operand, operand, _opts(fault_plan=plan, engine=e))
            raised.append(
                (ei.value.stage, ei.value.block_id, ei.value.restarts, str(ei.value))
            )
        assert raised[0] == raised[1]
        assert raised[0][2] == 1

    def test_scratchpad_overflow_fallback(self, operand, slabbed):
        plan = FaultPlan(faults=(
            FaultSpec(kind="pool_exhaust", at=3),
            FaultSpec(kind="scratchpad_overflow", stage="ESC", round=1, block=0),
        ))
        ref, bat = self._both(operand, fault_plan=plan, on_failure="fallback")
        assert ref.degraded
        assert bat.failure == ref.failure
        self._assert_same(ref, bat)


class TestBlockAbortInjection:
    def test_abort_costs_one_restart_same_bits(self, operand):
        clean = ac_spgemm(operand, operand, _opts())
        plan = FaultPlan.single("block_abort", stage="ESC", round=0, block=1)
        results = [
            ac_spgemm(operand, operand, _opts(fault_plan=plan, engine=e))
            for e in ENGINES
        ]
        for r in results:
            assert r.restarts == clean.restarts + 1
            assert r.matrix.exactly_equal(clean.matrix)

    def test_abort_whole_round(self, operand):
        clean = ac_spgemm(operand, operand, _opts())
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(kind="block_abort", stage="ESC", round=0, block=i)
                for i in range(64)
            )
        )
        r = ac_spgemm(operand, operand, _opts(fault_plan=plan))
        assert r.restarts >= 1
        assert r.matrix.exactly_equal(clean.matrix)


class TestGracefulDegradation:
    def _degraded(self, operand, engine="reference"):
        plan = FaultPlan.single(
            "scratchpad_overflow", stage="ESC", round=0, block=0
        )
        return ac_spgemm(
            operand, operand,
            _opts(fault_plan=plan, on_failure="fallback", engine=engine),
        )

    def test_fallback_is_recorded(self, operand):
        res = self._degraded(operand)
        assert res.degraded is True
        assert res.failure["kind"] == "ScratchpadOverflow"
        assert res.failure["stage"] == "ESC"
        assert "FB" in res.stage_cycles and res.stage_cycles["FB"] > 0

    def test_fallback_matches_reference(self, operand):
        res = self._degraded(operand)
        ref = spgemm_reference(operand, operand)
        # exact Gustavson sparsity pattern, values within FP reassociation
        assert np.array_equal(res.matrix.row_ptr, ref.row_ptr)
        assert np.array_equal(res.matrix.col_idx, ref.col_idx)
        assert res.matrix.allclose(ref, rtol=1e-10)

    def test_fallback_bit_identical_across_engines(self, operand):
        results = [self._degraded(operand, engine=e) for e in ENGINES]
        for r in results[1:]:
            assert r.matrix.exactly_equal(results[0].matrix)

    def test_pool_exhaustion_degrades(self, operand):
        plan = FaultPlan.pool_exhaust_at(*range(1, 500))
        res = ac_spgemm(
            operand, operand,
            _opts(fault_plan=plan, max_restarts=2, on_failure="fallback"),
        )
        assert res.degraded
        assert res.failure["kind"] == "RestartBudgetExceeded"
        ref = spgemm_reference(operand, operand)
        assert np.array_equal(res.matrix.col_idx, ref.col_idx)
        assert res.matrix.allclose(ref, rtol=1e-10)

    def test_clean_run_not_degraded(self, operand):
        res = ac_spgemm(operand, operand, _opts(on_failure="fallback"))
        assert res.degraded is False and res.failure is None

    def test_validation_errors_never_degrade(self, operand):
        bad = corrupt_csr(operand, "negative_index")
        with pytest.raises(CSRValidationError):
            ac_spgemm(bad, bad, _opts(on_failure="fallback"))


class TestSanitizer:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_clean_run_passes_and_matches(self, operand, engine):
        plain = ac_spgemm(operand, operand, _opts(engine=engine))
        checked = ac_spgemm(
            operand, operand, _opts(engine=engine, sanitize=True)
        )
        assert checked.matrix.exactly_equal(plain.matrix)
        assert checked.stage_cycles == plain.stage_cycles

    def test_sanitize_survives_restarts(self, operand):
        res = ac_spgemm(
            operand, operand,
            _opts(sanitize=True, fault_plan=FaultPlan.pool_exhaust_at(3)),
        )
        assert res.restarts == 1

    def test_sanitize_rejects_nonfinite_input(self, operand):
        bad = corrupt_csr(operand, "nan_value")
        with pytest.raises(CSRValidationError):
            ac_spgemm(bad, bad, _opts(sanitize=True))

    def test_tracker_check_names_the_broken_row(self):
        from repro.core import Chunk, ChunkPool, RowChunkTracker
        from repro.gpu import CostMeter
        from repro.resilience.errors import SanitizerError
        from repro.resilience.sanitize import check_tracker

        def chunk(key, rows):
            rows = np.asarray(rows, dtype=np.int64)
            return Chunk(order_key=key, kind="data", first_row=int(rows[0]),
                         last_row=int(rows[-1]), rows=rows,
                         cols=np.arange(rows.shape[0]),
                         vals=np.ones(rows.shape[0]))

        meter = CostMeter(config=SMALL_DEVICE)
        pool = ChunkPool(capacity_bytes=1 << 16)
        tracker = RowChunkTracker(n_rows=4)
        for c in (chunk((0, 0), [1, 1, 2]), chunk((1, 0), [2, 3])):
            pool.allocate(c, 64, meter)
            tracker.insert_chunk(c, None, meter)
        check_tracker(tracker, pool, stage="ESC")

        tracker.row_counts[2] += 1
        with pytest.raises(SanitizerError, match="row 2 coverage mismatch"):
            check_tracker(tracker, pool, stage="ESC")
        tracker.row_counts[2] -= 1
        tracker.insert_chunk(chunk((2, 0), [3]), None, meter)
        with pytest.raises(SanitizerError, match="row 3 links chunk .* not registered"):
            check_tracker(tracker, pool, stage="ESC")


class TestAdversarialInputs:
    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    def test_corruption_is_deterministic(self, operand, mode):
        c1 = corrupt_csr(operand, mode, seed=3)
        c2 = corrupt_csr(operand, mode, seed=3)
        assert np.array_equal(c1.col_idx, c2.col_idx)
        assert np.array_equal(c1.values, c2.values, equal_nan=True)

    @pytest.mark.parametrize(
        "mode",
        ["index_overflow", "negative_index", "unsorted_columns",
         "duplicate_columns"],
    )
    def test_structural_corruption_rejected(self, operand, mode):
        bad = corrupt_csr(operand, mode)
        with pytest.raises(CSRValidationError):
            validate_csr(bad)
        with pytest.raises(CSRValidationError):
            ac_spgemm(bad, bad, _opts())

    @pytest.mark.parametrize("mode", ["nan_value", "inf_value"])
    def test_nonfinite_needs_finite_check(self, operand, mode):
        bad = corrupt_csr(operand, mode)
        validate_csr(bad)  # structurally fine
        with pytest.raises(CSRValidationError):
            validate_csr(bad, require_finite=True)

    def test_unknown_mode_rejected(self, operand):
        with pytest.raises(ValueError, match="unknown corruption mode"):
            corrupt_csr(operand, "bit_rot")


class TestErrorHierarchy:
    def test_context_and_one_line(self):
        exc = RestartBudgetExceeded(
            "restart limit exceeded", stage="MM", block_id=4, restarts=9
        )
        ctx = exc.context()
        assert ctx["kind"] == "RestartBudgetExceeded"
        assert ctx["stage"] == "MM"
        assert ctx["block_id"] == 4
        assert ctx["restarts"] == 9
        line = exc.one_line()
        assert "\n" not in line
        assert "stage=MM" in line and "restart limit exceeded" in line

    def test_hierarchy_rebases_old_types(self):
        assert issubclass(PoolExhausted, ReproError)
        assert issubclass(PoolExhausted, MemoryError)
        assert issubclass(ScratchpadOverflow, ReproError)
        assert issubclass(ScratchpadOverflow, MemoryError)
        assert issubclass(CSRValidationError, ReproError)
        assert issubclass(CSRValidationError, ValueError)
