"""Fault-injection, typed-error and graceful-degradation tests.

Everything here carries the ``fault`` marker so CI can run the
resilience suite on its own (``pytest -m fault``).

The acceptance bar throughout: the same :class:`FaultPlan` produces the
same exceptions, the same restart counts and a bit-identical recovered
C on both engines.
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
from repro.gpu import SMALL_DEVICE
from repro.gpu.memory import ScratchpadOverflow
from repro.resilience import ADVERSARIAL_MODES, corrupt_csr
from repro.sparse import validate_csr
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
