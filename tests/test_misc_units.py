"""Remaining unit coverage: block context, long-row policy, CPU
baseline clock, merge order keys, ``ac-spgemm`` as a line-up entry."""

import numpy as np
import pytest

from repro import AcSpgemmOptions
from repro.baselines import GustavsonCPU, make_algorithm
from repro.core import long_row_mask
from repro.core.merge import MERGE_BLOCK_SEQ_BASE, MultiMergeBlock
from repro.core.merge_path import PathMergeBlock
from repro.core.merge_search import SearchMergeBlock
from repro.gpu import BlockContext, SMALL_DEVICE, TITAN_XP
from repro.matrices import random_uniform
from tests.conftest import random_csr


class TestBlockContext:
    def test_fresh_meter_and_scratchpad(self):
        ctx = BlockContext(config=TITAN_XP, block_id=3)
        assert ctx.cycles == 0.0
        assert ctx.scratchpad.capacity_bytes == TITAN_XP.scratchpad_bytes
        assert ctx.threads == 256

    def test_meter_bound_to_config(self):
        ctx = BlockContext(config=SMALL_DEVICE, block_id=0)
        assert ctx.meter.config is SMALL_DEVICE


class TestLongRowPolicy:
    def test_threshold_is_block_capacity(self):
        opts = AcSpgemmOptions(device=SMALL_DEVICE)
        lengths = np.array([1, SMALL_DEVICE.elements_per_block,
                            SMALL_DEVICE.elements_per_block + 1])
        mask = long_row_mask(lengths, opts)
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_explicit_threshold(self):
        opts = AcSpgemmOptions(device=SMALL_DEVICE, long_row_threshold=2)
        np.testing.assert_array_equal(
            long_row_mask(np.array([1, 2, 3]), opts), [False, False, True]
        )

    def test_disabled(self):
        opts = AcSpgemmOptions(
            device=SMALL_DEVICE, enable_long_row_handling=False
        )
        assert not long_row_mask(np.array([10**6]), opts).any()


class TestMergeOrderKeys:
    def test_kind_offsets_disjoint(self):
        mm = MultiMergeBlock(block_index=5, rows=(1,))
        pm = PathMergeBlock(block_index=5, row=1)
        sm = SearchMergeBlock(block_index=5, row=1)
        keys = {
            (MERGE_BLOCK_SEQ_BASE + 5, 0),
            pm._order_key(),
            sm._order_key(),
        }
        assert len(keys) == 3

    def test_merge_keys_after_esc_keys(self):
        # ESC block ids are bounded by nnz(A) / NNZ_PER_BLOCK << 2^40
        assert MERGE_BLOCK_SEQ_BASE > 1 << 32


class TestCpuBaseline:
    def test_uses_cpu_clock(self, rng):
        a = random_csr(rng, 30, 30, 0.2)
        run = GustavsonCPU().multiply(a, a)
        assert run.clock_ghz == pytest.approx(3.6)

    def test_no_kernel_launches(self, rng):
        a = random_csr(rng, 30, 30, 0.2)
        run = GustavsonCPU().multiply(a, a)
        assert run.counters.kernel_launches == 0


class TestAcAdapter:
    """``ac-spgemm`` built by the registry's one constructor."""

    def test_options_dtype_propagates(self):
        adapter = make_algorithm("ac-spgemm")
        opts = adapter.options_for(np.float32)
        assert opts.value_dtype == np.float32

    def test_run_carries_full_result(self):
        a = random_uniform(300, 300, 4, seed=1)
        run = make_algorithm("ac-spgemm").multiply(a, a)
        assert hasattr(run, "ac_result")
        assert run.ac_result.matrix is run.matrix
        assert set(run.stage_cycles) == {
            "GLB", "ESC", "MCC", "MM", "PM", "SM", "CC",
        }

    def test_custom_options_respected(self):
        a = random_uniform(200, 200, 4, seed=2)
        base = AcSpgemmOptions(
            device=SMALL_DEVICE,
            chunk_pool_lower_bound_bytes=1 << 20,
            enable_long_row_handling=False,
        )
        adapter = make_algorithm("ac-spgemm", device=SMALL_DEVICE, options=base)
        opts = adapter.options_for(np.float64)
        assert not opts.enable_long_row_handling
        run = adapter.multiply(a, a)
        assert run.matrix.nnz > 0

    def test_options_rejected_by_fixed_function_baseline(self):
        with pytest.raises(ValueError, match="registered backend"):
            make_algorithm("cusparse", options=AcSpgemmOptions())
