"""Multi-device SUMMA: partitioning, determinism, pipelining, faults.

The determinism tests pin the numerical contract documented in
:mod:`repro.multi.summa`:

* P=1 returns the single-device product verbatim (any values);
* the merged *pattern* is byte-identical to the single-device product
  for every P;
* integer-valued workloads (the AMG Galerkin chain) are **byte-
  identical** across P, across host engines, and across the pipelined /
  blocking broadcast modes — integer sums are exact in float64 under
  any summation order;
* fixed (P, backend, mode) runs are byte-reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.matrices.generators import (
    aggregation_prolongation,
    poisson_2d,
    random_uniform,
)
from repro.multi import (
    GridPartition,
    NodeConfig,
    SummaReconciliationError,
    assemble_tiles,
    merged_trace_view,
    split_points,
    summa_spgemm,
)
from repro.obs.analyze import reconcile
from repro.obs.export import summa_perfetto_payload, validate_perfetto
from repro.resilience import FaultPlan
from repro.sparse import spgemm_reference, transpose


def _bytes_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return x.tobytes() == y.tobytes()


class TestPartition:
    def test_split_points_cover(self):
        pts = split_points(10, 3)
        assert pts[0] == 0 and pts[-1] == 10
        widths = [b - a for a, b in zip(pts, pts[1:])]
        assert sum(widths) == 10 and max(widths) - min(widths) <= 1

    def test_partition_conserves_nnz(self):
        a = random_uniform(37, 29, 5, seed=11)
        b = random_uniform(29, 23, 4, seed=12)
        part = GridPartition.build(a, b, 3)
        total = sum(
            part.a_tile(a, i, k).nnz for i in range(3) for k in range(3)
        )
        assert total == a.nnz
        total_b = sum(
            part.b_tile(b, k, j).nnz for k in range(3) for j in range(3)
        )
        assert total_b == b.nnz

    def test_assemble_round_trips_bytes(self):
        # square operands make row/inner/col splits coincide, so C-tiles
        # of the identity partition reassemble the original bytes
        a = random_uniform(31, 31, 4, seed=13)
        part = GridPartition.build(a, a, 3)
        tiles = [
            [part.a_tile(a, i, j) for j in range(3)] for i in range(3)
        ]
        back = assemble_tiles(tiles, part)
        assert back.exactly_equal(a)

    def test_inner_dimension_mismatch(self):
        a = random_uniform(10, 8, 2, seed=1)
        b = random_uniform(9, 10, 2, seed=2)
        with pytest.raises(ValueError):
            GridPartition.build(a, b, 2)


class TestNodeConfig:
    def test_devices_must_be_square(self):
        with pytest.raises(ValueError):
            NodeConfig(devices=3)

    def test_colors_limited(self):
        with pytest.raises(ValueError):
            NodeConfig(colors_per_bus=3)

    def test_broadcast_cycles_model(self):
        node = NodeConfig(link_latency_cycles=100.0, link_bytes_per_cycle=8.0)
        assert node.broadcast_cycles(80) == 100.0 + 10.0


class TestDeterminism:
    def test_p1_verbatim_any_floats(self):
        a = random_uniform(90, 80, 6, seed=3)
        b = random_uniform(80, 70, 5, seed=4)
        opts = AcSpgemmOptions()
        single = ac_spgemm(a, b, opts)
        res = summa_spgemm(a, b, NodeConfig(devices=1), opts,
                           backend="ac-spgemm")
        assert res.matrix.exactly_equal(single.matrix)

    def test_pattern_bytes_identical_any_floats(self):
        a = random_uniform(90, 80, 6, seed=5)
        b = random_uniform(80, 70, 5, seed=6)
        opts = AcSpgemmOptions()
        single = ac_spgemm(a, b, opts)
        res = summa_spgemm(a, b, NodeConfig(devices=4), opts,
                           backend="ac-spgemm")
        assert _bytes_equal(res.matrix.row_ptr, single.matrix.row_ptr)
        assert _bytes_equal(res.matrix.col_idx, single.matrix.col_idx)
        assert res.matrix.allclose(single.matrix, rtol=1e-12)

    @pytest.mark.parametrize("devices", [1, 4, 9])
    def test_integer_chain_byte_identical_across_p(self, devices):
        # Galerkin A @ P on the 5-point Laplacian: integer entries, so
        # values are exact under any merge order
        a = poisson_2d(18)
        p = aggregation_prolongation(18)
        opts = AcSpgemmOptions()
        single = ac_spgemm(a, p, opts)
        res = summa_spgemm(a, p, NodeConfig(devices=devices), opts,
                           backend="ac-spgemm")
        assert res.matrix.exactly_equal(single.matrix)

    def test_chained_rap_byte_identical(self):
        a = poisson_2d(16)
        p = aggregation_prolongation(16)
        r = transpose(p)
        opts = AcSpgemmOptions()
        node = NodeConfig(devices=4)
        ap = summa_spgemm(a, p, node, opts, backend="ac-spgemm")
        rap = summa_spgemm(r, ap.matrix, node, opts, backend="ac-spgemm")
        ref = spgemm_reference(r, spgemm_reference(a, p))
        assert rap.matrix.exactly_equal(
            ac_spgemm(r, ac_spgemm(a, p, opts).matrix, opts).matrix
        )
        assert rap.matrix.allclose(ref)

    def test_engine_equivalence_reference_vs_batched(self):
        a = poisson_2d(12)
        node = NodeConfig(devices=4)
        ref = summa_spgemm(
            a, a, node, AcSpgemmOptions(engine="reference"),
            backend="ac-spgemm",
        )
        batched = summa_spgemm(
            a, a, node, AcSpgemmOptions(engine="batched"),
            backend="ac-spgemm",
        )
        assert ref.matrix.exactly_equal(batched.matrix)

    def test_mode_byte_identity_and_run_to_run(self):
        a = random_uniform(100, 100, 7, seed=9)
        opts = AcSpgemmOptions()
        node = NodeConfig(devices=4)
        r1 = summa_spgemm(a, a, node, opts, pipelined=True)
        r2 = summa_spgemm(a, a, node, opts, pipelined=True)
        r3 = summa_spgemm(a, a, node, opts, pipelined=False)
        assert r1.matrix.exactly_equal(r2.matrix)
        # the broadcast mode only changes the modeled timeline
        assert r1.matrix.exactly_equal(r3.matrix)


class TestPipeline:
    def test_overlap_strictly_beats_blocking(self):
        # uniform structure puts receive-dependent tiles on the critical
        # path (a banded matrix at g=2 can hide them: the slowest device
        # owns its own heavy diagonal tiles and never waits on a bus)
        a = random_uniform(100, 100, 6, seed=8)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions())
        assert res.makespan_pipelined < res.makespan_blocking
        assert res.overlap_saved_cycles > 0
        assert res.makespan_cycles == res.makespan_pipelined

    def test_overlap_on_integer_stencil_grid(self):
        # the 3x3 grid exposes off-diagonal rounds on the critical path
        a = poisson_2d(48)
        res = summa_spgemm(a, a, NodeConfig(devices=9), AcSpgemmOptions())
        assert res.makespan_pipelined < res.makespan_blocking

    def test_blocking_mode_reports_its_own_makespan(self):
        a = poisson_2d(16)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions(),
                           pipelined=False)
        assert res.makespan_cycles == res.makespan_blocking

    def test_round_records_colored(self):
        a = poisson_2d(16)
        res = summa_spgemm(a, a, NodeConfig(devices=9), AcSpgemmOptions())
        colors = [rec["color"] for rec in res.round_records]
        assert colors == [0, 1, 0]


class TestReconcile:
    def test_reconcile_passes(self):
        a = random_uniform(80, 80, 6, seed=21)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions())
        recon = res.reconcile()
        assert recon["links_exact"] and recon["counters_exact"]
        assert recon["nnz_conserved"] and recon["stage_cycles_exact"]

    def test_tampering_detected(self):
        a = random_uniform(80, 80, 6, seed=22)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions())
        key = sorted(res.link_counters)[0]
        res.link_counters[key].bytes_sent += 1
        with pytest.raises(SummaReconciliationError):
            res.reconcile()

    def test_stage_tampering_detected(self):
        a = random_uniform(80, 80, 6, seed=23)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions())
        res.stage_cycles["LMUL"] += 1.0
        with pytest.raises(SummaReconciliationError):
            res.reconcile()


class TestMergedTrace:
    def test_merged_trace_reconciles_exactly(self):
        a = random_uniform(90, 90, 6, seed=31)
        res = summa_spgemm(
            a, a, NodeConfig(devices=4),
            AcSpgemmOptions(device_trace=True),
            backend="ac-spgemm",
        )
        view = merged_trace_view(res)
        report = reconcile(view)
        assert report["checked"]
        assert report["stage_cycles_exact"]
        assert report["counters_exact"]
        assert report["sm_busy_exact"]
        assert report["spans_exact"]

    def test_sm_ids_namespaced_disjoint(self):
        a = random_uniform(90, 90, 6, seed=32)
        res = summa_spgemm(
            a, a, NodeConfig(devices=4),
            AcSpgemmOptions(device_trace=True),
            backend="ac-spgemm",
        )
        view = merged_trace_view(res)
        per_dev = res.tile_runs[(0, 0, 0)].result.device_trace.num_sms
        ordinals = set()
        for _, ev in view.device_trace.block_events():
            if ev.sm >= 0:
                ordinals.add(ev.sm // per_dev)
        assert ordinals == {0, 1, 2, 3}

    def test_requires_device_trace(self):
        a = random_uniform(50, 50, 4, seed=33)
        res = summa_spgemm(a, a, NodeConfig(devices=4), AcSpgemmOptions())
        with pytest.raises(ValueError):
            merged_trace_view(res)


class TestFaults:
    def test_degraded_tile_keeps_integer_result_exact(self):
        a = poisson_2d(16)
        opts = AcSpgemmOptions(on_failure="fallback", max_restarts=0)
        plan = FaultPlan.pool_exhaust_at(1)
        single = ac_spgemm(a, a, AcSpgemmOptions())
        res = summa_spgemm(
            a, a, NodeConfig(devices=4), opts,
            backend="ac-spgemm",
            tile_fault_plans={(0, 1, 0): plan},
        )
        assert res.degraded_tiles == [(0, 1, 0)]
        assert res.matrix.exactly_equal(single.matrix)
        res.reconcile()


class TestPerfetto:
    def test_payload_validates_all_grids(self):
        a = random_uniform(80, 80, 5, seed=41)
        for devices in (1, 4):
            res = summa_spgemm(
                a, a, NodeConfig(devices=devices),
                AcSpgemmOptions(device_trace=True),
                backend="ac-spgemm",
            )
            payload = summa_perfetto_payload(res)
            validate_perfetto(payload)
            pids = {e["pid"] for e in payload["traceEvents"]}
            # node narrative plus two rows (spans + SMs) per device
            assert len(pids) == 1 + 2 * devices
