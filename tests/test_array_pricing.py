"""Whole-launch array pricing: the block-array meter and its users.

Pinned down here:

* :class:`~repro.gpu.cost.BlockArrayMeter` equals ``n`` independent
  :class:`~repro.gpu.cost.CostMeter`\\ s bit for bit (cycles and every
  traffic counter) on random op sequences;
* :meth:`~repro.gpu.cost.CostMeter.global_reads` equals one
  ``global_read`` call per count, bit for bit;
* the vectorised helpers the hash engines and the AC-SpGEMM predictor
  build their block plans from match the scalar formulas they replace
  (temporary products per row, bit widths, the greedy row partition,
  the scratchpad capacity check);
* the simulated output of the array-priced engines and predictors is
  pinned: stage cycles, merged counters and device traces of both hash
  engines, and every candidate's prediction, hash to the values the
  per-block ``CostMeter`` pricing produced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AcSpgemmOptions, CSRMatrix
from repro.backends import collect_features, get_backend, run_backend
from repro.backends.hash_engines import _row_block_starts
from repro.campaign.plan import tiny_entries
from repro.gpu import SMALL_DEVICE, TITAN_XP, CostMeter, ScratchpadOverflow
from repro.gpu.cost import BlockArrayMeter
from repro.gpu.memory import Scratchpad, layout_high_water
from repro.gpu.radix import bits_required, bits_required_array
from repro.matrices import generators as g
from repro.sparse import row_temp_counts
from repro.sparse.stats import squared_operands

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# BlockArrayMeter == n CostMeters
# ---------------------------------------------------------------------------

#: counts a block may be charged: no-ops, small, and near 2**40
COUNTS = st.one_of(
    st.integers(-3, 0),
    st.integers(1, 5000),
    st.integers(2**40 - 1000, 2**40 + 1000),
)

START_CYCLES = st.one_of(
    st.just(0.0),
    st.floats(0, 1e7, allow_nan=False, allow_infinity=False),
    st.integers(1, 60).map(lambda k: float(np.nextafter(2.0**k, 0.0))),
)


@st.composite
def op_sequences(draw):
    """(n_blocks, start cycles, ops); each op is (method, args, kwargs)
    where a list argument holds one count per block and a scalar
    broadcasts.  Start cycles just below a power of two make the next
    addition change binade, so a term added out of order rounds
    differently and shows up in the low bits."""
    n = draw(st.integers(1, 5))
    start = draw(st.lists(START_CYCLES, min_size=n, max_size=n))
    per_block = st.lists(COUNTS, min_size=n, max_size=n)
    counts = st.one_of(per_block, COUNTS)
    elem_bytes = st.sampled_from([1, 4, 8, 12, 40, 64])
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(
            st.sampled_from(
                [
                    "global_read",
                    "global_write",
                    "scratchpad",
                    "alu",
                    "flops",
                    "radix_sort",
                    "scan",
                    "atomic",
                    "hash_probe",
                    "hash_collision",
                    "kernel_launch",
                    "host_round_trip",
                ]
            )
        )
        if kind in ("global_read", "global_write"):
            op = (kind, (draw(counts), draw(elem_bytes)),
                  {"coalesced": draw(st.booleans())})
        elif kind == "radix_sort":
            bits = st.integers(-5, 70)
            key_bits = draw(st.one_of(bits, st.lists(bits, min_size=n, max_size=n)))
            op = (kind, (draw(counts), key_bits), {})
        elif kind == "hash_probe":
            op = (kind, (draw(counts),), {"in_scratchpad": draw(st.booleans())})
        elif kind in ("kernel_launch", "host_round_trip"):
            op = (kind, (draw(st.integers(0, 3)),), {})
        else:
            op = (kind, (draw(counts),), {})
        ops.append(op)
    return n, start, ops


def _block_args(args, i):
    return tuple(a[i] if isinstance(a, list) else a for a in args)


@pytest.mark.parametrize("config", [TITAN_XP, SMALL_DEVICE], ids=["titan", "small"])
@SETTINGS
@given(seq=op_sequences())
def test_block_array_meter_matches_independent_cost_meters(config, seq):
    n, start, ops = seq
    arrays = BlockArrayMeter(config, n)
    arrays.cycles[:] = start
    meters = [CostMeter(config=config, cycles=c) for c in start]
    for kind, args, kwargs in ops:
        getattr(arrays, kind)(*args, **kwargs)
        for i, m in enumerate(meters):
            getattr(m, kind)(*_block_args(args, i), **kwargs)
    snaps = arrays.snapshots()
    for i, m in enumerate(meters):
        # bit for bit: compare the IEEE representation, not a tolerance
        assert float(arrays.cycles[i]).hex() == float(m.cycles).hex()
        assert snaps[i] == m.counters.snapshot()
        assert all(type(v) is int for v in snaps[i].values())
    total = CostMeter(config=config)
    for m in meters:
        total.merge(m)
    assert arrays.totals() == total.counters


@pytest.mark.parametrize("config", [TITAN_XP, SMALL_DEVICE], ids=["titan", "small"])
@SETTINGS
@given(
    start=START_CYCLES,
    sizes=st.lists(COUNTS, max_size=12),
    elem_bytes=st.sampled_from([1, 4, 8, 12, 40, 64]),
)
def test_global_reads_match_one_global_read_per_count(
    config, start, sizes, elem_bytes
):
    one = CostMeter(config=config, cycles=start)
    one.global_reads(np.asarray(sizes, dtype=np.int64), elem_bytes)
    each = CostMeter(config=config, cycles=start)
    for size in sizes:
        each.global_read(size, elem_bytes)
    assert float(one.cycles).hex() == float(each.cycles).hex()
    assert type(one.cycles) is float
    assert one.counters.snapshot() == each.counters.snapshot()
    assert all(type(v) is int for v in one.counters.snapshot().values())


def test_block_array_meter_empty_launch():
    m = BlockArrayMeter(TITAN_XP, 0)
    m.global_read(np.zeros(0, dtype=np.int64), 8)
    m.radix_sort(np.zeros(0, dtype=np.int64), 16)
    assert m.cycles.shape == (0,)
    assert m.snapshots() == []
    assert m.totals().snapshot() == CostMeter(config=TITAN_XP).counters.snapshot()


# ---------------------------------------------------------------------------
# row_temp_counts: cumsum difference vs the scatter-add formula
# ---------------------------------------------------------------------------


def _row_temp_counts_scatter(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """The per-entry scatter-add formula the cumsum difference replaced."""
    counts = np.zeros(a.rows, dtype=np.int64)
    if a.nnz == 0 or b.nnz == 0:
        return counts
    expand = b.row_lengths()[a.col_idx]
    a_rows = np.repeat(np.arange(a.rows, dtype=np.int64), a.row_lengths())
    np.add.at(counts, a_rows, expand)
    return counts


def _csr(rows: int, cols: int, row_cols: dict[int, list[int]]) -> CSRMatrix:
    dense = np.zeros((rows, cols))
    for r, cs in row_cols.items():
        dense[r, cs] = 1.0
    return CSRMatrix.from_dense(dense)


def _empty(rows: int, cols: int) -> CSRMatrix:
    return CSRMatrix(
        rows=rows,
        cols=cols,
        row_ptr=np.zeros(rows + 1, dtype=np.int64),
        col_idx=np.zeros(0, dtype=np.int64),
        values=np.zeros(0),
    )


@pytest.mark.parametrize(
    "a,b",
    [
        # empty rows between populated ones
        (
            _csr(6, 5, {1: [0, 4], 4: [2]}),
            _csr(5, 7, {0: [1, 2], 2: [6], 4: [0, 3, 5]}),
        ),
        # nnz(A) == 0
        (_empty(4, 5), _csr(5, 3, {0: [1], 3: [0, 2]})),
        # nnz(B) == 0
        (_csr(4, 5, {0: [1, 3]}), _empty(5, 6)),
        # B with no columns
        (_csr(3, 4, {2: [0, 1, 3]}), _empty(4, 0)),
        # one long row of A over every column
        (
            _csr(3, 50, {1: list(range(50))}),
            _csr(50, 9, {k: [k % 9] for k in range(50)}),
        ),
        # no rows at all
        (_empty(0, 4), _csr(4, 4, {0: [0]})),
    ],
    ids=["empty-rows", "a-nnz0", "b-nnz0", "b-cols0", "long-row", "zero-rows"],
)
def test_row_temp_counts_matches_scatter_add(a, b):
    got = row_temp_counts(a, b)
    want = _row_temp_counts_scatter(a, b)
    assert got.dtype == np.int64
    assert got.shape == (a.rows,)
    np.testing.assert_array_equal(got, want)


def test_row_temp_counts_random(rng):
    from tests.conftest import random_csr

    for density in (0.02, 0.2, 0.7):
        a = random_csr(rng, 40, 30, density)
        b = random_csr(rng, 30, 25, density)
        np.testing.assert_array_equal(
            row_temp_counts(a, b), _row_temp_counts_scatter(a, b)
        )


# ---------------------------------------------------------------------------
# block-plan helpers
# ---------------------------------------------------------------------------


def test_bits_required_array_matches_scalar():
    values = [0, 1, 2, 3, 4, 255, 256, 2**31 - 1, 2**40, 2**62, 2**63 - 1]
    assert bits_required_array(values).tolist() == [bits_required(v) for v in values]
    with pytest.raises(ValueError):
        bits_required_array([3, -1])


def _row_block_starts_loop(temps, cap):
    """The row-by-row greedy partition the searchsorted walk replaced."""
    starts, acc = [], 0
    for r, t in enumerate(int(x) for x in temps):
        if r == 0:
            starts.append(0)
        elif acc and acc + t > cap:
            starts.append(r)
            acc = 0
        acc += t
    return starts


@SETTINGS
@given(
    temps=st.lists(
        st.one_of(st.just(0), st.integers(1, 50), st.integers(100, 400)),
        max_size=60,
    ),
    cap=st.integers(0, 200),
)
def test_row_block_starts_matches_greedy_loop(temps, cap):
    arr = np.asarray(temps, dtype=np.int64)
    assert _row_block_starts(arr, cap).tolist() == _row_block_starts_loop(arr, cap)


#: the batched ESC engine's scratchpad layout, in allocation order
ESC_LAYOUT = ("A_cols", "A_vals", "A_rows", "WDState", "ESC_keys", "ESC_vals")


def test_scratch_check_raises_like_scratchpad_alloc():
    cap = TITAN_XP.scratchpad_bytes
    ok = np.array([0, 128, cap], dtype=np.int64)
    np.testing.assert_array_equal(layout_high_water(TITAN_XP, {"tables": ok}), ok)
    with pytest.raises(ScratchpadOverflow) as direct:
        Scratchpad.for_device(TITAN_XP).alloc("tables", cap + 8)
    with pytest.raises(ScratchpadOverflow) as vectorised:
        layout_high_water(
            TITAN_XP, {"tables": np.array([64, cap + 8, cap + 16], dtype=np.int64)}
        )
    assert str(vectorised.value) == str(direct.value)

    # the six-name ESC layout over three blocks: block 0 fits, block 1
    # overflows at the 4th, 5th or 6th allocation and block 2 at the
    # first; block 1 raises the text of one-by-one alloc_array calls
    for failing in (3, 4, 5):
        blocks = [[64] * 6, [cap // 8] * 3 + [256] * 3, [cap + 4] + [4] * 5]
        blocks[1][failing] = cap // 2 + cap // 4
        layout = {
            name: np.array([blk[i] for blk in blocks], dtype=np.int64)
            for i, name in enumerate(ESC_LAYOUT)
        }
        pad = Scratchpad.for_device(TITAN_XP)
        with pytest.raises(ScratchpadOverflow) as sequential:
            for name, n_bytes in zip(ESC_LAYOUT, blocks[1]):
                pad.alloc_array(name, n_bytes // 4, 4)
        assert f"{ESC_LAYOUT[failing]!r} needs" in str(sequential.value)
        assert "existing: {'A_cols'" in str(sequential.value)
        with pytest.raises(ScratchpadOverflow) as vectorised:
            layout_high_water(TITAN_XP, layout)
        assert str(vectorised.value) == str(sequential.value)

    # a fitting layout's high water is its total; scalar sizes broadcast
    fits = {"A_cols": np.array([8, 16], dtype=np.int64), "ESC_vals": 100}
    np.testing.assert_array_equal(layout_high_water(TITAN_XP, fits), [108, 116])


# ---------------------------------------------------------------------------
# pinned simulated output
# ---------------------------------------------------------------------------

#: sha256 digests recorded with per-block ``CostMeter`` pricing; array
#: pricing must reproduce them bit for bit
PRICING_GOLDEN = {
    "hash-spgemm": "0415bbe9ca4c860f18e15ccce191026c7f088fd67102fec9732733bb3d88afcf",
    "hashmap-spgemm": "7644e89ed058e645be4988e88018129ba647717762221f96ab58cc45efb2ff22",
    "predictions": "b1f8bfe0b5a90de07415cfa55e72684b0ed3e82160a94083bfc172bb23f3f372",
}

#: the full-size device and the scaled-down one (many ESC iterations,
#: merge blocks, global-table rows and L2 spills on tiny inputs)
DEVICES = (TITAN_XP, SMALL_DEVICE)


@pytest.fixture(scope="module")
def pricing_inputs():
    mats = [entry.build() for entry in tiny_entries()]
    mats.append(
        g.long_row_matrix(300, 3.0, n_long_rows=2, long_row_len=120, seed=5)
    )
    return [squared_operands(m) for m in mats]


@pytest.mark.parametrize("engine", ("hash-spgemm", "hashmap-spgemm"))
def test_hash_engine_output_is_pinned(engine, pricing_inputs):
    h = hashlib.sha256()
    for device in DEVICES:
        opts = AcSpgemmOptions(device=device, device_trace=True)
        for a, b in pricing_inputs:
            res = run_backend(engine, a, b, opts)
            h.update(repr(sorted(res.stage_cycles.items())).encode())
            h.update(repr(sorted(res.counters.snapshot().items())).encode())
            h.update(res.device_trace.to_json().encode())
    assert h.hexdigest() == PRICING_GOLDEN[engine]


def test_predictions_are_pinned(pricing_inputs):
    h = hashlib.sha256()
    for device in DEVICES:
        opts = AcSpgemmOptions(device=device)
        for a, b in pricing_inputs:
            f = collect_features(a, b)
            stages = get_backend("ac-spgemm").predict_stage_cycles(f, opts)
            h.update(repr(sorted(stages.items())).encode())
            for name in ("hash-spgemm", "hashmap-spgemm"):
                h.update(repr(get_backend(name).predict_cycles(f, opts)).encode())
    assert h.hexdigest() == PRICING_GOLDEN["predictions"]
