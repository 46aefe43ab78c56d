"""Packed-key product accumulation: same bytes as the lexsort it replaced.

Pinned down here:

* every competitor that computes C through ``expand_products`` /
  ``accumulate_products`` (and AC-SpGEMM, whose operands are built by
  ``COOMatrix.to_csr``) returns the matrix bytes, cycles and counters
  recorded when the products were ordered by a three-key ``lexsort``;
* ``accumulate_products`` equals that ``lexsort`` formula, kept below as
  the oracle, on triplets in arbitrary order with heavy duplicates, NaN
  payloads and signed zeros;
* the same in the two regimes the compact accumulation splits: mostly
  singleton groups (gathered, not summed) and only shared groups
  (summed and shuffled as one compact array), with NaN payloads and
  signed zeros in both;
* the seeded shuffle's packed-word sort is the two-key ``lexsort``
  permutation, ties in the priorities included;
* ``ProductPlan.product`` hands out fresh arrays;
* ``COOMatrix.to_csr`` equals its former ``lexsort`` formula;
* ``expand_products`` equals its former gather-based formula;
* ``row_major_order`` is the two-key ``lexsort`` permutation and rejects
  out-of-range ids and shapes whose packed key overflows int64.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CSRMatrix
from repro.baselines import GPU_ALGORITHMS, make_algorithm
from repro.baselines.base import (
    ProductPlan,
    _Groups,
    accumulate_products,
    expand_products,
)
from repro.campaign.plan import tiny_entries
from repro.matrices import generators as g
from repro.sparse import COOMatrix, sort_row_entries
from repro.sparse.coo import row_major_order
from repro.sparse.stats import squared_operands

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# the former formulas, kept as oracles
# ---------------------------------------------------------------------------


def lexsort_accumulate(rows, cols, vals, n_rows, n_cols, *, shuffle_seed=None):
    """``accumulate_products`` as a two- or three-key ``lexsort``."""
    if rows.shape[0] == 0:
        return CSRMatrix.empty(n_rows, n_cols, dtype=vals.dtype)
    if shuffle_seed is None:
        order = np.lexsort((cols, rows))
    else:
        priority = np.random.default_rng(shuffle_seed).random(rows.shape[0])
        order = np.lexsort((priority, cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    new_group = np.empty(r.shape[0], dtype=bool)
    new_group[0] = True
    np.not_equal(r[1:], r[:-1], out=new_group[1:])
    np.logical_or(new_group[1:], c[1:] != c[:-1], out=new_group[1:])
    start_idx = np.nonzero(new_group)[0]
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r[start_idx], minlength=n_rows), out=row_ptr[1:])
    return CSRMatrix(
        rows=n_rows,
        cols=n_cols,
        row_ptr=row_ptr,
        col_idx=c[start_idx],
        values=np.add.reduceat(v, start_idx),
    )


def gather_expand(a, b, dtype):
    """``expand_products`` with the per-product A-entry index."""
    empty = np.zeros(0, dtype=np.int64)
    if a.nnz == 0 or b.nnz == 0:
        return empty, empty.copy(), np.zeros(0, dtype=dtype)
    expand_counts = b.row_lengths()[a.col_idx]
    total = int(expand_counts.sum())
    if total == 0:
        return empty, empty.copy(), np.zeros(0, dtype=dtype)
    a_rows = np.repeat(np.arange(a.rows, dtype=np.int64), a.row_lengths())
    rows = np.repeat(a_rows, expand_counts)
    a_vals = np.repeat(a.values.astype(dtype, copy=False), expand_counts)
    entry_of_product = np.repeat(np.arange(a.nnz, dtype=np.int64), expand_counts)
    run_starts = np.concatenate([[0], np.cumsum(expand_counts)[:-1]]).astype(np.int64)
    within = np.arange(total, dtype=np.int64) - run_starts[entry_of_product]
    b_elem = b.row_ptr[a.col_idx][entry_of_product] + within
    cols = b.col_idx[b_elem]
    vals = a_vals * b.values[b_elem].astype(dtype, copy=False)
    return rows, cols, vals


def assert_same_bytes(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for x, y in (
        (got.row_ptr, want.row_ptr),
        (got.col_idx, want.col_idx),
        (got.values, want.values),
    ):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# output pins, recorded with the lexsort ordering
# ---------------------------------------------------------------------------

#: sha256 over (row_ptr, col_idx, values bytes, cycles, counters) of every
#: input x scheduler seed {0, 1, 2} x {float32, float64}
OUTPUT_PINS = {
    "ac-spgemm": "917f5129165ec3d51907dd05a3627842dac31b0a60857bae49b27e3793a26475",
    "adaptive": "47d2f4a2fc795b119d0dcf1e45aa6ef83e201ee045919fead6787d238c30045a",
    "bhsparse": "79ce4f6cf07c9f4aa7f039fe565f5df7c24bcd3e352e75073705ccf2b637d430",
    "cusp-esc": "0e5ab341ace22f455576e18bd1b07ba029b8b52697fa9350e084d9d5f31c08aa",
    "cusparse": "8c80bde24181b0146d871fd8fe37763a73e49f91784b5d792b18f34144a9d628",
    "hash-spgemm": "4fef1c7c4fc09684495829f5366332707cff2750e9031f1ef76cfca9904d2151",
    "hashmap-spgemm": "0babafd4801919d3f0cd9df5601917c808daf38d0ee6bc2071ad28f6df6f56a9",
    "kokkos": "2f7ec6649ade7eabedb1643e658275862929427548a705094115ed0f55148112",
    "nsparse": "e41b04f35bc21c17b6ce2ac9eccc4811f18df4781d3ed5324508d117f9b4a7c4",
    "rmerge": "5e21fbcd366e57fad4e273744a5f13b9e5ab0a8dfeb891db9cf18664cab9cb2b",
}

#: sha256 of the input matrices' bytes (built through ``COOMatrix.to_csr``)
INPUT_PIN = "15cdb979f9ebbb5bd50719a724ecf0f47585e7719aeae900e378fa28457aa45f"


def _hash_matrix(h, m: CSRMatrix) -> None:
    for arr in (m.row_ptr, m.col_idx, m.values):
        h.update(np.ascontiguousarray(arr).tobytes())


@pytest.fixture(scope="module")
def pin_matrices():
    mats = [entry.build() for entry in tiny_entries()]
    mats.append(
        g.long_row_matrix(300, 3.0, n_long_rows=2, long_row_len=120, seed=5)
    )
    return mats


def test_pin_set_covers_the_lineup():
    assert set(GPU_ALGORITHMS) <= set(OUTPUT_PINS)


def test_inputs_are_pinned(pin_matrices):
    h = hashlib.sha256()
    for m in pin_matrices:
        _hash_matrix(h, m)
    assert h.hexdigest() == INPUT_PIN


@pytest.mark.parametrize("name", sorted(OUTPUT_PINS))
def test_output_is_pinned(name, pin_matrices):
    algo = make_algorithm(name)
    h = hashlib.sha256()
    for a, b in map(squared_operands, pin_matrices):
        for seed in (0, 1, 2):
            for dtype in (np.float32, np.float64):
                run = algo.multiply(a, b, dtype=dtype, scheduler_seed=seed)
                _hash_matrix(h, run.matrix)
                h.update(repr(run.cycles).encode())
                h.update(repr(sorted(run.counters.snapshot().items())).encode())
    assert h.hexdigest() == OUTPUT_PINS[name]


# ---------------------------------------------------------------------------
# accumulate_products == the lexsort oracle
# ---------------------------------------------------------------------------

DTYPES = (np.float32, np.float64, np.int64)


def _values(dtype, n):
    if dtype is np.int64:
        elems = st.integers(-(2**40), 2**40)
    else:
        width = 32 if dtype is np.float32 else 64
        elems = st.floats(width=width)  # NaN, +-inf and +-0.0 included
    return st.lists(elems, min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=dtype)
    )


@st.composite
def triplets(draw):
    """Products in arbitrary order on a small shape: heavy duplicates."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    rows = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    cols = np.array(
        draw(st.lists(st.integers(0, n_cols - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    vals = draw(_values(draw(st.sampled_from(DTYPES)), n))
    return rows, cols, vals, n_rows, n_cols


@SETTINGS
@given(triplets(), st.sampled_from((None, 0, 1)))
def test_accumulate_equals_lexsort_oracle(t, seed):
    rows, cols, vals, n_rows, n_cols = t
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
        got = accumulate_products(
            rows, cols, vals, n_rows, n_cols, shuffle_seed=seed
        )
        want = lexsort_accumulate(
            rows, cols, vals, n_rows, n_cols, shuffle_seed=seed
        )
    assert_same_bytes(got, want)


@SETTINGS
@given(triplets())
def test_row_major_order_is_the_lexsort_permutation(t):
    rows, cols, _, n_rows, n_cols = t
    order, keys = row_major_order(rows, cols, n_rows, n_cols)
    np.testing.assert_array_equal(order, np.lexsort((cols, rows)))
    r, c = np.divmod(keys, n_cols)
    np.testing.assert_array_equal(r, rows[order])
    np.testing.assert_array_equal(c, cols[order])


def test_two_nan_pair_follows_the_shuffle():
    """A two-product group still depends on the order: the sum of two
    NaNs keeps the first operand's payload."""
    rows = np.zeros(2, dtype=np.int64)
    cols = np.zeros(2, dtype=np.int64)
    # quiet NaNs with payloads 1 and 2
    vals = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(np.float64)
    sums = set()
    for seed in (None, *range(8)):
        got = accumulate_products(rows, cols, vals, 1, 1, shuffle_seed=seed)
        want = lexsort_accumulate(rows, cols, vals, 1, 1, shuffle_seed=seed)
        assert_same_bytes(got, want)
        sums.add(got.values.tobytes())
    # both orders occur among the seeds and give different bits
    assert len(sums) == 2


def test_signed_zeros_in_one_group():
    rows = np.zeros(5, dtype=np.int64)
    cols = np.array([1, 0, 1, 0, 1], dtype=np.int64)
    vals = np.array([-0.0, 0.0, -0.0, -0.0, 0.0])
    for seed in (None, 0, 1, 2):
        assert_same_bytes(
            accumulate_products(rows, cols, vals, 1, 2, shuffle_seed=seed),
            lexsort_accumulate(rows, cols, vals, 1, 2, shuffle_seed=seed),
        )


def _special(dtype) -> np.ndarray:
    """NaNs with distinct payloads (one negative), signed zeros and
    infinities, as bit patterns of ``dtype``."""
    if dtype is np.float32:
        nans = np.array([0x7FC00001, 0x7FC00002, 0xFFC00003], dtype=np.uint32)
    else:
        nans = np.array(
            [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000003],
            dtype=np.uint64,
        )
    return np.concatenate(
        [nans.view(dtype), np.array([0.0, -0.0, np.inf, -np.inf], dtype=dtype)]
    )


@st.composite
def regime_triplets(draw, shared_only: bool):
    """Products in arbitrary order whose output entries are all shared,
    or all single but for up to three repeated keys."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    cells = n_rows * n_cols
    keys = draw(
        st.lists(
            st.integers(0, cells - 1), min_size=1, max_size=min(cells, 60),
            unique=True,
        )
    )
    if shared_only:
        reps = draw(st.lists(st.integers(2, 5), min_size=len(keys), max_size=len(keys)))
        flat = np.repeat(np.array(keys, dtype=np.int64), reps)
    else:
        extra = draw(st.lists(st.sampled_from(keys), max_size=3))
        flat = np.array(keys + extra, dtype=np.int64)
    flat = flat[draw(st.permutations(range(flat.shape[0])))]
    special = _special(dtype)
    width = 32 if dtype is np.float32 else 64
    vals = np.empty(flat.shape[0], dtype=dtype)
    for i in range(vals.shape[0]):
        pick = draw(
            st.one_of(
                st.integers(0, special.shape[0] - 1),
                st.floats(width=width, allow_nan=False),
            )
        )
        vals[i] = special[pick] if isinstance(pick, int) else float(pick)
    rows, cols = np.divmod(flat, n_cols)
    return rows, cols, vals, n_rows, n_cols


@SETTINGS
@given(
    st.booleans().flatmap(regime_triplets), st.sampled_from((None, 0, 1))
)
def test_accumulate_regimes_equal_lexsort_oracle(t, seed):
    rows, cols, vals, n_rows, n_cols = t
    with np.errstate(invalid="ignore", over="ignore"):
        got = accumulate_products(
            rows, cols, vals, n_rows, n_cols, shuffle_seed=seed
        )
        want = lexsort_accumulate(
            rows, cols, vals, n_rows, n_cols, shuffle_seed=seed
        )
    assert_same_bytes(got, want)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_special_values_alone_and_shared(dtype):
    """A single NaN or -0.0 keeps its bits; the same values in shared
    groups sum in the oracle's order."""
    special = _special(dtype)
    k = special.shape[0]
    # entry (0, j) holds special[j] alone; entry (1, j) holds it with
    # every other special value after it
    rows = np.concatenate([np.zeros(k, np.int64), np.ones(k * k, np.int64)])
    cols = np.concatenate([np.arange(k), np.repeat(np.arange(k), k)])
    vals = np.concatenate(
        [special, np.concatenate([np.roll(special, -j) for j in range(k)])]
    )
    for seed in (None, 0, 1, 2):
        with np.errstate(invalid="ignore"):
            got = accumulate_products(rows, cols, vals, 2, k, shuffle_seed=seed)
            want = lexsort_accumulate(rows, cols, vals, 2, k, shuffle_seed=seed)
        assert_same_bytes(got, want)
        assert got.values[:k].tobytes() == special.tobytes()


@pytest.mark.parametrize("n", (300, 6000))
def test_packed_shuffle_is_the_lexsort_permutation(n):
    """Equal priorities within and across groups order by position; at
    6000 shared products the packed words truncate the priorities, so
    priorities one ulp apart tie there and are reordered in full."""
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 7, n)
    cols = rng.integers(0, 5, n)
    order, keys = row_major_order(rows, cols, 7, 5)
    groups = _Groups.of(order, keys, 7, 5)
    m = groups.shared_pos.shape[0]
    assert m == n  # 35 entries: every product is shared
    shared_keys = keys[groups.shared_pos]
    ulp = 2.0**-53
    for priority in (
        np.full(m, 0.5),
        rng.choice([0.0, 0.25, 0.5, 0.5 + ulp, 0.5 + 2 * ulp, 1 - ulp], m),
        np.floor(rng.random(m) * 8) / 8,
        rng.random(m),
    ):
        np.testing.assert_array_equal(
            groups.shuffle(priority), np.lexsort((priority, shared_keys))
        )


def test_product_returns_fresh_arrays():
    a, b = squared_operands(
        g.long_row_matrix(200, 3.0, n_long_rows=2, long_row_len=80, seed=2)
    )
    plan = ProductPlan(a, b)
    for seed in (None, 1):
        first = plan.product(np.float64, seed)
        want = [x.tobytes() for x in (first.row_ptr, first.col_idx, first.values)]
        for arr in (first.row_ptr, first.col_idx, first.values):
            arr[...] = -1
        again = plan.product(np.float64, seed)
        got = [x.tobytes() for x in (again.row_ptr, again.col_idx, again.values)]
        assert got == want


def test_packed_key_overflow_raises():
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="overflows"):
        accumulate_products(one, one, np.ones(1), 2**32, 2**32)
    with pytest.raises(ValueError, match="overflows"):
        COOMatrix(2**32, 2**32, one, one, np.ones(1)).to_csr()
    # the largest shape whose keys fit
    order, keys = row_major_order(one, one, 2**31, 2**32)
    assert order.tolist() == [0] and keys.tolist() == [0]


def test_out_of_range_ids_raise():
    rows = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="outside the shape"):
        row_major_order(rows, np.array([0, 3]), 2, 3)
    with pytest.raises(ValueError, match="outside the shape"):
        row_major_order(rows, np.array([-1, 0]), 2, 3)
    bad = CSRMatrix(
        rows=2, cols=3, row_ptr=[0, 1, 2], col_idx=[2, 5], values=[1.0, 2.0]
    )
    with pytest.raises(ValueError, match="outside the shape"):
        sort_row_entries(bad)


def lexsort_to_csr(coo: COOMatrix, sum_duplicates: bool) -> CSRMatrix:
    """``COOMatrix.to_csr`` ordered by a two-key ``lexsort``."""
    if coo.nnz == 0:
        return CSRMatrix.empty(coo.rows, coo.cols, dtype=coo.values.dtype)
    order = np.lexsort((coo.col_idx, coo.row_idx))
    r, c, v = coo.row_idx[order], coo.col_idx[order], coo.values[order]
    if sum_duplicates:
        new_group = np.ones(r.shape[0], dtype=bool)
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        group_id = np.cumsum(new_group) - 1
        out_v = np.zeros(int(group_id[-1]) + 1, dtype=v.dtype)
        np.add.at(out_v, group_id, v)
        r, c, v = r[new_group], c[new_group], out_v
    row_ptr = np.zeros(coo.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=coo.rows), out=row_ptr[1:])
    return CSRMatrix(coo.rows, coo.cols, row_ptr, c, v)


@SETTINGS
@given(triplets(), st.booleans())
def test_to_csr_equals_lexsort_oracle(t, sum_duplicates):
    coo = COOMatrix(*t[3:], *t[:3])
    with np.errstate(invalid="ignore", over="ignore"):
        got = coo.to_csr(sum_duplicates=sum_duplicates)
        want = lexsort_to_csr(coo, sum_duplicates)
    assert_same_bytes(got, want)


# ---------------------------------------------------------------------------
# expand_products == the gather formula
# ---------------------------------------------------------------------------


def _expansion_cases():
    rng = np.random.default_rng(7)
    dense = rng.random((8, 6)) * (rng.random((8, 6)) < 0.4)
    dense[[1, 4, 5]] = 0.0  # empty rows in A
    a = CSRMatrix.from_dense(dense)
    b = CSRMatrix.from_dense(rng.random((6, 9)) * (rng.random((6, 9)) < 0.5))
    b_gaps = CSRMatrix.from_dense(np.vstack([b.to_dense()[:3], np.zeros((3, 9))]))
    return {
        "random": (a, b),
        "empty-b-rows": (a, b_gaps),
        "nnz-a-0": (CSRMatrix.empty(8, 6), b),
        "nnz-b-0": (a, CSRMatrix.empty(6, 9)),
        "b-cols-0": (a, CSRMatrix.empty(6, 0)),
        "long-row": squared_operands(
            g.long_row_matrix(120, 3.0, n_long_rows=2, long_row_len=60, seed=3)
        ),
    }


@pytest.mark.parametrize("case", sorted(_expansion_cases()))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_expand_equals_gather_formula(case, dtype):
    a, b = _expansion_cases()[case]
    got = expand_products(a, b, np.dtype(dtype))
    want = gather_expand(a, b, np.dtype(dtype))
    for x, y in zip(got, want):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
