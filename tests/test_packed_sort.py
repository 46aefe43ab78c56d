"""The batched engine's segmented sort: one sort of unique packed words.

Batched ESC and Multi Merge sort a batch of segments (one per block or
group) at once.  The permutation must equal sorting each segment on its own
with a stable sort, because tie order fixes the floating-point
accumulation order downstream.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.batched import _segmented_sort
from repro.gpu.radix import bits_required

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle(keys: np.ndarray, seg_sizes: np.ndarray) -> np.ndarray:
    """Per-segment stable argsort, offset to global positions."""
    off = np.concatenate([[0], np.cumsum(seg_sizes)])
    return np.concatenate(
        [
            np.argsort(keys[lo:hi], kind="stable") + lo
            for lo, hi in zip(off[:-1], off[1:])
        ]
    ).astype(np.int64)


def _check(keys: np.ndarray, seg_sizes: np.ndarray, key_bits: int) -> None:
    perm, keys_s = _segmented_sort(keys, seg_sizes, key_bits)
    want = _oracle(keys, seg_sizes)
    np.testing.assert_array_equal(perm, want)
    np.testing.assert_array_equal(keys_s, keys[want])
    assert keys_s.dtype == keys.dtype


@st.composite
def _batches(draw, max_bits: int):
    """Segment sizes, a key width and keys of at most that width; few
    distinct values per segment, so ties are common."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    key_bits = draw(st.integers(1, max_bits))
    pool = draw(
        st.lists(st.integers(0, (1 << key_bits) - 1), min_size=1, max_size=6)
    )
    picks = draw(
        st.lists(
            st.integers(0, len(pool) - 1), min_size=sum(sizes), max_size=sum(sizes)
        )
    )
    keys = np.asarray([pool[i] for i in picks], dtype=np.uint64)
    return np.asarray(sizes, dtype=np.int64), key_bits, keys


@SETTINGS
@given(_batches(max_bits=16))
def test_narrow_keys_match_per_segment_stable_sort(batch):
    sizes, key_bits, keys = batch
    _check(keys.astype(np.uint16), sizes, key_bits)


@SETTINGS
@given(_batches(max_bits=40))
def test_wide_keys_match_per_segment_stable_sort(batch):
    sizes, key_bits, keys = batch
    _check(keys, sizes, key_bits)


@SETTINGS
@given(st.lists(st.integers(0, (1 << 23) - 1), min_size=1, max_size=300))
def test_one_segment_matches_stable_sort(values):
    keys = np.asarray(values, dtype=np.uint64)
    _check(keys, np.asarray([keys.shape[0]], dtype=np.int64), 23)


def _at_budget(extra_bits: int, rng) -> tuple[np.ndarray, np.ndarray, int]:
    """Eight keys in two segments whose word needs ``64 + extra_bits``
    bits: 1 segment bit, 3 position bits and the key."""
    sizes = np.asarray([3, 5], dtype=np.int64)
    key_bits = 64 - 1 - 3 + extra_bits
    assert bits_required(1) + bits_required(7) + key_bits == 64 + extra_bits
    top = np.uint64((1 << key_bits) - 1)
    keys = np.asarray([top, 0, top, 5, top, 5, 0, top - np.uint64(1)], np.uint64)
    keys[rng.permutation(8)] = keys.copy()
    return keys, sizes, key_bits


def test_words_at_the_64_bit_budget_use_the_packed_sort(monkeypatch):
    keys, sizes, key_bits = _at_budget(0, np.random.default_rng(0))

    def no_fallback(*args, **kwargs):
        raise AssertionError("a 64-bit word must not fall back to lexsort")

    monkeypatch.setattr(np, "lexsort", no_fallback)
    _check(keys, sizes, key_bits)


def test_words_past_the_budget_fall_back_to_lexsort(monkeypatch):
    keys, sizes, key_bits = _at_budget(1, np.random.default_rng(1))
    calls = []
    lexsort = np.lexsort

    def counting_lexsort(*args, **kwargs):
        calls.append(args)
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    _check(keys, sizes, key_bits)
    assert len(calls) == 1


@SETTINGS
@given(_batches(max_bits=63))
def test_fallback_matches_per_segment_stable_sort(batch):
    sizes, _, keys = batch
    # declare the full 64-bit key width: every word overflows the budget
    _check(keys, sizes, 64)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint64])
def test_ties_keep_input_order_and_dtype(dtype):
    keys = np.asarray([3, 1, 3, 1, 2], dtype=dtype)
    perm, keys_s = _segmented_sort(keys, np.asarray([2, 3], dtype=np.int64), 2)
    np.testing.assert_array_equal(perm, [1, 0, 3, 4, 2])
    np.testing.assert_array_equal(keys_s, [1, 3, 1, 2, 3])
    assert keys_s.dtype == dtype
