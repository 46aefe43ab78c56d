"""Stable LSD block radix sort (CUB analogue used by local ESC, §3.2).

The paper's key property: radix-sort runtime is proportional to the
sorted bit length, so AC-SpGEMM's dynamic bit reduction directly reduces
cost.  The implementation here runs genuine least-significant-digit
passes (stable counting sort per digit) and charges the cost model per
pass; sorting fewer bits executes — and is charged — fewer passes.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .cost import CostMeter

__all__ = [
    "radix_sort_permutation",
    "radix_sort_pairs",
    "bits_required",
    "bits_required_array",
    "fast_stable_sort",
]


class _FastStable(threading.local):
    """The :func:`fast_stable_sort` mode, one flag per thread."""

    active = False


_fast_stable = _FastStable()


@contextlib.contextmanager
def fast_stable_sort():
    """Execute narrow sorts as one numpy radix argsort while active.

    A stable LSD radix sort is, by composition of its stable passes, the
    stable sort by the full key — so for keys at most 16 bits wide the
    permutation can be produced by a single ``np.argsort(kind="stable")``
    over a uint8/uint16 view, which numpy implements as an O(n) radix
    sort.  This is an execution switch only: permutations and every
    :class:`~repro.gpu.cost.CostMeter` charge (pass counts included) are
    identical to the pass-by-pass path.  The batched engine enables it
    around the Path/Search Merge rounds, which run the reference merge
    workers; the reference engine never does.  The mode is per thread,
    so a daemon's executor threads entering and leaving it in any
    interleaving never leave it on for another thread.
    """
    prev = _fast_stable.active
    _fast_stable.active = True
    try:
        yield
    finally:
        _fast_stable.active = prev


def bits_required(max_value: int) -> int:
    """Number of bits needed to represent values in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, int(max_value).bit_length())


#: ``2**k`` for every bit an int64 can hold
_POWERS_OF_TWO = 1 << np.arange(63, dtype=np.int64)


def bits_required_array(max_values) -> np.ndarray:
    """:func:`bits_required` element-wise, exact for any int64."""
    values = np.asarray(max_values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("max_value must be non-negative")
    # bit_length(v) is the number of powers of two <= v
    bits = np.searchsorted(_POWERS_OF_TWO, values, side="right")
    return np.maximum(1, bits).astype(np.int64)


def _stable_counting_argsort(digits: np.ndarray, radix: int) -> np.ndarray:
    """One LSD pass: the permutation a stable counting sort would apply.

    numpy's stable argsort over a bounded digit array produces exactly
    the counting-sort permutation (elements grouped by digit, original
    order preserved within a group), which is all a radix pass needs.
    """
    if digits.shape[0] and (digits.min() < 0 or digits.max() >= radix):
        raise ValueError("digit out of range for the pass radix")
    return np.argsort(digits, kind="stable")


def radix_sort_permutation(
    meter: CostMeter, keys: np.ndarray, key_bits: int, *, bits_per_pass: int = 8
) -> np.ndarray:
    """Return the permutation that stably sorts ``keys`` by their low
    ``key_bits`` bits, charging ``ceil(key_bits / radix_bits)`` passes.

    Stability is load-bearing: ties (equal row+column keys) keep their
    expansion order, which fixes the floating-point accumulation order
    and hence bit-stable results.
    """
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if key_bits <= 0:
        raise ValueError("key_bits must be positive")
    keys = np.asarray(keys, dtype=np.uint64)
    order = np.arange(n, dtype=np.int64)
    current = keys.copy()
    # Any digit decomposition of a stable LSD sort composes to the stable
    # sort by the full key, so the executed digit width is free to differ
    # from the charged one: under fast_stable_sort() we run 16-bit uint16
    # digits (numpy argsorts them with an O(n) radix kernel; one pass
    # covers the common <=16-bit keys) while charges stay keyed to
    # ``key_bits`` alone.
    fast = _fast_stable.active
    exec_bits = 16 if fast else bits_per_pass
    digit_dtype = np.uint16 if fast else np.int64
    for shift in range(0, key_bits, exec_bits):
        # the final pass masks only the remaining bits: bits at or above
        # key_bits must not influence the order
        pass_bits = min(exec_bits, key_bits - shift)
        mask = np.uint64((1 << pass_bits) - 1)
        digits = ((current >> np.uint64(shift)) & mask).astype(digit_dtype)
        if digits[0] == digits[-1] and (digits == digits[0]).all():
            continue  # all digits equal: the stable pass is the identity
        pass_order = _stable_counting_argsort(digits, 1 << pass_bits)
        order = order[pass_order]
        current = current[pass_order]
    meter.radix_sort(n, key_bits)
    return order


def radix_sort_pairs(
    meter: CostMeter,
    keys: np.ndarray,
    values: np.ndarray,
    key_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(keys, values)`` pairs stably by key; returns sorted copies."""
    perm = radix_sort_permutation(meter, keys, key_bits)
    return np.asarray(keys)[perm], np.asarray(values)[perm]
