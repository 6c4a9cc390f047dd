"""Segmented prime generation, exact sums of logs of primes and of repeated
floats, and the package's one base-prime cache.

One private core (_block_primes) sieves the odd numbers of a window by
Eratosthenes, one block of 2 * SEGMENT_FLAGS numbers, so SEGMENT_FLAGS flags,
at a time: one flag per odd number, presieved by tiling the odd half of the
30030-wheel of the primes 2..13 over the block, then marked by numpy strided
slices for the primes from 17 on, and yields each block's primes, read from
its odd flags as first + 2 * index.  Two callers read it: primes_in, the one
public readout, which casts each block's primes to the caller's integer
dtype and joins them once, and base_primes, the base-prime cache, which
starts at the wheel primes and grows over the new range only.  The small
primes as a tuple of Python ints are memoised once (_prime_tuple) for the
loops of tuples and singular.  The tiler (_tile_periodic) is private so
that its time counts toward its caller; it also builds the weights'
small-prime signatures.

The sums of log p here are exactly rounded, hence order-independent and
bit-stable: either by math.fsum, or from the integer parts of log_parts
summed in int64, which LogSum carries and rounds once (log_sum for one sum),
so the integer sums can be grouped at will and never pass int64.
_repeated_fsum is the one exact grouped sum: the fsum of values repeated by
integer counts, without repeating them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SieveRangeError

# Flags per internal segment; power of two, fixed once here so partitions and
# reductions are identical no matter how many workers run.
SEGMENT_FLAGS = 1 << 20

# Largest hi accepted by the sieve (comfortably above 2e9).
SUPPORTED_SIEVE_BOUND = 1 << 34

# Longest window [lo, hi) primes_in sieves in one call: it bounds the work
# and the primes one call returns; longer ranges are sieved as several windows.
MAX_WINDOW_LENGTH = 1 << 28

# the tiler repeats shorter periods up to this row length, so that numpy's
# inner loops stay long
TILE_ROW = 1 << 12

# the presieve wheel of the primes 2..13, odd half: _ODD_WHEEL[j] says whether
# the odd number 2j + 1 is prime to all of them, and repeats with period
# 30030 / 2 = 15015 in j
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_ODD_WHEEL = np.gcd(np.arange(1, math.prod(WHEEL_PRIMES), 2), math.prod(WHEEL_PRIMES)) == 1
_ODD_WHEEL.setflags(write=False)

# the one base-prime cache: every prime <= _BASE_LIMIT, sorted, read-only;
# seeded with the wheel primes, which are all the primes <= 16
_BASE_PRIMES: np.ndarray = np.array(WHEEL_PRIMES, dtype=np.int64)
_BASE_PRIMES.setflags(write=False)
_BASE_LIMIT = 16


def base_primes(limit: int) -> np.ndarray:
    """Sorted primes <= limit as a read-only int64 view of the shared cache.

    The cache grows geometrically, so rising limits cost a constant number of
    sieves per doubling.  Each growth sieves only the new range, by the
    private core behind primes_in, in steps that end by the square of the
    first number past the cache, so the marking needs only cached primes.  A
    step is sieved one block of the core at a time and its primes joined to
    the cache once, so no flag array spans the new range.
    """
    global _BASE_PRIMES, _BASE_LIMIT
    while limit > _BASE_LIMIT:
        lo = _BASE_LIMIT + 1
        hi = min(max(limit + 1, 2 * lo, 1 << 10), lo * lo)
        primes = np.concatenate([_BASE_PRIMES, *_block_primes(lo, hi)])
        primes.setflags(write=False)
        _BASE_PRIMES, _BASE_LIMIT = primes, hi - 1
    return _BASE_PRIMES[: int(np.searchsorted(_BASE_PRIMES, limit, side="right"))]


@functools.lru_cache(maxsize=16)
def _prime_tuple(limit: int) -> tuple[int, ...]:
    """The primes <= limit as a tuple of Python ints, memoised: the one copy
    for loops that visit small primes one at a time."""
    return tuple(base_primes(limit).tolist())


def _tile_periodic(pattern: np.ndarray, lo: int, out: np.ndarray, op) -> np.ndarray:
    """Combine the contiguous out in place with pattern read periodically
    from phase lo: out[i] = op(out[i], pattern[(lo + i) % len(pattern)]).

    One period, rotated to the phase and repeated up to TILE_ROW, is
    broadcast by the ufunc op over the rows of out, so out takes one pass
    and needs no scratch copy.  Returns out.
    """
    period = len(pattern)
    phase = lo % period
    row = np.concatenate((pattern[phase:], pattern[:phase]))
    if period < TILE_ROW:
        row = np.tile(row, -(-TILE_ROW // period))
    full = len(out) - len(out) % len(row)
    body = out[:full].reshape(-1, len(row))
    op(body, row, out=body)
    op(out[full:], row[: len(out) - full], out=out[full:])
    return out


def _block_primes(lo: int, hi: int):
    """The sieve's core, unchecked: the sorted int64 primes of [lo, hi), one
    array per block of 2 * SEGMENT_FLAGS numbers; 2 comes first, on its own,
    where the window holds it.

    A block keeps one flag per odd number, flags[j] for first + 2j with first
    its first odd number.  The flags are presieved by the odd half of the
    wheel of the primes 2..13, which are then marked prime again where the
    block holds them, and marked in place by the other base primes up to the
    root of its last number: each p strides through odd index space from its
    first odd multiple at or above max(p^2, first), so base primes inside
    the block stay marked prime.  The block's primes are first + 2 * index
    of its set flags.
    """
    if lo == 2:
        yield np.array([2], dtype=np.int64)
    for s in range(lo, hi, 2 * SEGMENT_FLAGS):
        e = min(s + 2 * SEGMENT_FLAGS, hi)
        first = s | 1
        flags = np.ones((e - first + 1) // 2, dtype=bool)
        _tile_periodic(_ODD_WHEEL, first // 2, flags, np.logical_and)
        for p in WHEEL_PRIMES[1:]:
            if first <= p < e:
                flags[(p - first) // 2] = True
        ps = base_primes(math.isqrt(e - 1))[len(WHEEL_PRIMES) :]
        start = np.maximum(ps * ps, ps * (((first - 1) // ps + 1) | 1))
        for i, p in zip(((start - first) >> 1).tolist(), ps.tolist()):
            flags[i::p] = False
        found = np.flatnonzero(flags)
        found *= 2
        found += first
        yield found


def primes_in(lo: int, hi: int, dtype=np.int64) -> np.ndarray:
    """Sorted primes in [lo, hi) in the integer dtype, which must hold hi - 1.

    The window is sieved one block of the private core at a time, each
    block's primes cast to dtype, and the blocks joined once: no flag array
    spans the window, and a narrow dtype keeps no int64 copy of it.  The
    window and the dtype are checked before anything is allocated.
    """
    if not (2 <= lo < hi):
        raise SieveRangeError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi > SUPPORTED_SIEVE_BOUND:
        raise SieveRangeError(f"hi={hi} exceeds supported sieve bound {SUPPORTED_SIEVE_BOUND}")
    if hi - lo > MAX_WINDOW_LENGTH:
        raise SieveRangeError(
            f"window of {hi - lo} numbers exceeds window-length cap "
            f"{MAX_WINDOW_LENGTH}; sieve it as smaller windows"
        )
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu" or np.iinfo(dtype).max < hi - 1:
        raise SieveRangeError(f"dtype {dtype} cannot hold the primes below {hi}")
    return np.concatenate([ps.astype(dtype, copy=False) for ps in _block_primes(lo, hi)])


# log p for p >= 3 is at least 1, so as a float64 it is a whole multiple of
# 2^-52: log p * 2^52 splits into two integers of at most 31 and 26 bits
LOG_PART_BITS = 26
_PART_MASK = (1 << LOG_PART_BITS) - 1
_FRAC_MASK = (1 << 2 * LOG_PART_BITS) - 1
_PART_SCALE = float(1 << LOG_PART_BITS)


def log_parts(ps) -> tuple[np.ndarray, np.ndarray]:
    """Integer parts (hi, lo) of log p, int64, for 3 <= p <= SUPPORTED_SIEVE_BOUND.

    log p = hi * 2^-26 + lo * 2^-52 exactly, with hi < 2^31 and lo < 2^26, so
    sums of the parts are exact integers, and LogSum turns any such sums
    into the correctly rounded sum of the logs whatever the order or grouping.
    """
    ps = np.asarray(ps, dtype=np.int64)
    if ps.size and (ps.min() < 3 or ps.max() > SUPPORTED_SIEVE_BOUND):
        raise ValueError(f"log parts need 3 <= p <= {SUPPORTED_SIEVE_BOUND}")
    # scaled in place by 2^26, a power of two, so every product is exact
    scaled = np.log(ps, dtype=np.float64)
    scaled *= _PART_SCALE
    hi = np.floor(scaled)
    scaled -= hi
    scaled *= _PART_SCALE
    return hi.astype(np.int64), scaled.astype(np.int64)


class LogSum:
    """Exact running sum of logs, fed int64 sums of their log_parts.

    The total is whole + frac * 2^-52 with 0 <= frac < 2^52, carried on
    every add, so it stays exact however many sums come in: hi sums may
    take all of int64, lo sums anything below 2^62 (2^36 lo parts).
    value() rounds once: whole (below 2^53, as no run within the sieve
    bound sums logs that far) and frac * 2^-52 are exact doubles.  Fields
    start as the int 0, and the first add gives them its shape; elementwise.
    """

    def __init__(self) -> None:
        self.whole = self.frac = 0

    def add(self, hi_sum, lo_sum) -> None:
        hi_sum, lo_sum = np.asarray(hi_sum), np.asarray(lo_sum)
        if hi_sum.dtype.kind not in "iu" or lo_sum.dtype.kind not in "iu":
            raise TypeError("log part sums must be integers; a float sum may already have rounded")
        hi_sum, lo_sum = hi_sum.astype(np.int64, copy=False), lo_sum.astype(np.int64, copy=False)
        self.whole += hi_sum >> LOG_PART_BITS
        self.frac += ((hi_sum & _PART_MASK) << LOG_PART_BITS) + lo_sum
        self.whole += self.frac >> 2 * LOG_PART_BITS
        self.frac &= _FRAC_MASK

    def value(self):
        """The correctly rounded sum of the logs."""
        return self.whole + self.frac * 2.0 ** (-2 * LOG_PART_BITS)


def log_sum(hi_sum, lo_sum):
    """The correctly rounded sum of logs whose log_parts sum to (hi_sum,
    lo_sum), integers only: one LogSum add.  Elementwise."""
    total = LogSum()
    total.add(hi_sum, lo_sum)
    return total.value()


# keeps a float64's sign, exponent and top 25 stored significand bits
_HIGH_HALF = np.uint64((1 << 64) - (1 << 27))


def _repeated_fsum(values: np.ndarray, counts: np.ndarray) -> float:
    """math.fsum of each values[i] repeated counts[i] times, bit for bit.

    Each value is split into a high half (its low 27 significand bits
    cleared) and the exact low remainder, of at most 26 and 27 bits, and
    each count below 2^48 into two 24-bit limbs, so every limb * half is
    exact.  The terms add up to exactly the real sum of the repeated values,
    which fsum rounds correctly, as it would the repeated values themselves.
    Private, so that its time counts toward its caller.
    """
    seen = np.flatnonzero(counts)
    v = np.asarray(values, dtype=np.float64)[seen]
    high = (v.view(np.uint64) & _HIGH_HALF).view(np.float64)
    low = v - high
    c = np.asarray(counts, dtype=np.int64)[seen]
    small = (c & 0xFFFFFF).astype(np.float64)
    big = np.ldexp((c >> 24).astype(np.float64), 24)
    terms = [small * high, small * low]
    if big.any():
        terms += [big * high, big * low]
    return math.fsum(memoryview(np.concatenate(terms)))
