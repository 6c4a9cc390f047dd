"""Segmented prime generation, exact sums of logs of primes and of repeated
floats, and the package's one base-prime cache.

Primality over a window is produced by one segmented sieve of Eratosthenes
(sieve_segment): one read-only flag array per window, presieved by tiling the
30030-wheel of the primes 2..13 over it, then marked by numpy strided slices
for the primes from 17 on, one SEGMENT_FLAGS block at a time.  primes_in
sieves its window one such block per call and casts each block's primes to
the caller's integer dtype.  The base-prime cache starts at the wheel primes
and grows by the same marking (_mark_segment), over the new range only and
one such block at a time.  The tiler (_tile_periodic) is private so that its
time counts toward its caller; it also builds the weights' small-prime
signatures.

The sums of log p here are exactly rounded, hence order-independent and
bit-stable: either by math.fsum, or from the integer parts of log_parts
summed in int64, which LogSum carries and rounds once (log_sum for one sum),
so the integer sums can be grouped at will and never pass int64.
_repeated_fsum is the one exact grouped sum: the fsum of values repeated by
integer counts, without repeating them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SieveRangeError

# Flags per internal segment; power of two, fixed once here so partitions and
# reductions are identical no matter how many workers run.
SEGMENT_FLAGS = 1 << 20

# Largest hi accepted by the sieve (comfortably above 2e9).
SUPPORTED_SIEVE_BOUND = 1 << 34

# Largest window sieve_segment materializes as one flag array (memory guard);
# larger ranges are sieved as several windows.
MAX_MATERIALIZED_FLAGS = 1 << 28

# the tiler repeats shorter periods up to this row length, so that numpy's
# inner loops stay long
TILE_ROW = 1 << 12

# the presieve wheel: the primes 2..13 and, per residue mod their product
# 30030, whether it is prime to all of them
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = np.gcd(np.arange(math.prod(WHEEL_PRIMES)), math.prod(WHEEL_PRIMES)) == 1
_WHEEL.setflags(write=False)

# the one base-prime cache: every prime <= _BASE_LIMIT, sorted, read-only;
# seeded with the wheel primes, which are all the primes <= 16
_BASE_PRIMES: np.ndarray = np.array(WHEEL_PRIMES, dtype=np.int64)
_BASE_PRIMES.setflags(write=False)
_BASE_LIMIT = 16


def base_primes(limit: int) -> np.ndarray:
    """Sorted primes <= limit as a read-only int64 view of the shared cache.

    The cache grows geometrically, so rising limits cost a constant number of
    sieves per doubling.  Each growth sieves only the new range, by the
    private marker behind sieve_segment, in steps that end by the square of
    the first number past the cache, so the marking needs only cached primes.
    A step is marked one SEGMENT_FLAGS block at a time and its primes joined
    to the cache once, so no flag array spans the new range.
    """
    global _BASE_PRIMES, _BASE_LIMIT
    while limit > _BASE_LIMIT:
        lo = _BASE_LIMIT + 1
        hi = min(max(limit + 1, 2 * lo, 1 << 10), lo * lo)
        parts = [_BASE_PRIMES]
        for s in range(lo, hi, SEGMENT_FLAGS):
            new = np.flatnonzero(_mark_segment(s, min(s + SEGMENT_FLAGS, hi)))
            new += s
            parts.append(new)
        primes = np.concatenate(parts)
        primes.setflags(write=False)
        _BASE_PRIMES, _BASE_LIMIT = primes, hi - 1
    return _BASE_PRIMES[: int(np.searchsorted(_BASE_PRIMES, limit, side="right"))]


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


def sieve_segment(lo: int, hi: int) -> np.ndarray:
    """Read-only primality flags for [lo, hi) by segmented Eratosthenes:
    flags[i] is True exactly when lo + i is prime.  The range, the sieve
    bound and the materialization cap are checked before anything is
    allocated."""
    _check_window(lo, hi)
    flags = _mark_segment(lo, hi)
    flags.setflags(write=False)
    return flags


def _check_window(lo: int, hi: int) -> None:
    """Refuse [lo, hi) unless 2 <= lo < hi <= SUPPORTED_SIEVE_BOUND and the
    window is within MAX_MATERIALIZED_FLAGS."""
    if not (2 <= lo < hi):
        raise SieveRangeError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi > SUPPORTED_SIEVE_BOUND:
        raise SieveRangeError(f"hi={hi} exceeds supported sieve bound {SUPPORTED_SIEVE_BOUND}")
    if hi - lo > MAX_MATERIALIZED_FLAGS:
        raise SieveRangeError(
            f"window of {hi - lo} flags exceeds materialization cap "
            f"{MAX_MATERIALIZED_FLAGS}; sieve it as smaller windows"
        )


def _mark_segment(lo: int, hi: int) -> np.ndarray:
    """The flags of sieve_segment, writable and unchecked.

    The window's flags are allocated once and presieved by the wheel of the
    primes 2..13, which are then marked prime again where the window holds
    them.  Each SEGMENT_FLAGS block is marked in place by the other base
    primes up to the root of the block's end.  Private, so that base_primes
    grows the cache without counting as a public sieve call.
    """
    flags = _tile_periodic(_WHEEL, lo, np.ones(hi - lo, dtype=bool), np.logical_and)
    for p in WHEEL_PRIMES:
        if lo <= p < hi:
            flags[p - lo] = True
    for s in range(lo, hi, SEGMENT_FLAGS):
        e = min(s + SEGMENT_FLAGS, hi)
        block = flags[s - lo : e - lo]
        for p in base_primes(math.isqrt(e - 1))[len(WHEEL_PRIMES) :]:
            p = int(p)
            # start at p*p so base primes inside the block stay marked prime
            start = max(p * p, ((s + p - 1) // p) * p)
            if start < e:
                block[start - s :: p] = False
    return flags


def primes_in(lo: int, hi: int, dtype=np.int64) -> np.ndarray:
    """Sorted primes in [lo, hi) in the integer dtype, which must hold hi - 1.

    The window is sieved one SEGMENT_FLAGS block at a time by sieve_segment,
    each block's primes cast to dtype, and the blocks joined once: no flag
    array spans the window, and a narrow dtype keeps no int64 copy of it.
    The window and the dtype are checked before anything is allocated.
    """
    _check_window(lo, hi)
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu" or np.iinfo(dtype).max < hi - 1:
        raise SieveRangeError(f"dtype {dtype} cannot hold the primes below {hi}")
    parts = [
        (np.flatnonzero(sieve_segment(s, min(s + SEGMENT_FLAGS, hi))) + s).astype(dtype, copy=False)
        for s in range(lo, hi, SEGMENT_FLAGS)
    ]
    return np.concatenate(parts)


# log p for p >= 3 is at least 1, so as a float64 it is a whole multiple of
# 2^-52: log p * 2^52 splits into two integers of at most 31 and 26 bits
LOG_PART_BITS = 26
_PART_MASK = (1 << LOG_PART_BITS) - 1
_FRAC_MASK = (1 << 2 * LOG_PART_BITS) - 1


def log_parts(ps) -> tuple[np.ndarray, np.ndarray]:
    """Integer parts (hi, lo) of log p, int64, for 3 <= p <= SUPPORTED_SIEVE_BOUND.

    log p = hi * 2^-26 + lo * 2^-52 exactly, with hi < 2^31 and lo < 2^26, so
    sums of the parts are exact integers, and LogSum turns any such sums
    into the correctly rounded sum of the logs whatever the order or grouping.
    """
    ps = np.asarray(ps, dtype=np.int64)
    if ps.size and (ps.min() < 3 or ps.max() > SUPPORTED_SIEVE_BOUND):
        raise ValueError(f"log parts need 3 <= p <= {SUPPORTED_SIEVE_BOUND}")
    scaled = np.ldexp(np.log(ps.astype(np.float64)), LOG_PART_BITS)
    hi = np.floor(scaled)
    lo = np.ldexp(scaled - hi, LOG_PART_BITS)
    return hi.astype(np.int64), lo.astype(np.int64)


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
