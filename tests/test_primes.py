import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import primes
from gapsieve.errors import SieveRangeError
from gapsieve.primes import (
    SUPPORTED_SIEVE_BOUND,
    base_primes,
    LogSum,
    log_parts,
    log_sum,
    primes_in,
)
from oracles import log_parts_ldexp, prime_flags, theta_star


def test_first_primes():
    assert list(primes_in(2, 12)) == [2, 3, 5, 7, 11]


def test_known_decade():
    assert list(primes_in(90, 100)) == [97]


def test_million_window_against_trial_division(trial_division_is_prime):
    expected = [n for n in range(10**6, 10**6 + 10**3) if trial_division_is_prime(n)]
    assert list(primes_in(10**6, 10**6 + 10**3)) == expected
    assert len(expected) == 75


def test_range_errors():
    with pytest.raises(SieveRangeError):
        primes_in(10, 10)
    with pytest.raises(SieveRangeError):
        primes_in(1, 5)
    with pytest.raises(SieveRangeError):
        primes_in(2, SUPPORTED_SIEVE_BOUND + 1)


@given(
    lo=st.integers(min_value=2, max_value=5000),
    width1=st.integers(min_value=1, max_value=500),
    width2=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_segment_concatenation(lo, width1, width2):
    mid = lo + width1
    hi = mid + width2
    joined = np.concatenate([primes_in(lo, mid), primes_in(mid, hi)])
    assert np.array_equal(joined, primes_in(lo, hi))


def test_window_oracle_is_the_plain_sieve(trial_division_is_prime):
    # prime_flags, the window oracle the sieve is checked against, against
    # trial division
    for lo, hi in [(2, 3), (2, 1000), (5, 12), (90, 100), (961, 962), (1000, 5000)]:
        assert prime_flags(lo, hi).tolist() == [trial_division_is_prime(n) for n in range(lo, hi)]


def _assert_window_is_oracle(lo, hi):
    assert np.array_equal(primes_in(lo, hi), lo + np.flatnonzero(prime_flags(lo, hi)))


# windows for the odd-only core: starting at 2, at each wheel prime and at
# 16, 17 and 18, with an even or an odd first number, one number long, and
# ending just past the square of a base prime (17^2 = 289, 19^2 = 361,
# 1009^2 = 1,018,081), where the block's last number is the first one that
# prime strikes
_CORE_WINDOWS = [
    *((lo, lo + width) for lo in (2, 3, 5, 7, 11, 13, 16, 17, 18) for width in (1, 2, 3, 40, 1000)),
    (4, 5), (9, 10), (289, 290), (10**6, 10**6 + 1), (10**6 + 3, 10**6 + 4), (1_018_081, 1_018_082),
    (200, 290), (200, 291), (289, 362), (10**6, 1_018_082), (10**6 + 1, 1_018_083),
]


@pytest.mark.parametrize(
    "lo, hi",
    [
        (primes.SEGMENT_FLAGS - 5, 3 * primes.SEGMENT_FLAGS + 7),  # unaligned block boundaries
        (2, 2 * primes.SEGMENT_FLAGS + 3),
        # below 13 the window holds wheel primes, which the presieve strikes
        (2, 14),
        (5, 12),
        (12, 30_030 + 40),
        # windows from just off a whole number of wheel periods
        (30_030 * 333 - 1, 30_030 * 336 + 2),
        (30_030 * 333 + 1, 30_030 * 333 + 500),
        (30_030 * 33_300 - 1, 30_030 * 33_300 + primes.SEGMENT_FLAGS + 1),
        # more odd flags than one block holds, from an even and an odd lo
        (10**7, 10**7 + 2 * primes.SEGMENT_FLAGS + 9),
        (10**7 + 1, 10**7 + 2 * primes.SEGMENT_FLAGS + 10),
        *_CORE_WINDOWS,
    ],
)
def test_sieve_blocks_match_plain_eratosthenes(lo, hi):
    _assert_window_is_oracle(lo, hi)


@given(lo=st.integers(min_value=2, max_value=3000), width=st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
@example(lo=1_018_081 - 1000, width=1001)  # the last flag of a block is 1009^2
@example(lo=1_018_081 - 999, width=1001)
@example(lo=1_018_081 - 127, width=128)
def test_small_sieve_blocks_match_plain_eratosthenes(lo, width):
    _assert_small_blocks_are_oracle(lo, lo + width)


@pytest.mark.parametrize("lo, hi", _CORE_WINDOWS)
def test_small_sieve_blocks_match_plain_eratosthenes_on_core_windows(lo, hi):
    _assert_small_blocks_are_oracle(lo, hi)


def _assert_small_blocks_are_oracle(lo, hi):
    # blocks of 64 flags: many boundaries, and blocks below the square of
    # their base primes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT_FLAGS", 64)
        _assert_window_is_oracle(lo, hi)


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int32])
def test_primes_in_blocks_match_plain_eratosthenes_in_any_dtype(dtype):
    # block edges not aligned with the window's ends
    _assert_primes_in_is_oracle((1 << 20) - 5, 3 * (1 << 20) + 7, dtype)


@pytest.mark.parametrize("lo, hi", _CORE_WINDOWS)
@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int32])
def test_primes_in_matches_plain_eratosthenes_on_core_windows_in_any_dtype(dtype, lo, hi):
    _assert_primes_in_is_oracle(lo, hi, dtype)


def _assert_primes_in_is_oracle(lo, hi, dtype):
    got = primes_in(lo, hi, dtype=dtype)
    assert got.dtype == dtype
    assert np.array_equal(got, lo + np.flatnonzero(prime_flags(lo, hi)))


def test_primes_in_refuses_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("array allocated")

    monkeypatch.setattr(primes, "MAX_WINDOW_LENGTH", 100)
    monkeypatch.setattr(primes.np, "ones", no_allocation)
    monkeypatch.setattr(primes.np, "empty", no_allocation)
    with pytest.raises(SieveRangeError, match="^window of 101 numbers exceeds window-length cap 100; ") as err:
        primes_in(10, 111, dtype=np.uint8)
    assert "segments" not in str(err.value)
    # a window at the cap is accepted and reaches the allocation
    with pytest.raises(AssertionError, match="array allocated"):
        primes_in(10, 110, dtype=np.uint8)
    # 256 > 255, the largest uint8; a float type holds no primes
    for dtype in (np.uint8, np.int8, np.float64):
        with pytest.raises(SieveRangeError, match=f"dtype {np.dtype(dtype)} cannot hold the primes below 257"):
            primes_in(200, 257, dtype=dtype)
    # a dtype that holds hi - 1 is accepted and reaches the allocation
    with pytest.raises(AssertionError, match="array allocated"):
        primes_in(200, 256, dtype=np.uint8)


def test_theta_star_examples():
    # primes in (10, 20] congruent to 1 mod 3 are 13 and 19
    v = theta_star(10, 1, 3)
    assert v == pytest.approx(math.log(13) + math.log(19), abs=1e-12)

    # q = 1 imposes no congruence
    total = theta_star(10, 1, 1)
    assert total == pytest.approx(math.log(11 * 13 * 17 * 19), abs=1e-12)


def test_theta_star_additivity():
    # partition of primes in (y, 2y] by residue class mod q
    y, q = 300, 12
    total = math.fsum(theta_star(y, a, q) for a in range(q) if math.gcd(a, q) == 1)
    all_primes = primes_in(y + 1, 2 * y + 1)
    in_q_classes = [int(p) for p in all_primes if math.gcd(int(p) % q, q) == 1]
    assert total == pytest.approx(math.fsum(math.log(p) for p in in_q_classes), rel=1e-12)
    # primes dividing q account for the remainder
    rest = [int(p) for p in all_primes if math.gcd(int(p) % q, q) != 1]
    assert all(q % p == 0 for p in rest)


def test_base_primes_one_growing_cache(monkeypatch):
    from sympy import primerange

    # start from an empty cache so the growth path runs
    monkeypatch.setattr(primes, "_BASE_PRIMES", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(primes, "_BASE_LIMIT", 1)
    for limit in (10, 10**5, 10):
        got = base_primes(limit)
        assert got.dtype == np.int64
        assert got.tolist() == list(primerange(2, limit + 1))
        assert not got.flags.writeable


def _seed_cache(monkeypatch):
    # the cache as the module starts it: the wheel primes, all primes <= 16
    seed = np.array(primes.WHEEL_PRIMES, dtype=np.int64)
    seed.setflags(write=False)
    monkeypatch.setattr(primes, "_BASE_PRIMES", seed)
    monkeypatch.setattr(primes, "_BASE_LIMIT", 16)


def test_base_primes_growth_holds_no_range_wide_flags(monkeypatch):
    # growing from 1e6 to 1e7 marks one SEGMENT_FLAGS block at a time: what
    # is held is the new primes, their joined copy and one block's flags
    plain = 2 + np.flatnonzero(prime_flags(2, 10**7 + 1))
    seed = plain[: np.searchsorted(plain, 10**6, side="right")].copy()
    seed.setflags(write=False)
    monkeypatch.setattr(primes, "_BASE_PRIMES", seed)
    monkeypatch.setattr(primes, "_BASE_LIMIT", 10**6)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = base_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 16 * len(plain) + primes.SEGMENT_FLAGS + 2**20
    assert np.array_equal(got, plain)


def test_base_primes_extension_across_doublings_is_the_plain_sieve(monkeypatch):
    _seed_cache(monkeypatch)
    plain = 2 + np.flatnonzero(prime_flags(2, 2 * 10**6 + 1))
    limits = []
    for limit in (16, 17, 288, 289, 1000, 2047, 5000, 70_001, 2 * 10**6):
        got = base_primes(limit)
        limits.append(primes._BASE_LIMIT)
        assert not got.flags.writeable
        assert np.array_equal(got, plain[: np.searchsorted(plain, limit, side="right")])
    # the cache grew in several steps, each sieving only the new range
    assert len(set(limits)) >= 5
    cache = primes._BASE_PRIMES
    assert np.array_equal(cache, 2 + np.flatnonzero(prime_flags(2, primes._BASE_LIMIT + 1)))


# ---------------------------------------------------------------------------
# exact log sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lo, hi", [(3, 10**6), (10**7, 2 * 10**7), (SUPPORTED_SIEVE_BOUND - 10**5, SUPPORTED_SIEVE_BOUND)])
def test_log_sum_is_fsum_bit_for_bit(lo, hi):
    ps = primes_in(lo, hi)
    hi_part, lo_part = log_parts(ps)
    logs = np.log(ps.astype(np.float64))
    # the parts are log p exactly, within their stated widths
    assert (hi_part < 2**31).all() and ((0 <= lo_part) & (lo_part < 2**26)).all()
    assert np.array_equal(np.ldexp(hi_part.astype(np.float64), -26) + np.ldexp(lo_part.astype(np.float64), -52), logs)
    assert float(log_sum(hi_part.sum(), lo_part.sum())).hex() == math.fsum(logs).hex()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), groups=st.integers(1, 64))
def test_log_sum_ignores_order_and_grouping(seed, groups):
    rng = np.random.default_rng(seed)
    ps = primes_in(10**6, 2 * 10**6)
    hi_part, lo_part = log_parts(ps)
    whole = log_sum(hi_part.sum(), lo_part.sum())
    order = rng.permutation(len(ps))
    cuts = np.sort(rng.integers(0, len(ps), groups - 1))
    # per-group sums, by float64 bincounts (exact here) taken to int64, then
    # summed again
    label = np.zeros(len(ps), dtype=np.int64)
    label[order] = np.searchsorted(cuts, np.arange(len(ps)), side="right")
    group_hi = np.bincount(label, weights=hi_part, minlength=groups).astype(np.int64)
    group_lo = np.bincount(label, weights=lo_part, minlength=groups).astype(np.int64)
    regrouped = log_sum(int(group_hi[::-1].sum()), int(group_lo.sum()))
    assert float(regrouped).hex() == float(whole).hex()
    # and elementwise, each group is its own correctly rounded sum
    logs = np.log(ps.astype(np.float64))
    sums = log_sum(group_hi, group_lo)
    for g in range(groups):
        assert float(sums[g]).hex() == math.fsum(logs[label == g]).hex()


@settings(max_examples=60, deadline=None)
@example(lo=3, width=1)
@example(lo=SUPPORTED_SIEVE_BOUND - 3000, width=3000)
@given(lo=st.integers(3, SUPPORTED_SIEVE_BOUND - 1), width=st.integers(1, 3000))
def test_log_parts_are_the_ldexp_parts(lo, width):
    # the parts scaled by exact multiplies by 2^26 against two np.ldexp
    # passes, over the primes of a window anywhere in [3, the sieve bound]
    ps = primes_in(lo, min(lo + width, SUPPORTED_SIEVE_BOUND))
    got, want = log_parts(ps), log_parts_ldexp(ps)
    assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))


def test_log_parts_and_sum_refusals():
    for bad in ([2], [1, 5], [0], [-7], [SUPPORTED_SIEVE_BOUND + 1]):
        with pytest.raises(ValueError, match="3 <= p"):
            log_parts(np.array(bad))
    log_parts(np.array([3, SUPPORTED_SIEVE_BOUND]))  # both ends are accepted
    # a float sum of parts may already have rounded, so floats are refused
    for hi_sum, lo_sum in ((2.0**40, 0), (0, np.array([1.0])), (np.array([1, 2], dtype=np.float64), np.array([0, 0]))):
        with pytest.raises(TypeError, match="integers"):
            log_sum(hi_sum, lo_sum)
        with pytest.raises(TypeError, match="integers"):
            LogSum().add(hi_sum, lo_sum)


def test_log_sum_is_exact_for_any_int64_part_sums():
    # part sums past 2^53, hi ones up to the int64 limit and lo ones up to
    # 2^62, nine of them added into one LogSum, against exact rationals
    # rounded once
    rng = np.random.default_rng(5)
    top = np.iinfo(np.int64).max
    adds = [(rng.integers(2**53, top, 500, endpoint=True), rng.integers(2**53, 2**62, 500))
            for _ in range(8)]
    adds.append((np.full(500, top), np.full(500, 2**62 - 1)))
    total = LogSum()
    for hi_sum, lo_sum in adds:
        total.add(hi_sum, lo_sum)
    assert ((0 <= total.frac) & (total.frac < 2**52)).all()
    exact = [sum(Fraction(int(h[i]), 2**26) + Fraction(int(l[i]), 2**52) for h, l in adds) for i in range(500)]
    assert [Fraction(w) + Fraction(f, 2**52) for w, f in zip(total.whole.tolist(), total.frac.tolist())] == exact
    assert [x.hex() for x in total.value().tolist()] == [float(x).hex() for x in exact]
    # log_sum is one such add, from zero
    h, l = adds[0]
    one = [float(Fraction(a, 2**26) + Fraction(b, 2**52)).hex() for a, b in zip(h.tolist(), l.tolist())]
    assert [x.hex() for x in log_sum(h, l).tolist()] == one


# ---------------------------------------------------------------------------
# exact grouped sums
# ---------------------------------------------------------------------------

@given(
    pairs=st.lists(
        st.tuples(st.floats(min_value=-1e280, max_value=1e280), st.integers(min_value=0, max_value=2**47)),
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_repeated_fsum_is_the_exact_sum_rounded_once(pairs):
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    exact = sum((Fraction(v) * c for v, c in pairs), Fraction(0))
    assert primes._repeated_fsum(values, counts).hex() == float(exact).hex()


def test_repeated_fsum_splits_without_overflow():
    # values past 2^996, where a Veltkamp split by 2^27 + 1 would overflow,
    # and subnormals, where the low half is all there is
    values = np.array([1.5e308, -1.25e305, 5e-324, 3e-310])
    counts = np.array([1, 1000, 2**40 + 3, 7])
    exact = sum((Fraction(v) * int(c) for v, c in zip(values.tolist(), counts.tolist())), Fraction(0))
    assert primes._repeated_fsum(values, counts).hex() == float(exact).hex()
    assert primes._repeated_fsum(np.zeros(0), np.zeros(0, dtype=np.int64)) == 0.0
