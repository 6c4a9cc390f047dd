import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve.errors import BudgetError, RegimeError
from gapsieve.tuples import SEPTUPLE_OFFSETS, TWIN_OFFSETS, OffsetTuple, is_admissible
from gapsieve import weights
from gapsieve.weights import (
    TABLE_MEMO,
    WeightParams,
    divisor_table,
    lambda_block,
)
from oracles import lambda_bruteforce, lambda_weight, prime_flags

TWIN = OffsetTuple(TWIN_OFFSETS)
SEPTUPLE = OffsetTuple(SEPTUPLE_OFFSETS)


def test_params_validation():
    with pytest.raises(ValueError):
        WeightParams(0.5, 1)
    with pytest.raises(ValueError):
        WeightParams(10.0, 0)  # a = 0 rejected
    for R in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            WeightParams(R, 1)


def test_params_refuse_weights_past_the_float_range():
    # 170! is the last factorial below the float maximum; (log R)^a can leave
    # the range first, and a huge a is refused without forming a!
    assert lambda_weight(1, WeightParams(1000.0, 170)) == pytest.approx(6.7e-165, rel=1e-2)
    for R, a in ((1000.0, 171), (10.0, 10**9), (1e300, 120)):
        with pytest.raises(ValueError, match="float range"):
            WeightParams(R, a)
    WeightParams(1e300, 100)  # (log 1e300)^100 is about 8.6e283
    WeightParams(1.0, 170)  # log R = 0: every weight is 0


def test_lambda_weight_examples():
    assert lambda_weight(1, WeightParams(10, 1)) == math.log(10)
    assert lambda_weight(6, WeightParams(10, 1)) == pytest.approx(math.log(10 / 6), rel=1e-15)
    assert lambda_weight(11, WeightParams(10, 3)) == 0.0
    with pytest.raises(ValueError, match="4 is not squarefree"):
        lambda_weight(4, WeightParams(10, 1))
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        lambda_weight(0, WeightParams(10, 1))


def test_lambda_weight_answers_d_above_r_without_factoring():
    # d > R must return before any division, however large d is
    assert lambda_weight(10**18 + 1, WeightParams(10.0, 1)) == 0.0


@given(d=st.integers(min_value=1, max_value=400))
@settings(max_examples=80, deadline=None)
def test_lambda_weight_sign_is_mobius(d):
    # skip non-squarefree draws
    m, fs = d, []
    for p in range(2, d + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                return
            fs.append(p)
    if m > 1:
        fs.append(m)
    mu = -1 if len(fs) % 2 else 1
    v = lambda_weight(d, WeightParams(401.0, 2))
    assert v != 0 and (v > 0) == (mu > 0)


def test_divisor_sum_example():
    # P(2) = 3*5; squarefree divisors of 15 up to 10 are 1, 3, 5
    wp = WeightParams(10.0, 1)
    expected = math.log(10) - math.log(10 / 3) - math.log(10 / 5)
    assert expected == pytest.approx(math.log(1.5), rel=1e-15)
    blk = lambda_block(TWIN, wp, 2, 3, force=True)
    assert blk.values[2 - blk.lo] == pytest.approx(expected, rel=1e-14)
    assert lambda_bruteforce(TWIN, wp, 2) == pytest.approx(expected, rel=1e-14)


def test_block_requires_r_below_lo():
    with pytest.raises(RegimeError):
        lambda_block(TWIN, WeightParams(10.0, 1), 2, 3)
    with pytest.raises(BudgetError):
        lambda_block(TWIN, WeightParams(10.0, 1), 100, 100 + (1 << 25))


def test_table_and_block_refusals():
    with pytest.raises(BudgetError, match=f"^R = {weights.R_BUDGET + 1} exceeds divisor-table budget {weights.R_BUDGET}$"):
        divisor_table(TWIN, weights.R_BUDGET + 1)
    with pytest.raises(ValueError, match=r"^empty block \[100, 100\)$"):
        lambda_block(TWIN, WeightParams(10.0, 3), 100, 100)


def test_prime_window_value_is_exact():
    wp = WeightParams(50.0, 2)
    blk = lambda_block(TWIN, wp, 10**4, 2 * 10**4)
    flags = prime_flags(10**4, 2 * 10**4 + 4)  # flags[i]: is 10^4 + i prime
    expected = math.log(50.0) ** 2 / 2
    hits = 0
    for n in range(10**4, 2 * 10**4):
        if flags[n + 1 - 10**4] and flags[n + 3 - 10**4]:
            assert blk.values[n - blk.lo] == expected  # only d = 1 contributes
            hits += 1
    assert hits > 50


def test_block_matches_bruteforce_window():
    wp = WeightParams(50.0, 2)
    blk = lambda_block(TWIN, wp, 100, 200)
    for n in range(100, 200):
        assert blk.values[n - blk.lo] == pytest.approx(lambda_bruteforce(TWIN, wp, n), abs=1e-12)


@pytest.mark.parametrize("t", [TWIN, SEPTUPLE], ids=["twin", "septuple"])
@pytest.mark.parametrize("a", [2, 3, 8])
def test_block_matches_bruteforce_spotchecks(t, a):
    wp = WeightParams(1000.0, a)
    blk = lambda_block(t, wp, 10**4, 10**4 + 512)
    for n in range(10**4, 10**4 + 512, 13):
        b = lambda_bruteforce(t, wp, n)
        assert blk.values[n - blk.lo] == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("t", [TWIN, SEPTUPLE], ids=["twin", "septuple"])
@pytest.mark.parametrize("R", [31.6, 56.2, 58.9, 59.0, 100.0, 1000.0])
@given(lo=st.integers(min_value=1001, max_value=10**9), a=st.integers(min_value=1, max_value=9))
@settings(max_examples=8, deadline=None)
def test_block_is_bitwise_bruteforce(t, R, lo, a):
    # R < 59: every divisor comes from the signature state; R >= 59 adds a tail
    wp = WeightParams(R, a)
    table = divisor_table(t, R)
    assert bool(table.tail) == (R >= 59)
    assert len(table.prefix_state(wp)[0]) <= 1 << 16
    blk = lambda_block(t, wp, lo, lo + 48)
    oracle = np.array([lambda_bruteforce(t, wp, n) for n in range(lo, lo + 48)])
    assert np.array_equal(blk.values.view(np.int64), oracle.view(np.int64))


def test_membership_reduction_identity():
    # with n + 3 prime and beyond R, dropping offset 3 cannot change the sum
    wp = WeightParams(80.0, 3)
    with_h = lambda_block(TWIN, wp, 10**4, 10**4 + 2000)
    without_h = lambda_block(OffsetTuple((1,)), wp, 10**4, 10**4 + 2000)
    flags = prime_flags(10**4, 10**4 + 2004)  # flags[i]: is 10^4 + i prime
    checked = 0
    for n in range(10**4, 10**4 + 2000):
        if flags[n + 3 - 10**4]:
            assert with_h.values[n - with_h.lo] == without_h.values[n - without_h.lo]  # bit-identical
            checked += 1
    assert checked > 100


def test_block_partition_independence():
    wp = WeightParams(300.0, 3)
    full = lambda_block(TWIN, wp, 2000, 6000)
    parts = [lambda_block(TWIN, wp, 2000, 3137), lambda_block(TWIN, wp, 3137, 6000)]
    assert np.array_equal(full.values, np.concatenate([p.values for p in parts]))


def test_block_values_immutable():
    blk = lambda_block(TWIN, WeightParams(10.0, 1), 100, 120)
    with pytest.raises(ValueError):
        blk.values[0] = 1.0


def test_divisor_table_contents():
    table = divisor_table(TWIN, 10.0)
    ds = [e.d for e in table]
    assert ds == sorted(ds)
    assert ds == [1, 2, 3, 5, 6, 7, 10]
    by_d = {e.d: e for e in table}
    assert by_d[2].residues == ((-1) % 2,) == (1,)
    assert by_d[6].mu == 1 and by_d[3].mu == -1
    assert len(by_d[3].residues) == 2


def test_divisor_table_memo(monkeypatch):
    # a repeated (tuple, R) is the same table, with its signature states
    # built once and read-only; the memo keeps the last TABLE_MEMO tables
    weights._build_table.cache_clear()
    table = divisor_table(SEPTUPLE, 56.2)
    wp = WeightParams(56.2, 8)
    values, comp = table.prefix_state(wp)
    assert divisor_table(SEPTUPLE, 56.2) is table
    monkeypatch.setattr(weights, "_weight_value", None)  # nothing may be rebuilt
    assert divisor_table(SEPTUPLE, 56.2).prefix_state(wp)[0] is values
    monkeypatch.undo()
    for state in (values, comp):
        with pytest.raises(ValueError):
            state[0] = 1.0
    others = [divisor_table(TWIN, 10.0 + i) for i in range(TABLE_MEMO - 1)]
    assert divisor_table(SEPTUPLE, 56.2) is table
    assert [divisor_table(TWIN, 10.0 + i) for i in range(TABLE_MEMO - 1)] == others
    divisor_table(TWIN, 100.0)  # one more evicts the least recently used
    assert weights._build_table.cache_info().currsize == TABLE_MEMO
    assert divisor_table(SEPTUPLE, 56.2) is not table
    assert list(divisor_table(SEPTUPLE, 56.2)) == list(table)


@st.composite
def _admissible_tuples(draw):
    """Admissible tuples of at most 7 offsets in [1, 60]: each drawn offset
    is kept when the tuple stays admissible with it."""
    kept: list[int] = []
    for h in draw(st.lists(st.integers(1, 60), min_size=1, max_size=7, unique=True)):
        if is_admissible(OffsetTuple(tuple(kept + [h]))):
            kept.append(h)
    return OffsetTuple(tuple(kept))


_WHEEL_PERIOD = 2 * 3 * 5 * 7 * 11 * 13


@settings(max_examples=60, deadline=None)
@example(t=SEPTUPLE, R=58.0, lo=_WHEEL_PERIOD * 33_300, size=70_000)
@example(t=SEPTUPLE, R=100.0, lo=_WHEEL_PERIOD * 33_300 - 1, size=2 * _WHEEL_PERIOD + 5)
@example(t=TWIN, R=31.6, lo=2, size=1)
@given(
    t=_admissible_tuples(),
    R=st.sampled_from([10.0, 31.6, 58.0, 100.0]),
    lo=st.one_of(
        st.integers(2, 10**9),
        st.integers(1, 10**9 // _WHEEL_PERIOD).map(lambda j: j * _WHEEL_PERIOD),
        st.integers(1, 10**9 // _WHEEL_PERIOD).map(lambda j: j * _WHEEL_PERIOD - 1),
    ),
    size=st.integers(1, 70_000),
)
def test_signatures_are_the_per_n_definition(t, R, lo, size):
    # bit i is set when n mod p_i is a class -h mod p_i, p_i the i-th prime <= min(R, 53)
    n = np.arange(lo, lo + size, dtype=np.int64)
    expected = np.zeros(size, dtype=np.uint16)
    for i, p in enumerate(p for p in range(2, 54) if p <= R and all(p % q for q in range(2, p))):
        covered = np.isin(n % p, [(-h) % p for h in t.offsets])
        expected |= covered.astype(np.uint16) << i
    assert np.array_equal(divisor_table(t, R).signatures(lo, lo + size), expected)


def _naive_prime_factors(d):
    out, m, f = [], d, 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


@pytest.mark.parametrize("t", [TWIN, SEPTUPLE], ids=["twin", "septuple"])
def test_divisor_table_primes(t):
    table = divisor_table(t, 1000.0)
    assert len(table) > 600
    for e in table:
        assert list(e.primes) == sorted(e.primes)
        assert math.prod(e.primes) == e.d
        assert e.mu == (-1) ** len(e.primes)
        assert list(e.primes) == _naive_prime_factors(e.d)
