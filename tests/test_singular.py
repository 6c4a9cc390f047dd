import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import singular, tuples
from gapsieve.errors import BudgetError, ToleranceError
from gapsieve.primes import base_primes
from gapsieve.singular import (
    SingularSeriesValue,
    gallagher_average,
    singular_series,
    singular_series_extended,
)
from gapsieve.tuples import (
    SEPTUPLE_OFFSETS,
    TWIN_OFFSETS,
    OffsetTuple,
    enumerate_tuples,
    extend,
    is_admissible,
    omega_profile,
)

TWIN = OffsetTuple(TWIN_OFFSETS)

# twin tuple constant 2 * prod_{p>2} (1 - (p-1)^-2), computed independently
# to 20 digits with mpmath (prime product accelerated through primezeta):
TWIN_CONSTANT = 1.3203236316937391479


def test_single_offset_is_exactly_one():
    v = singular_series(OffsetTuple((5,), 5))
    assert v.value == 1.0


def test_twin_constant():
    v = singular_series(TWIN)
    assert v.value == pytest.approx(TWIN_CONSTANT, abs=1e-12)
    assert v.tail_bound < 1e-12


def test_tail_bound_is_its_derivation(monkeypatch):
    """tail_bound = tail_neglect + 4 eps (|small part| + |corr| + |log total|
    + 1) + the generic part's allowance: the Kahan small part and the
    three-term combination each round within a few eps of their magnitudes.
    With the generic part fixed at known nonzero floats, every term shows."""
    log_generic, generic_slack, corr, tail_neglect = 0.25, 3e-16, -0.125, 1e-15
    monkeypatch.setattr(singular, "_generic_part", lambda *args: (log_generic, generic_slack, corr, tail_neglect))
    eps = 2.0**-52
    # twin at span bound 3: w(2) = 1 and w(3) = 2, and the compensated sum of
    # two terms is their rounded sum
    t2 = math.log1p(-1 / 2) - 2 * math.log1p(-1 / 2)
    t3 = math.log1p(-2 / 3) - 2 * math.log1p(-1 / 3)
    log_total = (t2 + t3) + log_generic + corr
    v = singular_series(TWIN)
    fp_slack = 4 * eps * (abs(t2) + abs(t3) + abs(corr) + abs(log_total) + 1) + generic_slack
    assert v.tail_bound == tail_neglect + fp_slack
    assert v.value == math.exp(log_total)


def test_vanishing_tuple_is_exact_zero():
    v = singular_series(OffsetTuple((1, 3, 5)))
    assert v == SingularSeriesValue(0.0, v.truncation_prime, 0.0)


def test_truncation_stability():
    lo = singular_series(TWIN, truncation_prime=10**6)
    hi = singular_series(TWIN, truncation_prime=2 * 10**6)
    assert abs(lo.value - hi.value) <= max(lo.tail_bound, 1e-14) * lo.value + 1e-15


def test_series_leaves_no_longdouble_arrays_behind():
    # the running sums stream over the int64 cache in one small reused block,
    # and each tail power sum holds one longdouble array of pi(P0) entries
    # until it is summed: only the memos' scalars stay behind
    p0 = 10**6
    base_primes(10 * p0)  # the shared cache's growth is not the series'
    ts = [TWIN, OffsetTuple((1, 3, 7)), OffsetTuple(SEPTUPLE_OFFSETS)]
    singular._generic_part.cache_clear()
    singular._p0_pass.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        before = [singular_series(t, truncation_prime=p0) for t in ts]
        current, peak = tracemalloc.get_traced_memory()
        for t in ts:
            singular_series(t, truncation_prime=10 * p0)
        singular._generic_part.cache_clear()
        singular._p0_pass.cache_clear()
        after = [singular_series(t, truncation_prime=p0) for t in ts]
        final = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current - start <= 256 * 1024
    assert final - start <= 256 * 1024
    # one power sum's array of pi(P0) entries, at most
    assert peak - start <= np.dtype(np.longdouble).itemsize * len(base_primes(p0)) + 2**20
    # a larger P0 in between moves no bit at P0
    assert [(v.value.hex(), v.tail_bound.hex()) for v in before] == [
        (v.value.hex(), v.tail_bound.hex()) for v in after]


def _whole_array_generic_part(k, span_bound, p0, tol):
    """The generic part as one pass over a longdouble cast of all the primes
    <= p0: one cumsum of the factors and one of their absolute values, read
    at pi(span_bound) and pi(p0), and the tail's power sums on the cast."""
    ps = base_primes(p0).astype(np.longdouble)
    n, i1 = len(ps), len(base_primes(span_bound))
    cum, cumabs = np.zeros((2, n + 1), dtype=np.longdouble)
    head = int(np.searchsorted(ps, k, side="right"))
    g, tmp = cum[head + 1 :], cumabs[head + 1 :]
    np.log1p(np.divide(-k, ps[head:], out=g), out=g)
    g -= np.multiply(k, np.log1p(np.divide(-1.0, ps[head:], out=tmp), out=tmp), out=tmp)
    np.cumsum(np.abs(cum, out=cumabs), out=cumabs)
    np.cumsum(cum, out=cum)
    slack = (n - i1) * singular._EPS_LD * (float(cumabs[n] - cumabs[i1]) + 1.0)
    ratio, corr, noise = k / p0, np.longdouble(0), 0.0
    for j in range(2, singular._SERIES_CAP + 1):
        remaining = p0 * ratio**j / (1.0 - ratio)
        if remaining < tol / 4.0:
            break
        pz = np.longdouble(singular._PRIME_ZETA[j - 2])
        coeff = np.longdouble(k**j - k) / j
        corr -= coeff * max(pz - (ps ** np.longdouble(-j)).sum(), np.longdouble(0))
        noise += 2.0 * singular._EPS_LD * float(coeff * pz)
    return float(cum[n] - cum[i1]), slack, float(corr), remaining + noise


@pytest.mark.parametrize("block", [1, 5, 64])
def test_generic_sums_carry_across_blocks(monkeypatch, block):
    monkeypatch.setattr(singular, "_GENERIC_BLOCK", block)
    for k, span_bound, p0 in [(1, 3, 1000), (2, 2, 1000), (3, 60, 1000), (7, 26, 5000), (10, 100, 100)]:
        singular._generic_part.cache_clear()
        singular._p0_pass.cache_clear()
        got = singular._generic_part(k, span_bound, p0, 1e-8)
        expected = _whole_array_generic_part(k, span_bound, p0, 1e-8)
        assert [x.hex() for x in got] == [x.hex() for x in expected]
    singular._generic_part.cache_clear()
    singular._p0_pass.cache_clear()


def test_one_p0_pass_serves_every_span_bound(monkeypatch):
    # the sums at pi(P0) and the tail are shared by the 20 span bounds; each
    # bound adds a pass over its own primes only, and every bit is that of
    # one whole-array pass per span bound
    p0 = 10**6
    twins = [OffsetTuple((1, 3), h) for h in range(3, 23)]
    monkeypatch.setattr(singular, "_generic_part", _whole_array_generic_part)
    expected = [singular_series(t, truncation_prime=p0) for t in twins]
    monkeypatch.undo()

    passed = []

    def counted(k, primes):
        passed.append(len(primes))
        return generic_sums(k, primes)

    generic_sums = singular._generic_sums
    monkeypatch.setattr(singular, "_generic_sums", counted)
    singular._generic_part.cache_clear()
    singular._p0_pass.cache_clear()
    try:
        got = [singular_series(t, truncation_prime=p0) for t in twins]
        again = singular_series(twins[-1], truncation_prime=p0)  # a memo hit
    finally:
        singular._generic_part.cache_clear()
        singular._p0_pass.cache_clear()
    assert [(v.value.hex(), v.tail_bound.hex()) for v in got] == [
        (v.value.hex(), v.tail_bound.hex()) for v in expected]
    assert again == got[-1]
    n = len(base_primes(p0))
    assert passed.count(n) == 1
    assert sorted(passed) == sorted([n] + [len(base_primes(t.span_bound)) for t in twins])


def test_positive_iff_admissible_small():
    for t in enumerate_tuples(10, 3):
        assert (singular_series(t).value > 0) == is_admissible(t)


@given(
    offs=st.sets(st.integers(min_value=1, max_value=30), min_size=2, max_size=4),
    c=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_shift_invariance(offs, c):
    t = OffsetTuple(tuple(offs))
    shifted = OffsetTuple(tuple(h + c for h in offs))
    a = singular_series(t)
    b = singular_series(shifted)
    assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-300)


def test_extension_two_routes_one_value():
    t = OffsetTuple(TWIN_OFFSETS, 20)
    for h in (7, 9, 13):
        direct = singular_series(extend(t, h))
        via_profile = singular_series_extended(t, h)
        assert via_profile.value == direct.value


def test_extension_route_rejects_members():
    t = OffsetTuple(TWIN_OFFSETS, 20)
    with pytest.raises(ValueError):
        singular_series_extended(t, 3)


def test_tolerance_errors():
    with pytest.raises(ToleranceError):
        singular_series(TWIN, tol=1e-16)
    with pytest.raises(ValueError):
        singular_series(TWIN, tol=-1.0)
    with pytest.raises(ValueError):
        # truncation below the span would drop non-generic primes
        singular_series(OffsetTuple((1, 2000), 2000), truncation_prime=1500)


@pytest.mark.parametrize("run, error, message", [
    (lambda: singular_series_extended(OffsetTuple(TWIN_OFFSETS, 20), 21), ValueError,
     r"extension offset 21 outside \[1, 20\]"),
    (lambda: singular_series(TWIN, truncation_prime=10**8 + 1), ToleranceError,
     "truncation prime 100000001 exceeds cap 100000000"),
    (lambda: singular_series(TWIN, truncation_prime=3), ToleranceError,
     "truncation prime 3 must exceed 2k = 4"),
    (lambda: singular_series(TWIN, tol=1e-14, truncation_prime=10**6), ToleranceError,
     r"certified tail bound \d\.\d{3}e-14 does not reach tol 1\.000e-14 at truncation prime 1000000"),
    # an exact integer: 1000.5 would otherwise be reported as the truncation prime
    (lambda: singular_series(TWIN, truncation_prime=1000.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
])
def test_series_refusals(run, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        run()


def test_truncation_prime_cap_is_inclusive():
    # the validator alone, so that no sieve to 1e8 runs
    assert singular._truncation_prime(3, 1e-12, 10**8) == 10**8
    with pytest.raises(ToleranceError, match="^truncation prime 100000001 exceeds cap 100000000$"):
        singular._truncation_prime(3, 1e-12, 10**8 + 1)


def test_tail_series_cap(monkeypatch):
    # under the enforced bounds (P0 >= 2k, P0 <= 10^8, tol >= 1e-14) the tail
    # needs at most j = 77 < _SERIES_CAP, so the cap is lowered to reach it
    monkeypatch.setattr(singular, "_SERIES_CAP", 2)
    singular._generic_part.cache_clear()
    singular._p0_pass.cache_clear()
    with pytest.raises(ToleranceError, match=r"^tail series did not reach target 2\.5e-13 by j=2$"):
        singular_series(TWIN)


def test_prime_zeta_table_is_mpmath_primezeta():
    # one entry per j the tail may read, so running past the table is the
    # cap's ToleranceError and not an IndexError
    import mpmath

    assert len(singular._PRIME_ZETA) == singular._SERIES_CAP - 1
    with mpmath.workdps(30):
        route = [mpmath.nstr(mpmath.primezeta(j), 25) for j in range(2, singular._SERIES_CAP + 1)]
    assert list(singular._PRIME_ZETA) == route


def test_nan_tolerance_is_refused_before_any_tail_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("a tail pass ran")

    monkeypatch.setattr(singular, "_p0_pass", no_pass)
    with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
        singular_series(TWIN, tol=math.nan, truncation_prime=10**6)
    with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
        singular_series_extended(OffsetTuple(TWIN_OFFSETS, 20), 7, tol=math.nan, truncation_prime=10**6)


def test_septuple_value_against_direct_product():
    # independent oracle: raw truncated product over primes to 10^6 without
    # any tail machinery.  The raw product itself misses the tail, whose log
    # is negative and of size at most (k^2 - k)/2 * sum_{p > 10^6} p^-2, so
    # the corrected value must sit just below it within that window.
    t = OffsetTuple(SEPTUPLE_OFFSETS)
    primes = base_primes(10**6).tolist()
    logs = 0.0
    for p, w in zip(primes, omega_profile(t, primes), strict=True):
        logs += math.log1p(-w / p) - t.k * math.log1p(-1.0 / p)
    raw = math.exp(logs)
    v = singular_series(t)
    k = t.k
    tail_window = (k * k - k) / 2 * 2.0 / (10**6 * (math.log(10**6) - 1))
    assert raw * (1 - tail_window) < v.value < raw


def test_gallagher_k1_exact():
    assert gallagher_average(40, 1).normalized == 1.0


def test_gallagher_validates_only_a_given_worker_count(monkeypatch):
    # the average runs in one process: the environment is never read, and
    # only an explicit count is checked
    monkeypatch.setenv("GAPSIEVE_WORKERS", "abc")
    assert gallagher_average(20, 2) == gallagher_average(20, 2, workers=3)
    with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
        gallagher_average(20, 2, workers=0)


def test_gallagher_takes_an_exact_stride():
    # refused by enumeration_size, not by a float's missing bit_length
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        gallagher_average(20, 2, stride=2.0)


def test_gallagher_k2_trend_small():
    a = gallagher_average(60, 2)
    b = gallagher_average(120, 2)
    assert 0.7 <= a.normalized <= 1.3
    assert abs(b.normalized - 1) < abs(a.normalized - 1)


def test_gallagher_budget(monkeypatch):
    monkeypatch.setattr(tuples, "ENUMERATION_BUDGET", 1000)
    with pytest.raises(BudgetError, match="budget 1000;"):
        gallagher_average(200, 5)
    # stride sampling brings it under budget; cost scales with the sample
    monkeypatch.setattr(tuples, "ENUMERATION_BUDGET", 10**5)
    rep = gallagher_average(200, 5, stride=10**5)
    assert 0 < rep.tuple_count <= math.comb(200, 5) // 10**5 + 1
    assert 0.3 <= rep.normalized <= 2.0


def test_gallagher_budget_refuses_before_the_binomial(monkeypatch):
    def no_comb(*args):
        raise AssertionError("math.comb called before the budget refusal")

    monkeypatch.setattr(tuples.math, "comb", no_comb)
    with pytest.raises(BudgetError, match="budget 2000000;"):
        gallagher_average(10**6, 5 * 10**5)
    with pytest.raises(BudgetError, match="budget 2000000;"):
        gallagher_average(10**6, 10**6 - 30)  # min(k, span - k) is what counts


def test_gallagher_budget_counts_the_sample_exactly(monkeypatch):
    # C(5, 2) = 10 at stride 3 samples the indices 0, 3, 6, 9: four tuples
    monkeypatch.setattr(tuples, "ENUMERATION_BUDGET", 3)
    with pytest.raises(BudgetError, match="= 4 exceeds budget 3;"):
        gallagher_average(5, 2, stride=3)
    assert gallagher_average(5, 2, stride=3, phase=1).tuple_count == 3
    monkeypatch.setattr(tuples, "ENUMERATION_BUDGET", 4)
    assert gallagher_average(5, 2, stride=3).tuple_count == 4


def test_gallagher_reports_the_phase_it_samples_with():
    # phase 10 at stride 7 samples from index 3, as phase 3 does
    assert gallagher_average(40, 3, stride=7, phase=10) == gallagher_average(40, 3, stride=7, phase=3)
    # a full average samples no phase
    assert gallagher_average(20, 2, phase=5) == gallagher_average(20, 2)


def _gallagher_per_tuple(span_bound, k, stride, phase):
    """gallagher_average as it was before it evaluated one series per
    translation class: one series per enumerated tuple.  The oracle for
    .hex() equality; normalized is the exact rational rounded once."""
    values = [singular_series(t).value
              for t in enumerate_tuples(span_bound, k, stride=stride, phase=phase)]
    tuple_sum = math.fsum(values)
    normalized = float(math.factorial(k) * stride * Fraction(tuple_sum) / span_bound**k)
    return tuple_sum, normalized, len(values)


@settings(max_examples=25, deadline=None)
@example(shape=(2, 40), stride=1, phase=0)
@example(shape=(4, 25), stride=1, phase=0)
@example(shape=(1, 40), stride=3, phase=-1)
@given(
    shape=st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=k, max_value=40))),
    stride=st.sampled_from([1, 3, 7]),
    phase=st.integers(min_value=-50, max_value=50),
)
def test_gallagher_by_class_is_the_per_tuple_loop(shape, stride, phase):
    k, span_bound = shape
    rep = gallagher_average(span_bound, k, stride=stride, phase=phase)
    tuple_sum, normalized, count = _gallagher_per_tuple(span_bound, k, stride, phase)
    assert rep.tuple_sum.hex() == tuple_sum.hex()
    assert rep.normalized.hex() == normalized.hex()
    assert rep.tuple_count == count


@settings(max_examples=40, deadline=None)
@example(offs={1, 3, 5}, c=7)  # inadmissible: covers every class mod 3
@given(
    offs=st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=6),
    c=st.integers(min_value=1, max_value=16),
)
def test_series_is_bitwise_translation_invariant_at_a_fixed_span_bound(offs, c):
    span_bound = 40
    a = singular_series(OffsetTuple(tuple(offs), span_bound))
    b = singular_series(OffsetTuple(tuple(h + c for h in offs), span_bound))
    assert a.value.hex() == b.value.hex()
    assert (a.truncation_prime, a.tail_bound.hex()) == (b.truncation_prime, b.tail_bound.hex())


@pytest.mark.parametrize("span_bound, k, profiles", [(60, 3, 46), (100, 2, 21), (200, 2, 42)])
def test_gallagher_evaluates_one_series_per_distinct_profile(monkeypatch, span_bound, k, profiles):
    # the C(H-1, k-1) translation classes share far fewer residue profiles,
    # and no public series call is made
    seen = []
    evaluate = singular._profile_series

    def counted(profile, *args):
        seen.append(tuple(profile))
        return evaluate(profile, *args)

    monkeypatch.setattr(singular, "_profile_series", counted)
    monkeypatch.setattr(singular, "singular_series", None)
    rep = gallagher_average(span_bound, k)
    assert len(seen) == len(set(seen)) == profiles < math.comb(span_bound - 1, k - 1)
    assert rep.tuple_count == math.comb(span_bound, k)


@settings(max_examples=60, deadline=None)
@given(
    span_bound=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_block_profiles_are_the_omega_sizes(span_bound, data):
    k = data.draw(st.integers(min_value=1, max_value=min(span_bound, 6)))
    rows = data.draw(st.lists(st.sets(st.integers(1, span_bound), min_size=k, max_size=k),
                              min_size=1, max_size=5))
    tuples_ = [OffsetTuple(tuple(offs), span_bound) for offs in rows]
    got = singular._block_profiles(np.array([t.offsets for t in tuples_], dtype=np.int32), span_bound)
    primes = base_primes(span_bound).tolist()
    want = []
    for t in tuples_:
        # every w(p) up to and including the first fully covered prime
        want.append(tuple(omega_profile(t, primes)))
    assert got == want


@pytest.mark.parametrize(
    "offsets, span_bound, profile",
    [
        ((1, 3, 7), 10, (1, 2, 3, 3)),  # admissible: every prime <= H
        ((1, 2), 10, (2,)),  # vanishes at 2
        # covers every class mod 5 but not mod 7, which shares 5's group
        ((1, 7, 13, 19, 25), 30, (1, 1, 5)),
    ],
)
def test_block_profiles_end_at_the_first_fully_covered_prime(offsets, span_bound, profile):
    block = np.array([offsets, offsets], dtype=np.int32)
    assert singular._block_profiles(block, span_bound) == [profile, profile]


@pytest.mark.parametrize("span_bound, k, stride, phase", [(40, 3, 1, 0), (20, 4, 1, 0), (60, 2, 1, 0), (40, 3, 7, 2)])
@pytest.mark.parametrize("block", [1, 60, 500])
def test_gallagher_in_small_blocks_is_bitwise_the_same(monkeypatch, span_bound, k, stride, phase, block):
    whole = gallagher_average(span_bound, k, stride=stride, phase=phase)
    # a few rows per block (at least one), and the primes in groups
    monkeypatch.setattr(singular, "PROFILE_BLOCK", block)
    rep = gallagher_average(span_bound, k, stride=stride, phase=phase)
    assert (rep.tuple_sum.hex(), rep.normalized.hex()) == (whole.tuple_sum.hex(), whole.normalized.hex())
    assert rep.tuple_count == whole.tuple_count


@pytest.mark.parametrize(
    "span_bound, k, stride",
    [
        (200, 190, 10**13),  # 190! is beyond the float range
        (10**4, 80, math.comb(10**4, 80) // 10),  # so is (10^4)^80
    ],
)
def test_gallagher_normalizes_past_the_float_range(monkeypatch, span_bound, k, stride):
    rep = gallagher_average(span_bound, k, stride=stride)
    assert rep.tuple_sum == 0.0  # every sampled tuple is inadmissible
    assert rep.normalized == 0.0
    # with every series 1, the sum is the sample size; the ratio is rounded once
    monkeypatch.setattr(singular, "_profile_series", lambda profile, *args: SimpleNamespace(value=1.0))
    rep = gallagher_average(span_bound, k, stride=stride)
    assert rep.tuple_sum == rep.tuple_count > 0
    exact = Fraction(math.factorial(k) * stride * rep.tuple_count, span_bound**k)
    assert rep.normalized == float(exact) > 0


def test_gallagher_refuses_a_normalized_average_past_the_float_range():
    # one sampled tuple, {1}, whose series is 1: normalized = 10^400 / 10
    with pytest.raises(ValueError, match=f"^the normalized average at stride {10**400} leaves the float range$"):
        gallagher_average(10, 1, stride=10**400)
