import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import singular
from gapsieve.errors import BudgetError, ToleranceError
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


def test_vanishing_tuple_is_exact_zero():
    v = singular_series(OffsetTuple((1, 3, 5)))
    assert v == SingularSeriesValue(0.0, v.truncation_prime, 0.0)


def test_truncation_stability():
    lo = singular_series(TWIN, truncation_prime=10**6)
    hi = singular_series(TWIN, truncation_prime=2 * 10**6)
    assert abs(lo.value - hi.value) <= max(lo.tail_bound, 1e-14) * lo.value + 1e-15


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


def test_septuple_value_against_direct_product():
    # independent oracle: raw truncated product over primes to 10^6 without
    # any tail machinery.  The raw product itself misses the tail, whose log
    # is negative and of size at most (k^2 - k)/2 * sum_{p > 10^6} p^-2, so
    # the corrected value must sit just below it within that window.
    from gapsieve.primes import base_primes
    from gapsieve.tuples import omega_size

    t = OffsetTuple(SEPTUPLE_OFFSETS)
    logs = 0.0
    for p in base_primes(10**6):
        p = int(p)
        w = omega_size(t, p)
        logs += math.log1p(-w / p) - t.k * math.log1p(-1.0 / p)
    raw = math.exp(logs)
    v = singular_series(t)
    k = t.k
    tail_window = (k * k - k) / 2 * 2.0 / (10**6 * (math.log(10**6) - 1))
    assert raw * (1 - tail_window) < v.value < raw


def test_gallagher_k1_exact():
    assert gallagher_average(40, 1).normalized == 1.0


def test_gallagher_k2_trend_small():
    a = gallagher_average(60, 2)
    b = gallagher_average(120, 2)
    assert 0.7 <= a.normalized <= 1.3
    assert abs(b.normalized - 1) < abs(a.normalized - 1)


def test_gallagher_budget(monkeypatch):
    monkeypatch.setattr(singular, "ENUMERATION_BUDGET", 1000)
    with pytest.raises(BudgetError, match="budget 1000;"):
        gallagher_average(200, 5)
    # stride sampling brings it under budget; cost scales with the sample
    monkeypatch.setattr(singular, "ENUMERATION_BUDGET", 10**5)
    rep = gallagher_average(200, 5, stride=10**5)
    assert 0 < rep.tuple_count <= math.comb(200, 5) // 10**5 + 1
    assert 0.3 <= rep.normalized <= 2.0
