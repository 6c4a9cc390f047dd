import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import tuples
from gapsieve.errors import BudgetError
from gapsieve.tuples import (
    SEPTUPLE_OFFSETS,
    TWIN_OFFSETS,
    OffsetTuple,
    enumerate_tuples,
    enumeration_size,
    extend,
    extended_omega_size,
    first_obstruction,
    is_admissible,
    normalize_offsets,
    omega_profile,
    unrank_combination,
)

TWIN = OffsetTuple(TWIN_OFFSETS)
SEPTUPLE = OffsetTuple(SEPTUPLE_OFFSETS)

offset_tuples = st.builds(
    lambda offs: OffsetTuple(tuple(offs)),
    st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=7),
)


def test_construction_rules():
    assert OffsetTuple((3, 1)).offsets == (1, 3)  # sorted on construction
    assert TWIN.text() == "1,3" and str(TWIN) == "{1,3}"
    with pytest.raises(ValueError):
        OffsetTuple((1, 1, 3))  # duplicates are an error
    with pytest.raises(ValueError):
        OffsetTuple((0, 2))
    with pytest.raises(ValueError):
        OffsetTuple((1, 9), span_bound=6)
    with pytest.raises(ValueError):
        OffsetTuple(())


@pytest.mark.parametrize("offsets, span, message", [
    ((), 0, "offset tuple must be nonempty"),
    ((5, 1, 5), 0, r"duplicate offsets in \(1, 5, 5\)"),
    ((0, 0), 0, r"duplicate offsets in \(0, 0\)"),  # duplicates are named first
    ((4, -2), 0, "offsets must be >= 1, got -2"),
    ((1, 9), 6, "offset 9 exceeds span bound 6"),
    ((2, 7), -1, "offset 7 exceeds span bound -1"),
])
def test_construction_refusals(offsets, span, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OffsetTuple(offsets, span)


def test_normalize_pattern():
    offs, shift = normalize_offsets([0, 2, 6, 8, 12, 18, 20])
    assert shift == 1
    assert offs == (1, 3, 7, 9, 13, 19, 21)


def test_omega_examples():
    assert omega_profile(TWIN, (2,)) == [1]  # -1 and -3 are both odd
    assert omega_profile(SEPTUPLE, (7,)) == [6]  # one class escapes
    assert omega_profile(OffsetTuple((1, 3, 5)), (3,)) == [3]  # all classes covered


def test_admissibility():
    assert not is_admissible(OffsetTuple((1, 3, 5)))
    assert first_obstruction(OffsetTuple((1, 3, 5))) == 3
    assert is_admissible(SEPTUPLE)
    assert is_admissible(TWIN)


@pytest.mark.parametrize("span, k", [(20, 3), (12, 5)])
def test_first_obstruction_is_the_smallest_fully_covered_prime(span, k):
    # against trial division over every p <= k, on every k-subset of [1, span]
    small = [p for p in range(2, k + 1) if all(p % d for d in range(2, p))]
    for offs in combinations(range(1, span + 1), k):
        covered = [p for p in small if len({-h % p for h in offs}) == p]
        t = OffsetTuple(offs, span)
        assert first_obstruction(t) == (covered[0] if covered else None)
        assert is_admissible(t) == (not covered)


@given(t=offset_tuples, primes=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 59, 61, 67]), max_size=9))
@settings(max_examples=80, deadline=None)
def test_member_count_over_period(t, primes):
    # w(p) is the number of n mod p that make some n + h divisible by p; the
    # profile runs through the first fully covered prime
    primes = sorted(set(primes))
    want = []
    for p in primes:
        want.append(sum(any((n + h) % p == 0 for h in t.offsets) for n in range(p)))
        if want[-1] == p:
            break
    assert omega_profile(t, primes) == want


@given(t=offset_tuples, c=st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_admissibility_shift_invariant(t, c):
    shifted = OffsetTuple(tuple(h + c for h in t.offsets))
    assert is_admissible(t) == is_admissible(shifted)


def test_extend():
    t = OffsetTuple(TWIN_OFFSETS, 6)
    bigger = extend(t, 5)
    assert bigger.offsets == (1, 3, 5)  # constructible though inadmissible
    with pytest.raises(ValueError, match="already an offset"):
        extend(t, 3)
    with pytest.raises(ValueError):
        extend(t, 7)


@given(t=offset_tuples, h=st.integers(min_value=1, max_value=60), p=st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=60, deadline=None)
def test_extended_omega_growth(t, h, p):
    h = min(h, t.span_bound)
    grown = extended_omega_size(t, h, p)
    (base,) = omega_profile(t, (p,))
    assert grown in (base, base + 1)
    if h not in t.offsets:
        ext = extend(t, h)
        assert omega_profile(ext, (p,)) == [grown]
        if p > t.span_bound:
            assert grown == t.k + 1


def test_enumeration():
    got = [t.offsets for t in enumerate_tuples(3, 2)]
    assert got == [(1, 2), (1, 3), (2, 3)]
    assert enumeration_size(20, 3) == 1140
    assert sum(1 for _ in enumerate_tuples(20, 3)) == 1140


@pytest.mark.parametrize("span, k, stride, phase", [
    (9, 3, 1, 0), (9, 3, 4, 2), (6, 6, 1, 0), (7, 1, 3, 5), (np.int64(8), 2, 1, 0), (np.int32(8), 3, 5, 1),
])
def test_enumerated_tuples_are_what_the_checked_constructor_builds(span, k, stride, phase):
    got = list(enumerate_tuples(span, k, stride=stride, phase=phase))
    assert [t.offsets for t in got] == list(combinations(range(1, int(span) + 1), k))[phase % stride :: stride]
    for t in got:
        assert t == OffsetTuple(t.offsets, int(span))
        assert hash(t) == hash(OffsetTuple(t.offsets, int(span)))
        assert [type(v) for v in (*t.offsets, t.span_bound)] == [int] * (k + 1)
        assert t.k == k and t.span_bound == span


def test_enumeration_admissible_filter_matches_bruteforce():
    filtered = {t.offsets for t in enumerate_tuples(20, 3, admissible_only=True)}
    brute = {
        offs
        for offs in combinations(range(1, 21), 3)
        if is_admissible(OffsetTuple(offs, 20))
    }
    assert filtered == brute
    assert 0 < len(filtered) < math.comb(20, 3)


@pytest.mark.parametrize("span, k", [(1, 1), (5, 1), (6, 3), (7, 7), (9, 4), (12, 11)])
def test_unrank_is_the_lexicographic_enumeration(span, k):
    got = [unrank_combination(span, k, i) for i in range(math.comb(span, k))]
    assert got == list(combinations(range(1, span + 1), k))
    for index in (-1, math.comb(span, k)):
        with pytest.raises(ValueError):
            unrank_combination(span, k, index)


def test_enumeration_stride_sampling():
    full = [t.offsets for t in enumerate_tuples(10, 2)]
    sampled = [t.offsets for t in enumerate_tuples(10, 2, stride=3, phase=1)]
    assert sampled == full[1::3]
    with pytest.raises(ValueError):
        list(enumerate_tuples(3, 4))


def test_enumeration_budget_is_checked_at_the_call(monkeypatch):
    # refused when called, before anything is iterated; C(1000, 500) is
    # refused by its 2^500 lower bound, before the binomial is formed
    with pytest.raises(BudgetError, match="= 17310309456440 exceeds budget 2000000;"):
        enumerate_tuples(100, 10, admissible_only=True)
    with pytest.raises(BudgetError, match="C\\(1000,500\\)/1 >= 2\\^500/1 exceeds budget"):
        enumerate_tuples(1000, 500)
    # C(5, 2) = 10 at stride 3 samples the indices 0, 3, 6, 9: four tuples
    monkeypatch.setattr(tuples, "ENUMERATION_BUDGET", 4)
    assert enumeration_size(5, 2, stride=3) == len(list(enumerate_tuples(5, 2, stride=3))) == 4
    assert enumeration_size(5, 2, stride=3, phase=1) == 3
    with pytest.raises(BudgetError, match="= 10 exceeds budget 4;"):
        enumerate_tuples(5, 2)


def test_enumeration_bound_switches_to_the_power_of_two_past_2_to_the_21():
    # C(42, 21) is counted exactly, as the budget's bit length is 21; C(44,
    # 22) is refused by its 2^22 lower bound
    with pytest.raises(BudgetError, match=r"^C\(42,21\)/1 = 538257874440 exceeds budget 2000000;"):
        enumeration_size(42, 21)
    with pytest.raises(BudgetError, match=r"^C\(44,22\)/1 >= 2\^22/1 exceeds budget 2000000;"):
        enumeration_size(44, 22)


@pytest.mark.parametrize("args", [(20.0, 2), (20, 2.0), (20, 2, 2.0), (20, 2, 2, 1.0)])
def test_enumeration_size_takes_exact_integers(args):
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        enumeration_size(*args)


def test_offset_tuple_takes_exact_integers():
    # int() would truncate 1.5 and read "13" as the twin (1, 3)
    for offsets, span in (((1.5, 3), 0), ("13", 0), ((1, 3), 3.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer$"):
            OffsetTuple(offsets, span)
    t = OffsetTuple((np.int64(3), np.uint8(1)), np.int32(5))
    assert (t.offsets, t.span_bound) == ((1, 3), 5)
    assert [type(v) for v in (*t.offsets, t.span_bound)] == [int, int, int]


@pytest.mark.parametrize("run, message", [
    (lambda: normalize_offsets([]), "empty pattern"),
    (lambda: unrank_combination(5, 0, 0), "k must be >= 1"),
    (lambda: enumeration_size(5, 0), "k must be >= 1"),
    (lambda: enumeration_size(5, 2, stride=0), "stride must be >= 1, got 0"),
])
def test_pattern_and_enumeration_refusals(run, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()
