import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsieve import bv, primes
from gapsieve.bv import (
    GridSpec,
    bv_deviation,
    rational_power_floor,
    supported_theta,
    BvDeviationTable,
    DeviationRow,
)
from gapsieve.errors import BudgetError, SieveRangeError, TrendError
from gapsieve.primes import SEGMENT_FLAGS, primes_in
from oracles import theta_star


def test_rational_power_floor():
    assert rational_power_floor(10**7, Fraction(9, 20)) == 1412
    assert rational_power_floor(10**5, Fraction(9, 20)) == 177
    assert rational_power_floor(2**20, Fraction(1, 2)) == 2**10
    assert rational_power_floor(10**6, Fraction(1, 3)) == 100


def _floor_by_bisection(x, theta):
    """The largest q with q^den <= x^num, by integer bisection."""
    num, den = theta.numerator, theta.denominator
    target, lo, hi = x**num, 0, 1
    while hi**den <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**den <= target else (lo, mid)
    return lo


def test_rational_power_floor_steps_up_from_a_low_seed():
    # near x = 10^30 the float estimate of sqrt(x) falls below the floor for
    # many of n^2 and n^2 - 1, so the upward step runs
    xs = [m for n in range(10**15, 10**15 + 2000) for m in (n * n, n * n - 1)]
    low = sum(round(math.exp(math.log(x) / 2)) < math.isqrt(x) for x in xs)
    assert low > 1000
    assert [rational_power_floor(x, Fraction(1, 2)) for x in xs] == [math.isqrt(x) for x in xs]
    for theta, base in ((Fraction(9, 20), 10**30), (Fraction(20, 21), 10**15)):
        xs = [base + 7919 * i for i in range(500)]
        assert [rational_power_floor(x, theta) for x in xs] == [_floor_by_bisection(x, theta) for x in xs]


def test_modulus_sieve_matches_sympy():
    import sympy

    q_max = 5000
    phi, divisors = bv._modulus_sieve(q_max)
    assert phi.dtype == np.int64 and len(phi) == len(divisors) == q_max + 1
    assert (int(phi[0]), divisors[0]) == (0, [])
    assert (int(phi[1]), divisors[1]) == (1, [])
    assert phi[1:].tolist() == [int(sympy.totient(q)) for q in range(1, q_max + 1)]
    assert divisors == [[]] + [sympy.primefactors(q) for q in range(1, q_max + 1)]


def test_row_against_direct_enumeration():
    # q = 2 at y = 1000: phi(2) = 1, a = 1, deviation from the dyadic sum
    table = bv_deviation(8000, Fraction(1, 8), grid=GridSpec(y_min=900))
    row2 = next(r for r in table.rows if r.q == 2)
    best = -1.0
    for y in table.y_grid:
        dev = abs(theta_star(y, 1, 2) - y)
        best = max(best, dev)
    assert row2.deviation == pytest.approx(best, rel=1e-12)


def chebyshev_theta(x: int) -> float:
    """Sum of log p over primes p <= x: one exactly rounded sum per
    SEGMENT_FLAGS block from 2, then their sum.  theta(2y) - theta(y) is a
    route to the q = 1 row independent of the probe's one fsum over (y, 2y]."""
    if x < 2:
        return 0.0
    parts = [
        math.fsum(np.log(primes_in(s, min(s + SEGMENT_FLAGS, x + 1)).astype(np.float64)))
        for s in range(2, x + 1, SEGMENT_FLAGS)
    ]
    return math.fsum(parts)


def test_chebyshev_theta_mertens_window():
    assert 0.9 <= chebyshev_theta(10**6) / 10**6 <= 1.1


def test_q1_matches_prime_engine_exactly():
    table = bv_deviation(4000, Fraction(1, 8), grid=GridSpec(y_min=400))
    row1 = table.rows[0]
    assert row1.q == 1
    expected = max(
        abs((chebyshev_theta(2 * y) - chebyshev_theta(y)) - y) for y in table.y_grid
    )
    assert row1.deviation == pytest.approx(expected, abs=1e-9)


def test_class_partition_additivity():
    # buckets over coprime classes + primes dividing q = everything
    y, q = 2000, 12
    total = math.fsum(theta_star(y, a, q) for a in range(q) if math.gcd(a, q) == 1)
    ps = primes_in(y + 1, 2 * y + 1)
    everything = math.fsum(math.log(int(p)) for p in ps)
    divisors = math.fsum(math.log(int(p)) for p in ps if q % int(p) == 0)
    assert total + divisors == pytest.approx(everything, rel=1e-12)


def test_grid_refinement_never_decreases_rows():
    fine = bv_deviation(10**4, Fraction(2, 5), grid=GridSpec(factor=2, y_min=100))
    coarse = bv_deviation(10**4, Fraction(2, 5), grid=GridSpec(factor=4, y_min=100))
    # the coarse grid points are a subset of the fine ones
    assert set(coarse.y_grid) <= set(fine.y_grid)
    for rf, rc in zip(fine.rows, coarse.rows):
        assert rf.deviation >= rc.deviation


def test_bv_validation(monkeypatch):
    with pytest.raises(ValueError):
        bv_deviation(100, Fraction(1, 2))
    with pytest.raises(ValueError):
        bv_deviation(10**4, Fraction(3, 2))
    with pytest.raises(ValueError):
        # grid too short
        bv_deviation(10**4, Fraction(1, 3), grid=GridSpec(y_min=5000))
    # theta's size bounds the exact powers: a float or a large denominator is
    # refused, and x^theta far over budget is refused before any power forms
    with pytest.raises(TypeError, match="not float"):
        bv_deviation(10**4, 0.45)
    with pytest.raises(ValueError, match="denominator above 10000"):
        bv_deviation(10**4, Fraction(1, 10**12))
    with pytest.raises(BudgetError, match="modulus budget"):
        bv_deviation(10**30, Fraction(9, 10))
    monkeypatch.setattr(bv, "MODULUS_BUDGET", 1000)
    with pytest.raises(BudgetError, match="modulus budget 1000"):
        bv_deviation(10**6, Fraction(9, 10))


@pytest.mark.parametrize("grid, message", [
    (GridSpec(factor=1), "grid factor must be >= 2"),
    (GridSpec(y_min=1), "y_min must be >= 2"),
])
def test_grid_refusals(grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        grid.points(10**4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bv_deviation(10**4, Fraction(1, 3), grid=grid)


def test_grid_needs_four_points():
    # x = 1000 by halves: 1000, 500, 250 down to 200, and 125 too down to 125
    with pytest.raises(ValueError, match="^grid has 3 points, need >= 4; lower y_min$"):
        bv_deviation(1000, Fraction(1, 2), GridSpec(2, 200))
    assert bv_deviation(1000, Fraction(1, 2), GridSpec(2, 125)).y_grid == (1000, 500, 250, 125)


def test_theta_denominator_up_to_10000():
    assert [row.q for row in bv_deviation(1000, Fraction(1, 10_000)).rows] == [1]
    with pytest.raises(ValueError, match="^theta = 1/10001: denominator above 10000$"):
        bv_deviation(1000, Fraction(1, 10_001))


def test_grid_takes_exact_integers():
    for change in ({"factor": 2.5}, {"y_min": 100.0}):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            GridSpec(**change)
    grid = GridSpec(factor=np.int64(4), y_min=np.uint8(100))
    assert (type(grid.factor), type(grid.y_min)) == (int, int)
    assert grid.points(10**4) == [10**4, 2500, 625, 156]


def test_modulus_budget_is_checked_exactly_past_the_estimate():
    # 9/10 * log 570,000 is below log 200,000, so the estimate lets x through
    # and the exact floor of x^theta is refused
    assert Fraction(9, 10) * math.log(570_000) < math.log(2 * bv.MODULUS_BUDGET)
    with pytest.raises(BudgetError, match=r"^x\^theta = 151456 exceeds modulus budget 100000$"):
        bv_deviation(570_000, Fraction(9, 10))


def test_x_is_taken_as_an_exact_integer():
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        bv_deviation(1e5, Fraction(1, 2))


def _table(x, theta, total):
    return BvDeviationTable(x, Fraction(theta), (x,), (DeviationRow(1, 0, x, total),), total)


def test_supported_theta_synthetic():
    tables = [_table(10**4, "1/2", 0.0), _table(10**5, "1/2", 0.0)]
    rep = supported_theta(tables, A=1.0)
    (group,) = rep.groups
    assert group["all_hold"] is True
    assert group["milestones"] == []  # theta = 1/2 is not strictly above 1/2

    tables = [_table(10**4, "24/25", 0.0), _table(10**5, "24/25", 0.0)]
    rep = supported_theta(tables, A=1.0)
    assert len(rep.groups[0]["milestones"]) == 2  # strictly above both milestones

    with pytest.raises(TrendError):
        supported_theta([_table(10**4, "1/2", 0.0)], A=1.0)
    with pytest.raises(TrendError):
        supported_theta([_table(10**4, "1/2", 0.0), _table(10**4, "1/2", 0.0)], A=1.0)


def test_supported_theta_refuses_a_non_finite_or_nonpositive_A():
    tables = [_table(10**4, "1/2", 0.0), _table(10**5, "1/2", 0.0)]
    for A in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"need finite A > 0, got {A}"):
            supported_theta(tables, A=A)


def test_small_scale_run_shape():
    x = 10**4
    table = bv_deviation(x, Fraction(9, 20))
    assert table.rows[0].q == 1
    assert len(table.rows) == rational_power_floor(x, Fraction(9, 20))
    assert all(r.deviation >= 0 for r in table.rows)
    assert table.total == pytest.approx(math.fsum(r.deviation for r in table.rows), rel=1e-15)
    assert table.y_grid[0] == x


def _old_grid_point_devs(y, phi):
    """The probe's kernel before the floor-divide loop: int64 `ps % q` and a
    gcd mask per modulus.  The oracle for bit-for-bit equality."""
    q_max = len(phi) - 1
    ps = bv.primes_in(y + 1, 2 * y + 1)
    logs = np.log(ps.astype(np.float64))
    devs = np.zeros(q_max + 1)
    best_a = np.zeros(q_max + 1, dtype=np.int64)
    devs[1] = abs(math.fsum(logs) - y)
    for q in range(2, q_max + 1):
        buckets = np.bincount(ps % q, weights=logs, minlength=q)[:q]
        cls = np.abs(buckets - y / phi[q])
        cls[np.gcd(np.arange(q), q) != 1] = -1.0
        a = int(np.argmax(cls))
        devs[q] = cls[a]
        best_a[q] = a
    return devs, best_a


def _assert_kernel_is_oracle(y, q_max):
    phi, divisors = bv._modulus_sieve(q_max)
    devs, best_a = bv._grid_point_devs((y, phi, divisors, bv._carrier_plan(q_max)))
    old_devs, old_best_a = _old_grid_point_devs(y, phi)
    assert devs.tobytes() == old_devs.tobytes()
    assert best_a.tobytes() == old_best_a.tobytes()


@pytest.fixture(params=["default-cut", "cut-0"])
def plan(request, monkeypatch):
    """The kernel at its own cut, where a window (y, 2y] with y below
    CARRIER_CUT runs every modulus as its own carrier, and at a cut of 0,
    where every window shares carriers, folds and recomputes."""
    if request.param == "cut-0":
        monkeypatch.setattr(bv, "CARRIER_CUT", 0)
    return request.param


# y at both sides of each dtype edge; small y has q > 2y, and primes dividing
# q (3 | 6 at y = 2) land in struck classes
_KERNEL_YS = [2, 3, 100, 127, 128, 255, 256, 32767, 32768, 40000, 10**6]
_KERNEL_Q_MAXES = [100, 3000]


@pytest.mark.parametrize("q_max", _KERNEL_Q_MAXES)
@pytest.mark.parametrize("y", _KERNEL_YS)
def test_grid_point_kernel_is_the_old_loop_bit_for_bit(y, q_max, plan):
    _assert_kernel_is_oracle(y, q_max)


class _Sieved(Exception):
    """Stops the kernel at its sieve, carrying the dtype it asked for."""


def test_grid_point_kernel_grid_covers_every_narrow_dtype(monkeypatch):
    # the kernel sieves into np.min_scalar_type of 2y and the largest carrier
    # it runs; below the cut each modulus is its own carrier, so a window of
    # y = 2 under q_max = 100 keeps uint8, though the plan's carriers pass 255
    def sieve(lo, hi, dtype):
        raise _Sieved(np.dtype(dtype))

    monkeypatch.setattr(bv, "primes_in", sieve)
    routes = {}
    for q_max in _KERNEL_Q_MAXES:
        phi, divisors = bv._modulus_sieve(q_max)
        plan = bv._carrier_plan(q_max)
        for y in _KERNEL_YS:
            with pytest.raises(_Sieved) as stop:
                bv._grid_point_devs((y, phi, divisors, plan))
            routes[y, q_max] = stop.value.args[0]
    assert set(routes.values()) == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}
    assert routes[2, 100] == np.uint8 and max(M for M, _ in bv._carrier_plan(100)) > 255


def _window_with(count, limit=1 << 14):
    """The least y whose window (y, 2y] holds exactly count primes."""
    pi = np.searchsorted(primes_in(2, 2 * limit + 1), np.arange(2 * limit + 1), side="right")
    ys = np.arange(2, limit)
    return int(ys[pi[2 * ys] - pi[ys] == count][0])


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("blocks", [1, 3])
def test_grid_point_kernel_carries_class_sums_across_blocks(blocks, extra, plan, monkeypatch):
    # windows of a whole number of blocks, one prime short and one over; 200
    # moduli span several groups, and the recompute carries its sums across
    # chunks of 16 odd numbers
    monkeypatch.setattr(bv, "PRIME_BLOCK", 16)
    monkeypatch.setattr(bv, "GROUP_SLOTS", 1000)
    monkeypatch.setattr(bv, "RECOMPUTE_FLAGS", 16)
    y = _window_with(16 * blocks + extra)
    assert len(primes_in(y + 1, 2 * y + 1)) == 16 * blocks + extra
    _assert_kernel_is_oracle(y, 200)


@settings(max_examples=40, deadline=None)
@given(
    y=st.integers(2, 3000),
    q_max=st.integers(2, 250),
    block=st.integers(1, 80),
    slots=st.integers(1, 3000),
    cut=st.sampled_from([0, bv.CARRIER_CUT]),
    limit=st.sampled_from([40, 500, bv.CARRIER_LIMIT]),
    rider=st.sampled_from([2, bv.RIDER_MIN]),
    flags=st.integers(1, 100),
)
def test_grid_point_kernel_is_the_old_loop_for_any_blocking(y, q_max, block, slots, cut, limit, rider, flags):
    # small y leaves many classes empty, so the maxima mod q tie and the
    # moduli 2q (q odd) must take the least odd lift among the tied classes;
    # at a cut of 0 the tied classes are found by the recompute, and a
    # RIDER_MIN of 2 folds even q = 2
    names = ("PRIME_BLOCK", "GROUP_SLOTS", "CARRIER_CUT", "CARRIER_LIMIT", "RIDER_MIN", "RECOMPUTE_FLAGS")
    saved = [getattr(bv, name) for name in names]
    for name, value in zip(names, (block, slots, cut, limit, rider, flags)):
        setattr(bv, name, value)
    try:
        _assert_kernel_is_oracle(y, q_max)
    finally:
        for name, value in zip(names, saved):
            setattr(bv, name, value)


def test_grid_point_kernel_uint64_route(plan, monkeypatch):
    # synthetic odd "primes" just above 2^32: nothing is sieved, and 2y > 2^32
    # sends the residues through uint64.  Being odd, they also take the odd
    # lifts from q to 2q, as real primes above 2 do.
    y = 2**31 + 10**4
    fake = 2**32 + 1 + 2 * np.arange(20_000, dtype=np.int64)
    monkeypatch.setattr(bv, "primes_in", lambda lo, hi, dtype=np.int64: fake.astype(dtype))
    assert np.min_scalar_type(2 * y) == np.uint64
    _assert_kernel_is_oracle(y, 700)


def _bucketed(q_max):
    return [q for q in range(2, q_max + 1) if q % 4 != 2 or q == 2]


@pytest.mark.parametrize("q_max, limit", [(1, 8192), (2, 8192), (5, 8192), (177, 8192), (1412, 8192), (300, 64)])
def test_carrier_plan_holds_each_bucketed_modulus_once_on_a_multiple(q_max, limit, monkeypatch):
    monkeypatch.setattr(bv, "CARRIER_LIMIT", limit)
    plan = bv._carrier_plan(q_max)
    assert sorted(q for _, qs in plan for q in qs) == _bucketed(q_max)
    for M, qs in plan:
        assert list(qs) == sorted(qs, reverse=True)
        assert all(M % q == 0 for q in qs)
        # a modulus past the limit is its own carrier; no other carrier passes it
        assert M <= limit or qs == (M,)
        # and so is a modulus below RIDER_MIN
        assert min(qs) >= bv.RIDER_MIN or qs == (M,)


def test_carrier_plan_shares_the_passes():
    # at x = 1e7, theta = 9/20: 1,059 moduli in 462 residue passes, 797 of them folded
    plan = bv._carrier_plan(1412)
    assert sum(len(qs) for _, qs in plan) == 1059
    assert len(plan) == 462
    assert sum(q != M for M, qs in plan for q in qs) == 797


def test_carrier_plan_is_cheap_at_the_modulus_budget():
    # a pairwise lcm sweep over the 75,000 bucketed moduli would run for hours
    start = time.perf_counter()
    plan = bv._carrier_plan(bv.MODULUS_BUDGET)
    assert time.perf_counter() - start < 5.0
    assert sum(len(qs) for _, qs in plan) == len(_bucketed(bv.MODULUS_BUDGET))


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(2, 40),
    k=st.integers(1, 40),
    c=st.floats(0.0, 1e12),
    data=st.data(),
)
def test_fold_error_bounds_folded_against_sequential_deviations(q, k, c, data):
    # nonnegative values over many magnitudes, added in order into a carrier
    # of k * q classes and into the q classes directly, as the kernel does
    n = data.draw(st.integers(1, 400))
    values = np.array(data.draw(st.lists(st.floats(0.0, 1e12), min_size=n, max_size=n)))
    slots = np.array(data.draw(st.lists(st.integers(0, k * q - 1), min_size=n, max_size=n)))
    carrier, sequential = np.zeros(k * q), np.zeros(q)
    np.add.at(carrier, slots, values)
    np.add.at(sequential, slots % q, values)
    folded = np.abs(carrier.reshape(k, q).sum(axis=0) - c)
    bound = bv._fold_error(n, k, folded.max(), c)
    assert np.all(np.abs(folded - np.abs(sequential - c)) <= bound)


def _recomputed(monkeypatch):
    """The (q, classes) each _sequential_sums call of the kernel is asked for."""
    seen = []
    recompute = bv._sequential_sums

    def spy(ps, wanted):
        seen.extend((q, classes.tolist()) for q, classes in wanted)
        return recompute(ps, wanted)

    monkeypatch.setattr(bv, "_sequential_sums", spy)
    return seen


@pytest.mark.parametrize(
    "scale, want",
    [(1.0, [13, 17]), (0.25, [17]), (100.0, [1, 3, 7, 9, 11, 13, 17, 19])],
    ids=["within-2E", "beyond-2E", "every-coprime-class"],
)
def test_near_tie_recomputes_both_classes(scale, want, monkeypatch):
    # mod 20 at y = 1000, the classes 17 and 13 deviate most, by 30.19 and
    # 21.11, and the next, 3, by 9.04; a bound E of their gap puts 13 within
    # 2E of the maximum, so both are summed again, and a quarter of it does
    # not.  A bound past the maximum takes every coprime class, but never a
    # struck one
    y, q_max = 1000, 20
    devs = {a: abs(theta_star(y, a, 20) - y / 8) for a in range(20) if math.gcd(a, 20) == 1}
    gap = devs[17] - devs[13]
    assert sorted(devs, key=devs.get)[-3:] == [3, 13, 17] and devs[3] < devs[17] - 2 * gap
    monkeypatch.setattr(bv, "CARRIER_CUT", 0)
    monkeypatch.setattr(bv, "_fold_error", lambda n, k, top, c: scale * gap)
    seen = _recomputed(monkeypatch)
    assert (1360, (20, 17, 16)) in bv._carrier_plan(q_max)
    _assert_kernel_is_oracle(y, q_max)
    assert dict(seen)[20] == want


def test_folded_moduli_recompute_one_class_each(monkeypatch):
    # at a window of 70,435 primes and 150 moduli, 125 of them folded, the
    # bound leaves one class per folded modulus to sum again
    y, q_max = 10**6, 200
    seen = _recomputed(monkeypatch)
    _assert_kernel_is_oracle(y, q_max)
    assert len(seen) == sum(q != M for M, qs in bv._carrier_plan(q_max) for q in qs)
    assert all(len(classes) == 1 for _, classes in seen)


# unsorted, with gaps, 1 and 2 among them, and moduli above the prime count
# of the small windows; every modulus fits in uint8
_CLASS_MODULI = [250, 7, 1, 30, 2, 13, 97, 4, 3, 64, 211]


# slots 100 give 250 a group of its own, then 7 + 1 + 30 + 2 + 13, 97, 4 + 3 + 64 and 211
@pytest.mark.parametrize("blocking", [None, (16, 100)], ids=["default-blocking", "block-16-slots-100"])
@pytest.mark.parametrize(
    "lo, hi, dtype",
    [
        (24, 29, np.uint8),  # no primes
        (101, 201, np.uint8),
        (2, 256, np.uint8),
        (60_000, 60_300, np.uint16),
        (30_001, 60_001, np.uint16),
        (10**6 + 1, 2 * 10**6 + 1, np.uint32),
        (4 * 10**9, 4 * 10**9 + 3000, np.uint32),
    ],
)
def test_class_sums_are_one_whole_window_bincount_per_modulus(lo, hi, dtype, blocking, monkeypatch):
    if blocking is not None:
        monkeypatch.setattr(bv, "PRIME_BLOCK", blocking[0])
        monkeypatch.setattr(bv, "GROUP_SLOTS", blocking[1])
    ps = primes_in(lo, hi, dtype=dtype)
    logs = np.log(ps, dtype=np.float64)
    got = list(bv._class_sums(ps, _CLASS_MODULI))
    assert [q for q, _ in got] == _CLASS_MODULI
    for q, cls in got:
        # (over no primes np.bincount gives int zeros)
        want = np.bincount(ps % q, weights=logs, minlength=q).astype(np.float64)
        assert [v.hex() for v in cls.tolist()] == [v.hex() for v in want.tolist()]


@pytest.mark.parametrize("moduli, largest", [
    (list(range(2, 700)), bv.GROUP_SLOTS),  # four groups, each near the cap
    ([40_000, 40_001, 40_002], 40_002),  # each modulus a group of its own
])
def test_class_sums_hold_one_group_at_a_time(moduli, largest):
    # a group's sums, the last of them included, are let go before the next
    # group's are allocated, so the peak is the largest group, not the two
    # alive at a change
    groups, slots = 0, bv.GROUP_SLOTS
    for q in moduli:  # a modulus that does not fit starts a group
        groups, slots = (groups + 1, q) if slots + q > bv.GROUP_SLOTS else (groups, slots + q)
    assert groups >= 3
    ps = primes_in(10**4, 2 * 10**4, dtype=np.uint32)
    tracemalloc.start()
    try:
        for q, sums in bv._class_sums(ps, moduli):
            del sums  # so that only _class_sums holds a group's sums
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * largest * 0.9 < peak < 8 * largest * 1.5


def test_grid_point_holds_no_window_wide_array():
    # the top point of a probe at x = 2^24: the primes of (y, 2y] are sieved
    # block by block into uint32, and each pass forms its own logs, so what
    # is left is about 8 bytes per prime, the narrow primes and their one
    # joined copy (int64 primes, their float64 cast, the logs and the flag
    # bytes of the whole window come to about 25)
    y, q_max = 1 << 24, 50
    phi, divisors = bv._modulus_sieve(q_max)
    n = len(primes_in(y + 1, 2 * y + 1))
    tracemalloc.start()
    try:
        bv._grid_point_devs((y, phi, divisors, bv._carrier_plan(q_max)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * n + (2 << 20)


@pytest.mark.parametrize("workers", [1, 2])
def test_over_cap_x_is_refused_before_any_grid_point(workers, monkeypatch):
    # primes_in refuses a window (x, 2x] past the sieve's cap, so x past it
    # is refused up front, not after the grid points already in flight
    monkeypatch.setattr(primes, "MAX_WINDOW_LENGTH", 1 << 14)
    monkeypatch.setattr(bv, "MAX_WINDOW_LENGTH", 1 << 14)
    assert bv_deviation(1 << 14, Fraction(9, 20), workers=1).x == 1 << 14

    def no_sieve(lo, hi, dtype=np.int64):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(bv, "primes_in", no_sieve)
    with pytest.raises(SieveRangeError, match="exceeds the largest x the probe sieves, 16384"):
        bv_deviation((1 << 14) + 1, Fraction(9, 20), workers=workers)


def test_probe_sieves_its_moduli_once_whatever_the_grid(monkeypatch):
    calls = []

    def counting(name):
        build = getattr(bv, name)
        monkeypatch.setattr(bv, name, lambda q_max: calls.append((name, q_max)) or build(q_max))

    counting("_modulus_sieve")
    counting("_carrier_plan")
    x = 10**5
    q_max = rational_power_floor(x, Fraction(9, 20))
    grid_lengths = set()
    for y_min in (100, 10**4):
        calls.clear()
        table = bv_deviation(x, Fraction(9, 20), GridSpec(y_min=y_min), workers=1)
        grid_lengths.add(len(table.y_grid))
        assert calls == [("_modulus_sieve", q_max), ("_carrier_plan", q_max)]
    assert len(grid_lengths) == 2
