import concurrent.futures
import functools
import itertools
import math
import multiprocessing
import pickle
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapsieve import moments, primes, weights
from gapsieve.errors import BudgetError, RegimeError
from gapsieve.moments import (
    CHUNK,
    MAX_DETECTOR_SPAN,
    MAX_WITNESSES,
    SieveParams,
    _detector_chunk,
    _detector_total,
    _pure_chunk,
    _twisted_total,
    binomial_step_ratio,
    detector_coefficient,
    double_sum_exact_counts,
    gap_bound,
    two_primes_detector,
    pure_main_prefactor,
    twisted_main_prefactor,
    pure_moment,
    threshold,
    twisted_moment,
)
from gapsieve.parallel import block_spans
from gapsieve.primes import _repeated_fsum, log_sum
from gapsieve.tuples import SEPTUPLE_OFFSETS, TWIN_OFFSETS, OffsetTuple, omega_residues
from gapsieve.weights import WeightParams, divisor_table, lambda_block
from oracles import double_sum_T, lambda_weight, prime_flags

TWIN = OffsetTuple(TWIN_OFFSETS)


def _params(N, k=2, l=1, span=None, r_exp=0.25, theta=Fraction(1, 2)):
    return SieveParams(N=N, R=float(N) ** r_exp, k=k, l=l,
                       span_bound=span or 3, theta=theta)


# ---------------------------------------------------------------------------
# exact-rational algebra
# ---------------------------------------------------------------------------

def test_pure_main_prefactor_example():
    assert pure_main_prefactor(2, 1) == Fraction(2, 24)


def test_septuple_prefactor_uses_nine_factorial():
    assert pure_main_prefactor(7, 1) == Fraction(2, math.factorial(9))


def test_twisted_membership_translation_identity():
    # member case at (k, l) == non-member case at (k-1, l+1), exactly
    for k in range(2, 11):
        for l in range(1, 5):
            member = twisted_main_prefactor(k, l, member=True)
            translated = twisted_main_prefactor(k - 1, l + 1, member=False)
            assert member == translated


def test_binomial_step_identity():
    for l in range(1, 21):
        assert binomial_step_ratio(l) == Fraction(2 * (2 * l + 1), l + 1)
    assert binomial_step_ratio(1) == 3


def test_threshold_exactness():
    rep = threshold(7, 1, 1)
    assert rep.coefficient == Fraction(21, 10)
    rep = threshold(7, 1, "20/21")
    assert rep.theta_term == 1 and rep.log_n_coefficient == 0
    assert gap_bound("1/2") == 0
    assert gap_bound("1/4") == Fraction(1, 2)
    with pytest.raises(TypeError):
        threshold(7, 1, 0.5)  # floats are not exact rationals


def test_threshold_tends_to_eps():
    # theta = 1/2 and l near sqrt(k): the log N coefficient drains to eps
    eps = Fraction(1, 100)
    prev = None
    for k in (16, 256, 4096, 65536):
        l = math.isqrt(k)
        rep = threshold(k, l, Fraction(1, 2), eps)
        drift = abs(rep.log_n_coefficient - eps)
        if prev is not None:
            assert drift < prev
        prev = drift
    assert prev < Fraction(1, 50)


def test_detector_coefficient():
    assert detector_coefficient(7, 1) == Fraction(7, 10) * 3
    for k in range(1, 21):
        for l in range(1, 21):
            assert detector_coefficient(k, l) == Fraction(k, k + 2 * l + 1) * binomial_step_ratio(l)


# ---------------------------------------------------------------------------
# double sums
# ---------------------------------------------------------------------------

def test_double_sum_hand_checkable():
    # R = 3, a = 2: nine terms over d in {1,2,3}^2 with w(2)=1, w(3)=2
    wp = WeightParams(3.0, 2)
    lam = {1: math.log(3.0) ** 2 / 2, 2: -math.log(3.0 / 2) ** 2 / 2, 3: -0.0}
    omega = {1: (1, 1), 2: (2, 1), 3: (3, 2)}
    expected = []
    for d1 in (1, 2, 3):
        for d2 in (1, 2, 3):
            primes = {p for p in (d1, d2) if p > 1}
            lcm = math.prod(primes) if primes else 1
            w = math.prod(omega[p][1] for p in primes) if primes else 1
            expected.append(lam[d1] * lam[d2] * w / lcm)
    assert double_sum_T(TWIN, wp) == pytest.approx(math.fsum(expected), rel=1e-14)


def test_double_sum_r_below_two():
    wp = WeightParams(1.5, 3)
    assert double_sum_T(TWIN, wp) == (math.log(1.5) ** 3 / 6) ** 2


def test_bilinear_identity_exact_counts():
    wp = WeightParams(30.0, 3)
    lo, hi = 10**4, 12 * 10**3
    blk = lambda_block(TWIN, wp, lo, hi)
    lhs = math.fsum(blk.values * blk.values)
    rhs = double_sum_exact_counts(TWIN, wp, lo, hi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_double_sum_density_times_n_matches_exact_counts():
    # N * T differs from the exact-count form only by per-pair boundary
    # effects, each at most the class count of the lcm
    from gapsieve.tuples import omega_profile

    wp = WeightParams(30.0, 3)
    lo, hi = 10**4, 2 * 10**4
    N = hi - lo
    density = N * double_sum_T(TWIN, wp)
    exact = double_sum_exact_counts(TWIN, wp, lo, hi)
    entries = [(set(e.primes), lambda_weight(e.d, wp)) for e in divisor_table(TWIN, wp.R)]
    omega_of = {p: omega_profile(TWIN, (p,))[0] for primes, _ in entries for p in primes}
    bound = 0.0
    for primes1, w1 in entries:
        for primes2, w2 in entries:
            w = math.prod(omega_of[p] for p in primes1 | primes2)
            bound += abs(w1 * w2) * w
    assert abs(density - exact) <= bound
    assert density == pytest.approx(exact, rel=0.05)


def _exact_counts_per_pair(t, params, lo, hi):
    """double_sum_exact_counts as it was before it counted each lcm once: the
    per-pair count loop over cached lcm residues.  The oracle for .hex()
    equality."""
    lcm_cache = {}
    terms = []
    for weight, union in moments._divisor_pairs(t, params):
        if union not in lcm_cache:
            m = 1
            res = (0,)
            for p in sorted(union):
                res = weights._crt_merge(m, res, p, omega_residues(t, p))
                m *= p
            lcm_cache[union] = (m, res)
        m, res = lcm_cache[union]
        count = 0
        for r in res:
            first = lo + ((r - lo) % m)
            if first < hi:
                count += (hi - 1 - first) // m + 1
        terms.append(weight * count)
    return math.fsum(terms)


@settings(max_examples=40, deadline=None)
@example(offsets=SEPTUPLE_OFFSETS, R=100.0, l=1, lo=10**9 + 7, long_window=True, extra=77)
@example(offsets=SEPTUPLE_OFFSETS, R=100.0, l=1, lo=10**9 + 7, long_window=False, extra=3000)
@example(offsets=TWIN_OFFSETS, R=100.0, l=2, lo=5, long_window=True, extra=0)
@given(
    offsets=st.sampled_from([TWIN_OFFSETS, SEPTUPLE_OFFSETS]),
    R=st.floats(min_value=1.0, max_value=100.0),
    l=st.integers(min_value=1, max_value=2),
    lo=st.integers(min_value=1, max_value=10**12),
    long_window=st.booleans(),
    extra=st.integers(min_value=0, max_value=500),
)
def test_exact_counts_one_count_per_lcm_is_the_per_pair_loop(offsets, R, l, lo, long_window, extra):
    t = OffsetTuple(offsets)
    wp = WeightParams(R, t.k + l)
    largest_lcm = max(math.prod(union) for _, union in moments._divisor_pairs(t, wp))
    width = largest_lcm + 1 + extra if long_window else 1 + extra % largest_lcm
    got = double_sum_exact_counts(t, wp, lo, lo + width)
    assert got.hex() == _exact_counts_per_pair(t, wp, lo, lo + width).hex()


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_pure_moment_small_scale():
    rep = pure_moment(TWIN, _params(10**5))
    assert 0.4 <= rep.ratio <= 2.5
    assert rep.diagnostics["regime_violations"] == []


def test_r_equal_one_reports_scale_violation():
    # log R = 0: the scale-ratio check must report, not divide by zero
    params = SieveParams(N=100, R=1.0, k=2, l=1, span_bound=3)
    violations = params.pure_regime_violations()
    assert "log N / log R = inf > 8.0" in violations
    with pytest.raises(RegimeError):
        pure_moment(TWIN, params)


def test_regime_messages_keep_their_text():
    params = SieveParams(N=10**4, R=5000.0, k=2, l=1, span_bound=100)
    assert params.pure_regime_violations() == [
        "span_bound 100 > 10.0 * log N = 92.10",
        "R 5000.0 > N^(1/2) = 100",
    ]
    twisted = SieveParams(N=10**4, R=5000.0, k=2, l=1, span_bound=3)
    assert twisted.twisted_regime_violations() == ["R 5000.0 > N^(theta/2) = 10 at theta = 1/2"]
    low = SieveParams(N=10**8, R=2.0, k=2, l=1, span_bound=3)
    assert low.twisted_regime_violations() == ["log N / log R = 26.58 > 8.0"]


def test_pure_moment_regime_guard():
    bad = SieveParams(N=10**4, R=5000.0, k=2, l=1, span_bound=3)
    with pytest.raises(RegimeError):
        pure_moment(TWIN, bad)
    rep = pure_moment(TWIN, bad, force=True)
    assert rep.diagnostics["regime_violations"]


def test_pure_moment_tuple_size_must_match():
    with pytest.raises(ValueError):
        pure_moment(OffsetTuple((1, 3, 7)), _params(10**4))


def test_twisted_membership_identity_bitwise():
    # h = 3 inside the tuple vs the reduced tuple at (k-1, l+1)
    N = 10**4
    full = twisted_moment(TWIN, 3, _params(N, k=2, l=1, span=10))
    reduced = twisted_moment(OffsetTuple((1,)), 3, _params(N, k=1, l=2, span=10))
    assert full.empirical == reduced.empirical
    assert full.main_term == reduced.main_term
    assert full.diagnostics["h_member"] and not reduced.diagnostics["h_member"]


def test_twisted_inadmissible_extension():
    # {1,3} + 5 covers everything mod 3: zero main term, small empirical
    N = 2 * 10**5
    bad = twisted_moment(TWIN, 5, _params(N, span=10))
    good = twisted_moment(TWIN, 7, _params(N, span=10))
    assert bad.main_term == 0.0 and bad.ratio is None
    assert good.main_term > 0
    assert bad.empirical < good.empirical


def test_twisted_h_range_check():
    with pytest.raises(ValueError):
        twisted_moment(TWIN, 99, _params(10**4, span=10))


def test_detector_decomposition():
    # detector total == sum_h twisted - log(3N) * pure, independent routes
    N, span = 10**5, 30
    params = _params(N, span=span)
    det = two_primes_detector(params, [TWIN], h_mode="window")
    twisted_parts = [twisted_moment(TWIN, h, params).empirical for h in range(1, span + 1)]
    pure_part = pure_moment(TWIN, params).empirical
    recon = math.fsum(twisted_parts) - math.log(3 * N) * pure_part
    assert det.empirical == pytest.approx(recon, rel=1e-9)


@pytest.mark.parametrize("R", [10**5 ** 0.25, 100.0], ids=["no-tail", "tail"])
def test_detector_tuple_decomposition(R):
    # tuple mode: detector total == sum over offsets of twisted - log(3N) * pure
    N, span = 10**5, 22
    sep = OffsetTuple(SEPTUPLE_OFFSETS)
    params = SieveParams(N=N, R=R, k=7, l=1, span_bound=span)
    assert bool(divisor_table(sep, R).tail) == (R >= 59)
    det = two_primes_detector(params, [sep], h_mode="tuple", force=True)
    twisted_parts = [twisted_moment(sep, h, params, force=True).empirical for h in sep.offsets]
    pure_part = pure_moment(sep, params, force=True).empirical
    recon = math.fsum(twisted_parts) - math.log(3 * N) * pure_part
    assert det.empirical == pytest.approx(recon, rel=1e-9)


@pytest.mark.parametrize("mode", ["window", "tuple"])
@pytest.mark.parametrize("t, R", [(TWIN, 31.6), (TWIN, 100.0), (OffsetTuple(SEPTUPLE_OFFSETS), 56.2),
                                  (OffsetTuple(SEPTUPLE_OFFSETS), 100.0)],
                         ids=["twin-no-tail", "twin-tail", "septuple-no-tail", "septuple-tail"])
def test_detector_chunk_is_the_per_n_sum(mode, t, R):
    # the grouped chunk against fsum over n of w(n) W(n)^2, with w(n) summed
    # per n from plain sieve flags, and against the float positivity test
    span, log3n = 22, math.log(3 * 10**6)
    lo, hi = 10**6 + 17, 10**6 + 17 + 200_000
    wp = WeightParams(R, t.k + 1)
    vals = lambda_block(t, wp, lo, hi).values
    n = np.arange(lo, hi)
    flags = prime_flags(lo + 1, hi + span)
    w = np.full(hi - lo, -log3n)
    for h in range(1, span + 1) if mode == "window" else t.offsets:
        w += np.where(flags[h - 1 : h - 1 + hi - lo], np.log((n + h).astype(np.float64)), 0.0)
    table = divisor_table(t, R)
    total, count, flagged, witnesses = _detector_chunk((t, wp, lo, hi, span, log3n, mode, 5, True))
    if not table.tail:
        # the chunk's integers, rounded as a run of this one chunk rounds them
        counts, lam_hi, lam_lo = total
        total = _detector_total(table.prefix_state(wp)[0], counts, log_sum(lam_hi, lam_lo), log3n)
    assert total == pytest.approx(math.fsum(w * vals * vals), rel=1e-13)
    assert np.array_equal(flagged, n[w > 0.0])
    assert count == len(flagged)
    assert witnesses[:, 0].tolist() == flagged[:5].tolist()
    # without collect the chunk returns the same sums and count, no flagged n
    uncollected = _detector_chunk((t, wp, lo, hi, span, log3n, mode, 5, False))
    assert uncollected[1:3] == (count, None)
    assert np.array_equal(uncollected[3], witnesses)


def _loop_witnesses(t, lo, hi, span, mode, cap):
    """The first cap flagged n with their first two primes, one n at a time."""
    flags = prime_flags(lo + 1, hi + span)
    seen_by = range(1, span + 1) if mode == "window" else t.offsets
    out = []
    for i in range(hi - lo):
        hits = [lo + i + h for h in seen_by if flags[i + h - 1]]
        if len(hits) >= 2 and len(out) < cap:
            out.append((lo + i, hits[0], hits[1]))
    return out


@pytest.mark.parametrize("mode", ["window", "tuple"])
@pytest.mark.parametrize("t", [TWIN, OffsetTuple((1, 3, 7)), OffsetTuple(SEPTUPLE_OFFSETS)],
                         ids=["twin", "triple", "septuple"])
@pytest.mark.parametrize("cap", [0, 1, 7, 1000])
def test_detector_witnesses_are_the_loop_output(mode, t, cap):
    span, lo = 22, 10**6 + 17
    hi = lo + 30_000
    wp = WeightParams(31.6, t.k + 1)
    _, count, _, witnesses = _detector_chunk((t, wp, lo, hi, span, 1.0, mode, cap, False))
    expected = _loop_witnesses(t, lo, hi, span, mode, cap)
    assert len(expected) == min(cap, count)
    assert [tuple(row) for row in witnesses.tolist()] == expected


def _two_prime_witnesses(N, offsets, span, window):
    """(n, first two primes n sees) for every n in (N, 2N] seeing two, from sympy's primes."""
    primes = set(sympy.primerange(N + 2, 2 * N + span + 1))
    seen_by = range(1, span + 1) if window else offsets
    out = []
    for n in range(N + 1, 2 * N + 1):
        hits = [n + h for h in seen_by if n + h in primes]
        if len(hits) >= 2:
            out.append((n, hits[0], hits[1]))
    return out


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(16, 10**5),
    offsets=st.sampled_from([(1, 3), (1, 3, 7), (2, 6, 8)]),
    extra=st.integers(0, 20),
    window=st.booleans(),
    tail=st.booleans(),
    cap=st.integers(0, 40),
)
def test_detector_positives_are_two_prime_counts(N, offsets, extra, window, tail, cap):
    t = OffsetTuple(offsets)
    span = min(t.span_bound + extra, N - 1)
    R = 100.0 if tail else N**0.25
    params = SieveParams(N=N, R=R, k=t.k, l=1, span_bound=span)
    det = two_primes_detector(params, [t], h_mode="window" if window else "tuple", force=True,
                              witness_cap=cap, collect_positives=True)
    expected = _two_prime_witnesses(N, t.offsets, span, window)
    assert det.positive_count == len(expected)
    assert det.positives[0].tolist() == [n for n, _, _ in expected]
    assert [(w["n"], w["p1"], w["p2"]) for w in det.witnesses] == expected[:cap]


def test_tuple_mode_counts_past_127_primes_per_n():
    # n = N + 1 sees all 129 primes p of the tuple's offsets p - (N + 1); a
    # signed byte count wraps there and leaves it unflagged.  The span is far
    # past the regime's 10 log N, hence force
    N = 10**5
    primes = itertools.islice(sympy.primerange(N + 2, 2 * N), 129)
    t = OffsetTuple((1,) + tuple(p - (N + 1) for p in primes))
    params = SieveParams(N=N, R=N**0.25, k=t.k, l=1, span_bound=t.span_bound)
    det = two_primes_detector(params, [t], h_mode="tuple", force=True, collect_positives=True)
    expected = _two_prime_witnesses(N, t.offsets, t.span_bound, window=False)
    assert det.positive_count == len(expected) == 50_000
    assert det.positives[0].tolist() == [n for n, _, _ in expected]


def test_detector_input_refusals():
    params = _params(10**4, span=10)
    with pytest.raises(ValueError, match="witness_cap"):
        two_primes_detector(params, [TWIN], witness_cap=-1)
    with pytest.raises(ValueError, match="below N"):
        two_primes_detector(SieveParams(N=16, R=2.0, k=2, l=1, span_bound=16), [TWIN], force=True)
    with pytest.raises(ValueError, match="exceeds span_bound"):
        two_primes_detector(_params(10**4, span=2), [TWIN], h_mode="tuple")
    # a chunk's int64 log-part sums are bounded through the span
    wide = SieveParams(N=10**5, R=2.0, k=2, l=1, span_bound=MAX_DETECTOR_SPAN)
    with pytest.raises(ValueError, match="int64"):
        two_primes_detector(wide, [TWIN], force=True)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_sieve_params_refuse_non_finite_r(R):
    with pytest.raises(ValueError, match="finite"):
        SieveParams(N=10**4, R=R, k=2, l=1, span_bound=3)


def test_detector_witnesses_are_real_primes():
    N, span = 10**5, 40
    det = two_primes_detector(_params(N, span=span), [TWIN], h_mode="window",
                       collect_positives=True, witness_cap=200)
    assert det.positive_count > 0
    assert det.witnesses
    flags = prime_flags(N + 1, 2 * N + span + 1)
    for w in det.witnesses:
        n, p1, p2 = w["n"], w["p1"], w["p2"]
        assert n < p1 < p2 <= n + span
        assert flags[p1 - (N + 1)] and flags[p2 - (N + 1)]
    # every flagged n has at least two primes in its window
    counts = np.cumsum(flags.astype(np.int64))
    for arr in det.positives:
        idx_hi = arr + span - (N + 1)
        idx_lo = arr - (N + 1)
        window_counts = counts[idx_hi] - np.where(idx_lo >= 0, counts[idx_lo], 0)
        assert (window_counts >= 2).all()


def test_detector_tuple_mode_septuple_shape():
    sep = OffsetTuple(SEPTUPLE_OFFSETS)
    params = SieveParams(N=10**5, R=(10**5) ** 0.25, k=7, l=1, span_bound=22)
    det = two_primes_detector(params, [sep], h_mode="tuple")
    assert det.diagnostics["a"] == 8  # weight exponent k + l
    assert det.bracket == pytest.approx(2.1 * params.log_r - params.log_n, rel=1e-12)
    assert det.predicted < 0  # R = N^(1/4) sits below the positivity threshold


def test_detector_empty_source():
    with pytest.raises(ValueError):
        two_primes_detector(_params(10**4), [], h_mode="window")


def test_twisted_ratio_at_ten_million():
    # admissible extension {1,3,7}: empirical over main term lands in the
    # same coarse bracket as the pure moment
    rep = twisted_moment(TWIN, 7, _params(10**7, span=10))
    assert 0.4 <= rep.ratio <= 2.5


@pytest.mark.parametrize("t", [TWIN, OffsetTuple(SEPTUPLE_OFFSETS)], ids=["twin", "septuple"])
@pytest.mark.parametrize("R", [56.2, 59.0, 100.0])
def test_pure_chunk_is_bitwise_fsum_of_squares(t, R):
    # R < 59: the chunk counts signatures, and the grouped sum over them is
    # the fsum over n; R >= 59: the chunk sums the block values itself
    wp = WeightParams(R, t.k + 1)
    table = divisor_table(t, R)
    lo, hi = 10**6 + 17, 10**6 + 17 + 300_000
    vals = lambda_block(t, wp, lo, hi).values
    got = _pure_chunk((t, wp, lo, hi))
    if not table.tail:
        counts, _, _ = got
        assert counts.sum() == hi - lo
        values = table.prefix_state(wp)[0]
        got = _repeated_fsum(values * values, counts)
    assert got.hex() == math.fsum(vals * vals).hex()


@pytest.mark.parametrize("t", [TWIN, OffsetTuple(SEPTUPLE_OFFSETS)], ids=["twin", "septuple"])
@pytest.mark.parametrize("R", [56.2, 59.0, 100.0])
@pytest.mark.parametrize("h", [1, 2, 3, 13, 60])
def test_twisted_chunk_is_bitwise_the_block_formula(t, R, h):
    # R < 59 reads W only at the n with n + h prime; R >= 59 takes the block
    wp = WeightParams(R, t.k + 1)
    table = divisor_table(t, R)
    lo, hi = 10**6 + 17, 10**6 + 17 + 300_000
    flags = prime_flags(lo + h, hi + h)
    logs = np.log((lo + h + np.flatnonzero(flags)).astype(np.float64))
    vals = lambda_block(t, wp, lo, hi).values[flags]
    got = moments._twisted_chunk((t, wp, lo, hi, h))
    if table.tail:
        assert got.hex() == math.fsum(vals * vals * logs).hex()
        return
    # R < 59: per signature, the chunk's log parts are the fsum of the logs
    # of its n + h prime, bit for bit; the run then rounds sum V^2 Lambda once
    _, lam_hi, lam_lo = got
    key = table.signatures(lo, hi)[flags]
    seen = np.unique(key)
    order = np.argsort(key, kind="stable")
    groups = np.split(logs[order], np.searchsorted(key[order], seen[1:]))
    assert [x.hex() for x in log_sum(lam_hi[seen], lam_lo[seen]).tolist()] == [math.fsum(g).hex() for g in groups]
    assert lam_hi.sum() == lam_hi[seen].sum() and lam_lo.sum() == lam_lo[seen].sum()
    total = _twisted_total(table.prefix_state(wp)[0], log_sum(lam_hi, lam_lo))
    assert total == pytest.approx(math.fsum(vals * vals * logs), rel=1e-15)


@pytest.mark.parametrize("t, h", [(TWIN, 3), (TWIN, 13), (OffsetTuple(SEPTUPLE_OFFSETS), 8),
                                  (OffsetTuple(SEPTUPLE_OFFSETS), 13)],
                         ids=["twin-member", "twin-non-member", "septuple-member", "septuple-non-member"])
@pytest.mark.parametrize("R", [31.6, 56.2])
def test_twisted_chunk_sums_are_the_per_prime_integer_sums(t, h, R):
    # no tail: per signature of n, the int64 sums of the log parts of the
    # primes n + h, against Python ints added one prime at a time
    wp = WeightParams(R, t.k + 1)
    table = divisor_table(t, R)
    assert not table.tail
    lo, hi = 10**6 + 17, 10**6 + 17 + 300_000
    key = table.signatures(lo, hi).tolist()
    ps = np.array(list(sympy.primerange(lo + h, hi + h)))
    want_hi, want_lo = [0] * table.signature_count, [0] * table.signature_count
    for p, a, b in zip(ps.tolist(), *(part.tolist() for part in primes.log_parts(ps))):
        want_hi[key[p - h - lo]] += a
        want_lo[key[p - h - lo]] += b
    count, lam_hi, lam_lo = moments._twisted_chunk((t, wp, lo, hi, h))
    assert count is None
    assert lam_hi.dtype == lam_lo.dtype == np.int64
    assert lam_hi.tolist() == want_hi
    assert lam_lo.tolist() == want_lo


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("R", [56.2, 100.0])
def test_pure_moment_is_bitwise_fsum_of_block_squares(workers, R):
    # R < 59: one fsum over every n's square; R >= 59: one fsum of the
    # chunks' fsums
    params = SieveParams(N=1_500_000, R=R, k=2, l=1, span_bound=3)
    wp = WeightParams(R, params.a)
    squares = []
    for lo, hi in block_spans(params.N + 1, 2 * params.N + 1, CHUNK):
        vals = lambda_block(TWIN, wp, lo, hi).values
        squares.append(vals * vals)
    assert len(squares) == 2
    if R < 59:
        expected = math.fsum(np.concatenate(squares))
    else:
        expected = math.fsum([math.fsum(sq) for sq in squares])
    assert pure_moment(TWIN, params, workers=workers).empirical.hex() == expected.hex()


def _per_n_sums(t, params, h, span, log3n):
    """(twisted, detector) over (N, 2N] by the per-n formulas, one fsum each."""
    wp = WeightParams(params.R, params.a)
    lo, hi = params.N + 1, 2 * params.N + 1
    vals = lambda_block(t, wp, lo, hi).values
    n = np.arange(lo, hi)
    flags = prime_flags(lo + 1, hi + span)
    seen = [(flags[g - 1 : g - 1 + hi - lo], np.log((n + g).astype(np.float64))) for g in range(1, span + 1)]
    twisted = math.fsum((vals * vals * seen[h - 1][1])[seen[h - 1][0]])
    w = np.full(hi - lo, -log3n)
    for g in t.offsets:
        w += np.where(seen[g - 1][0], seen[g - 1][1], 0.0)
    return twisted, math.fsum(w * vals * vals)


@pytest.mark.parametrize("t", [TWIN, OffsetTuple(SEPTUPLE_OFFSETS)], ids=["twin", "septuple"])
def test_no_tail_runs_round_once(t, monkeypatch):
    # R < 59: the run's value is its per-signature integers rounded once, so
    # it is bit-identical at any CHUNK and worker count, and within 1e-15 of
    # the per-n formula
    params = SieveParams(N=1_200_000, R=56.2, k=t.k, l=1, span_bound=22)
    h, log3n = 13, math.log(3 * params.N)

    def run(workers):
        return (
            pure_moment(t, params, workers=workers, force=True).empirical,
            twisted_moment(t, h, params, workers=workers, force=True).empirical,
            two_primes_detector(params, [t], h_mode="tuple", workers=workers, force=True).empirical,
        )

    base = run(1)
    assert run(2) == base
    monkeypatch.setattr(moments, "CHUNK", 1 << 16)
    assert run(1) == base
    twisted, detector = _per_n_sums(t, params, h, params.span_bound, log3n)
    assert base[1] == pytest.approx(twisted, rel=1e-15)
    assert base[2] == pytest.approx(detector, rel=1e-15)


def test_grouped_square_sum_is_exact_past_2_24_counts():
    # per-run counts reach N: counts near 2^34, and a mix with small ones,
    # against the exact rational sum of the repeated float squares, rounded
    rng = np.random.default_rng(7)
    values = rng.uniform(-40.0, 40.0, 300)
    for counts in (rng.integers(2**33, 2**34, 300), rng.integers(0, 2**34, 300) >> rng.integers(0, 34, 300)):
        exact = sum(Fraction(v * v) * int(c) for v, c in zip(values.tolist(), counts.tolist()))
        assert _repeated_fsum(values * values, counts).hex() == float(exact).hex()


def test_key_sums_stay_exact_past_2_53(monkeypatch):
    # a run over 2^34 n: 2^14 chunks whose per-key log-part sums are near the
    # most a chunk can hold; the run's fold takes totals past 2^53 and even
    # 2^63, and still rounds them correctly
    rng = np.random.default_rng(11)
    keys, chunks = 8, 1 << 14
    hi = rng.integers(2**61, 2**62, (chunks, keys))
    lo = rng.integers(2**55, 2**56, (chunks, keys))
    monkeypatch.setattr(moments, "ordered_imap", lambda fn, tasks, workers: zip([None] * chunks, hi, lo))
    lam, _ = moments._fold_chunks(None, lambda values, counts, lam: lam, TWIN, _params(10**6), 1)
    total_hi = [sum(col) for col in zip(*hi.tolist())]
    total_lo = [sum(col) for col in zip(*lo.tolist())]
    assert min(total_hi) >= 2**63
    exact = [float(Fraction(a, 2**26) + Fraction(b, 2**52)) for a, b in zip(total_hi, total_lo)]
    assert [x.hex() for x in lam.tolist()] == [x.hex() for x in exact]


def test_pure_moment_worker_invariance():
    params = _params(10**5)
    serial = pure_moment(TWIN, params, workers=1)
    pooled = pure_moment(TWIN, params, workers=3)
    assert serial.empirical == pooled.empirical
    assert serial.doc() == pooled.doc()


# ---------------------------------------------------------------------------
# the chunk pipeline
# ---------------------------------------------------------------------------

_PIPELINE_N = 1_200_000  # five chunks of 2^18


@pytest.mark.parametrize("driver", ["pure", "twisted", "detector"])
def test_chunk_tasks_carry_the_signature_state(driver, monkeypatch):
    # the state stays in the calling process: a task is (tuple, weight
    # params, span, extras) and pickles small, and its chunk finds the table
    # and signature state built before any chunk ran, in divisor_table's memo
    params = _params(_PIPELINE_N, span=10)
    monkeypatch.setattr(moments, "CHUNK", 1 << 18)
    tasks = []
    alive = []

    def watched(result):
        stats = result[0] if driver == "detector" else result
        alive.append(weakref.ref(next(a for a in stats if a is not None)))
        return result

    def no_rebuild(*args):
        raise AssertionError("table, signature state or patterns rebuilt by a chunk")

    def recording_imap(fn, task_list, workers=None):
        tasks.extend(task_list)
        builds = weights._build_table.cache_info().misses
        with monkeypatch.context() as m:
            m.setattr(weights, "_weight_value", no_rebuild)
            m.setattr(weights, "_signature_tiles", no_rebuild)
            for task in task_list:
                # streaming fold: by the time a chunk runs, every earlier
                # result has been folded and dropped
                assert not alive or alive[-1]() is None
                yield watched(fn(task))
        assert weights._build_table.cache_info().misses == builds

    monkeypatch.setattr(moments, "ordered_imap", recording_imap)
    run, extra = {
        "pure": (lambda: pure_moment(TWIN, params), ()),
        "twisted": (lambda: twisted_moment(TWIN, 7, params), (7,)),
        "detector": (lambda: two_primes_detector(params, [TWIN], h_mode="tuple"),
                     (10, math.log(3 * _PIPELINE_N), "tuple", 1000, False)),
    }[driver]
    assert run().diagnostics["chunks"] == len(tasks) == 5
    assert [task[2:4] for task in tasks] == block_spans(_PIPELINE_N + 1, 2 * _PIPELINE_N + 1, 1 << 18)
    # exactly these fields ride in a task: no table, and no force flag
    wp = WeightParams(params.R, params.a)
    assert [task[:2] + task[4:] for task in tasks] == [(TWIN, wp, *extra)] * 5
    assert all(len(pickle.dumps(task)) < 1024 for task in tasks)


@pytest.mark.parametrize("R", [56.2, 100.0], ids=["no-tail", "tail"])
def test_spawned_workers_give_the_same_bits(R, monkeypatch):
    # a spawned worker inherits no memo, so it builds the table and its
    # signature state itself; every run is bit for bit the one at workers 1
    params = SieveParams(N=20_000, R=R, k=2, l=1, span_bound=10)
    monkeypatch.setattr(moments, "CHUNK", 1 << 12)  # five chunks

    def run(workers):
        return (
            pure_moment(TWIN, params, workers=workers, force=True).empirical,
            twisted_moment(TWIN, 7, params, workers=workers, force=True).empirical,
            two_primes_detector(params, [TWIN], workers=workers, force=True).empirical,
        )

    base = run(1)
    spawn = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn)
    assert [x.hex() for x in run(2)] == [x.hex() for x in base]


def test_tuple_size_error_comes_before_the_regime_check():
    # R > N^(1/2) violates both regimes, and the tuple has the wrong size
    bad = SieveParams(N=10**4, R=5000.0, k=2, l=1, span_bound=10)
    triple = OffsetTuple((1, 3, 7))
    for run in (
        lambda: pure_moment(triple, bad),
        lambda: twisted_moment(triple, 1, bad),
        lambda: two_primes_detector(bad, [triple]),
    ):
        with pytest.raises(ValueError, match="tuple size 3") as info:
            run()
        assert not isinstance(info.value, RegimeError)


def test_witness_cap_past_the_budget_is_refused_before_any_table(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("spans or a table were built")

    params = _params(10**4, span=10)
    with monkeypatch.context() as m:
        m.setattr(moments, "block_spans", no_work)
        m.setattr(moments, "divisor_table", no_work)
        with pytest.raises(BudgetError, match=f"witness_cap {MAX_WITNESSES + 1} exceeds"):
            two_primes_detector(params, [TWIN], witness_cap=MAX_WITNESSES + 1)
    at_cap = two_primes_detector(params, [TWIN], witness_cap=MAX_WITNESSES)
    assert at_cap.diagnostics["witness_cap"] == MAX_WITNESSES


def test_runs_past_the_sieve_bound_are_refused_before_any_chunk(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("spans or a table were built")

    # N = 1e10 at R = N^(1/4) passes every other check; its chunks would
    # sieve up to 2N + 1 + reach > 2^34
    params = _params(10**10, span=10)
    with monkeypatch.context() as m:
        m.setattr(moments, "block_spans", no_work)
        m.setattr(moments, "divisor_table", no_work)
        for run in (lambda: twisted_moment(TWIN, 5, params), lambda: two_primes_detector(params, [TWIN])):
            with pytest.raises(ValueError, match="past the supported sieve bound"):
                run()
    # the refusal sits exactly where the last chunk's sieve would fail
    small = _params(10**4, span=10)
    for run, reach in ((lambda: twisted_moment(TWIN, 5, small), 5),
                       (lambda: two_primes_detector(small, [TWIN]), 10)):
        for bound, ok in ((2 * 10**4 + 1 + reach, True), (2 * 10**4 + reach, False)):
            monkeypatch.setattr(moments, "SUPPORTED_SIEVE_BOUND", bound)
            monkeypatch.setattr("gapsieve.primes.SUPPORTED_SIEVE_BOUND", bound)
            if ok:
                run()
            else:
                with pytest.raises(ValueError, match="past the supported sieve bound"):
                    run()


# ---------------------------------------------------------------------------
# refusals: each exception with its message
# ---------------------------------------------------------------------------

def _sieve_params(**change):
    return SieveParams(**{"N": 100, "R": 2.0, "k": 2, "l": 1, "span_bound": 3, **change})


@pytest.mark.parametrize("change, error, message", [
    ({"N": 15}, ValueError, "need N >= 16, got 15"),
    ({"k": 0}, ValueError, "need k, l >= 1, got k=0, l=1"),
    ({"l": 0}, ValueError, "need k, l >= 1, got k=2, l=0"),
    ({"span_bound": 0}, ValueError, "span_bound must be >= 1"),
    ({"theta": Fraction(0)}, ValueError, "theta must lie in (0, 1), got 0"),
    ({"theta": 1}, ValueError, "theta must lie in (0, 1), got 1"),
    ({"R": 0.5}, ValueError, "need finite R >= 1, got 0.5"),
    # N, k, l, span_bound and theta are exact: a float is refused before
    # anything is formed
    ({"N": 1e6}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"theta": 0.45}, TypeError, "theta must be an exact rational (Fraction, int, or string), not float"),
    ({"k": 2.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"l": 1.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"span_bound": 3.5}, TypeError, "'float' object cannot be interpreted as an integer"),
])
def test_sieve_params_refusals(change, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _sieve_params(**change)


def test_sieve_params_take_exact_n_and_theta():
    params = _sieve_params(N=np.int64(10**4), k=np.int64(2), l=np.int8(1), span_bound=np.uint16(3), theta="9/20")
    assert [(type(v), v) for v in (params.N, params.k, params.l, params.span_bound)] == [
        (int, 10**4), (int, 2), (int, 1), (int, 3)]
    assert params.theta == Fraction(9, 20)


def test_sieve_params_leave_the_r_check_to_the_weights(monkeypatch):
    # one R check, the weights' own: SieveParams refuses R through WeightParams
    seen = []
    real = moments.WeightParams

    def recording(R, a):
        seen.append(R)
        return real(R, a)

    monkeypatch.setattr(moments, "WeightParams", recording)
    with pytest.raises(ValueError, match="need finite R >= 1, got 0.5"):
        _sieve_params(R=0.5)
    assert seen == [0.5]


@pytest.mark.parametrize("args, message", [
    ((0, 1, Fraction(1, 2)), "need k, l >= 1"),
    ((1, 0, Fraction(1, 2)), "need k, l >= 1"),
    ((1, 1, Fraction(0)), "theta must lie in (0, 1], got 0"),
    ((1, 1, Fraction(3, 2)), "theta must lie in (0, 1], got 3/2"),
])
def test_threshold_refusals(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        threshold(*args)


def test_exact_counts_refuse_r_past_their_budget():
    with pytest.raises(BudgetError, match=r"^R = 501\.0 exceeds exact-count budget 500$"):
        double_sum_exact_counts(TWIN, WeightParams(501.0, 3), 1000, 2000)


def test_twisted_refuses_a_span_below_the_tuples():
    params = SieveParams(N=10**4, R=10.0, k=2, l=1, span_bound=5)
    with pytest.raises(ValueError, match="^params.span_bound 5 below tuple span 10$"):
        twisted_moment(OffsetTuple((1, 3), 10), 2, params)


@pytest.mark.parametrize("run", [
    lambda params: twisted_moment(TWIN, 3.0, params),
    lambda params: two_primes_detector(params, [TWIN], witness_cap=2.5),
], ids=["twisted-h", "detector-witness_cap"])
def test_moment_entry_points_take_exact_integers(monkeypatch, run):
    # a float is refused before any span or table forms, not inside a chunk,
    # where with workers > 1 it would fail in a pool process
    def no_work(*args, **kwargs):
        raise AssertionError("spans or a table were built")

    params = _params(10**4, span=10)
    monkeypatch.setattr(moments, "block_spans", no_work)
    monkeypatch.setattr(moments, "divisor_table", no_work)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        run(params)


def test_regime_caps_allow_one_part_in_1e12():
    # R at the cap exactly is inside the regime, and 1e-10 past it is not
    at_cap = SieveParams(N=10**6, R=1000.0, k=2, l=1, span_bound=3)
    assert at_cap.pure_regime_violations() == []
    past = SieveParams(N=10**6, R=1000 * (1 + 1e-10), k=2, l=1, span_bound=3)
    assert past.pure_regime_violations() == ["R 1000.0000001 > N^(1/2) = 1000"]
    at_cap = SieveParams(N=10**12, R=1000.0, k=2, l=1, span_bound=3)
    assert at_cap.twisted_regime_violations() == []
    past = SieveParams(N=10**12, R=1000 * (1 + 1e-10), k=2, l=1, span_bound=3)
    assert past.twisted_regime_violations() == ["R 1000.0000001 > N^(theta/2) = 1000 at theta = 1/2"]


def test_detector_refuses_an_unknown_h_mode():
    params = SieveParams(N=10**4, R=10.0, k=2, l=1, span_bound=5)
    with pytest.raises(ValueError, match="^unknown h_mode 'x'$"):
        two_primes_detector(params, [TWIN], h_mode="x")
