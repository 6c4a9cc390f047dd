"""Tuple density constants via truncated Euler products with certified tails,
and the normalized tuple-average that should tend to 1.

For a k-tuple the density constant is

    prod_p (1 - w(p)/p) * (1 - 1/p)^(-k),

with w(p) the number of residue classes the tuple covers mod p.  Since
w(p) = k for every prime beyond the tuple's span, the product splits into

  * an exact part over p <= span_bound (actual w(p), may vanish),
  * a generic part over span_bound < p <= P0 with w(p) = k: the difference
    of one running sum of the generic log factors, in prime order, at the
    prime counts pi(P0) and pi(span_bound),
  * an analytic tail for p > P0.

The tail comes from expanding the log of each generic factor:

    log(1 - k/p) - k log(1 - 1/p) = - sum_{j>=2} (k^j - k) / (j p^j),

so the tail over p > P0 is  - sum_{j>=2} (k^j - k)/j * P_j(P0)  with
P_j(P0) = sum_{p > P0} p^(-j), evaluated as the prime zeta value P_j minus
the partial sum over the base primes <= P0.  P_j for j = 2..80 comes from a
pinned table of 25-digit strings (mpmath's primezeta, checked by the tests),
parsed at longdouble precision.  The series is cut at J once the integral bound

    sum_{j>J} (k^j - k)/j * P_j(P0)  <=  P0 * (k/P0)^(J+1) / (1 - k/P0)

drops below the target; that bound plus an explicit float-accumulation
allowance is the certified tail_bound.  The generic part and the tail are
formed in extended precision, as the j-series suffers cancellation when P_j
is formed by subtraction.  The running sum streams over the shared int64
prime cache in blocks, each block's cumsum seeded with the last one's end:
the same sequential additions, so the same bits as one whole cumsum.  Its
value at pi(P0) and the tail are formed once per (k, P0, tol); its value at
pi(span_bound) by the same pass over the primes <= span_bound alone.
Memory: one reused block, plus one longdouble per prime <= P0 while a tail
power sum runs.

At a fixed span bound H the series depends on a tuple only through its
residue profile, its w(p) for the primes p <= H: every other input is shared,
so tuples with one profile get bit-identical values.  The profile of t is
that of any translate t + c inside [1, H], and many translation classes share
one profile.  A profile ends at the first fully covered prime (w(p) = p),
where the series vanishes, so tuples that agree up to that prime share one.
gallagher_average therefore profiles its tuples in numpy blocks (one tuple
(1, h_2, ..., h_k) per translation class, standing for its H - h_k + 1
members, or each tuple of a stride sample), evaluates one series per
distinct profile of a block, and adds each value repeated by the number
of tuples it stands for in one exact grouped sum: the same multiset, so the
same correctly rounded sum as a per-tuple fsum.  singular_series and
singular_series_extended feed their own profiles to the same evaluator,
_profile_series.  The primes <= H come from the prime tuple that primes
memoises by limit (tuples' admissibility test reads the same one); the four
floats of the generic part and the tail, and the sums at pi(P0) with the
tail, come from small memos keyed by (k, H, P0, tol) and (k, P0, tol); no
array outlives its call, and nothing is memoised by tuple or profile.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice, repeat
from typing import ClassVar

import numpy as np

from .errors import ToleranceError
from .parallel import resolve_workers
from .primes import _prime_tuple, _repeated_fsum, base_primes
from .serialize import Report
from .tuples import OffsetTuple, enumerate_tuples, enumeration_size, extended_omega_size, omega_profile

DEFAULT_TOL = 1e-12
TRUNCATION_FLOOR = 1000
MAX_TRUNCATION_PRIME = 10**8
_SERIES_CAP = 80
# residues (offsets times primes) per block when gallagher_average profiles
# its tuples
PROFILE_BLOCK = 1 << 17
# primes per block of the generic pass's running sums
_GENERIC_BLOCK = 1 << 14
# entries kept by each memo of per-call constants
_MEMO = 16

_EPS = float(np.finfo(np.float64).eps)
_EPS_LD = float(np.finfo(np.longdouble).eps)


@dataclass(frozen=True)
class SingularSeriesValue(Report):
    """Density constant with its truncation point and certified log-error."""

    kind: ClassVar[str] = "singular_series"
    value: float
    truncation_prime: int
    tail_bound: float


# P_j = sum over all primes of p^(-j) for j = 2.._SERIES_CAP, at index j - 2:
# mpmath.nstr(mpmath.primezeta(j), 25) under mpmath.workdps(30), which
# tests/test_singular.py checks entry by entry
_PRIME_ZETA = (
    "0.4522474200410654985065434",  # 2
    "0.1747626392994435364231133",  # 3
    "0.0769931397642468449426193",  # 4
    "0.03575501748392425713281824",  # 5
    "0.01707008685063651295413367",  # 6
    "0.008283832856133592535124139",  # 7
    "0.004061405366517830560523439",  # 8
    "0.002004467574962450663073585",  # 9
    "0.0009936035744369802178558507",  # 10
    "0.0004939472691046549756916218",  # 11
    "0.0002460264700345456795266486",  # 12
    "0.0001226983675278692799054888",  # 13
    "0.00006124439672546447837750803",  # 14
    "0.00003058730282327005256755463",  # 15
    "0.00001528202621933934418080193",  # 16
    "0.000007637139370645897250904556",  # 17
    "0.000003817278703174996631227515",  # 18
    "0.00000190820907692628257218618",  # 19
    "0.0000009539611241036233263528835",  # 20
    "0.0000004769327593684272505083727",  # 21
    "0.0000002384504458767019281263117",  # 22
    "0.0000001192199117531882856160246",  # 23
    "5.960818549833453297113067e-8",  # 24
    "2.980350262643865876662659e-8",  # 25
    "1.490155460631457054345908e-8",  # 26
    "7.450711734323300780164546e-9",  # 27
    "3.725334010910506351833912e-9",  # 28
    "1.862659720043574907522145e-9",  # 29
    "9.313274315523019206770665e-10",  # 30
    "4.656629062865372188024756e-10",  # 31
    "2.328311833134403149136721e-10",  # 32
    "1.164155017134526496600716e-10",  # 33
    "5.82077208756388736129611e-11",  # 34
    "2.910385044412396334030528e-11",  # 35
    "1.455192189083022590216133e-11",  # 36
    "7.275959835004541439158485e-12",  # 37
    "3.637979547365416297743239e-12",  # 38
    "1.818989650303757224685764e-12",  # 39
    "9.094947840255617475659497e-13",  # 40
    "4.547473783040086075143048e-13",  # 41
    "2.273736845824135527323196e-13",  # 42
    "1.13686840768009860237493e-13",  # 43
    "5.684341987627262491844632e-14",  # 44
    "2.842170976889221076097417e-14",  # 45
    "1.421085482803140482144097e-14",  # 46
    "7.105427395210802225779153e-15",  # 47
    "3.552713691337101051523941e-15",  # 48
    "1.776356843579117172029721e-15",  # 49
    "8.881784210930808014487027e-16",  # 50
    "4.440892103143811392045506e-16",  # 51
    "2.220446050798041490961254e-16",  # 52
    "1.110223025141066010461028e-16",  # 53
    "5.551115124845480935574945e-17",  # 54
    "2.775557562136124095544435e-17",  # 55
    "1.38777878097252325702461e-17",  # 56
    "6.938893904544153649297837e-18",  # 57
    "3.469446952165922612707209e-18",  # 58
    "1.734723476047576569039707e-18",  # 59
    "8.673617380119933720818891e-19",  # 60
    "4.336808690020650485616233e-19",  # 61
    "2.168404344997219784543712e-19",  # 62
    "1.084202172494241406183722e-19",  # 63
    "5.421010862456645410624827e-20",  # 64
    "2.710505431223468831881153e-20",  # 65
    "1.355252715610116458130156e-20",  # 66
    "6.776263578045189097949381e-21",  # 67
    "3.388131789020796818074224e-21",  # 68
    "1.694065894509799165403623e-21",  # 69
    "8.470329472546998348239818e-22",  # 70
    "4.235164736272833347860477e-22",  # 71
    "2.117582368136194731843761e-22",  # 72
    "1.058791184068023385226388e-22",  # 73
    "5.293955920339870323813632e-23",  # 74
    "2.646977960169852961134047e-23",  # 75
    "1.323488980084899080309434e-23",  # 76
    "6.617444900424404067355202e-24",  # 77
    "3.308722450212171588946945e-24",  # 78
    "1.654361225106075646229921e-24",  # 79
    "8.271806125530344403671099e-25",  # 80
)


def singular_series(
    t: OffsetTuple,
    tol: float = DEFAULT_TOL,
    truncation_prime: int | None = None,
) -> SingularSeriesValue:
    """Density constant of the tuple with a certified tail bound < tol."""
    p0 = _truncation_prime(t.span_bound, tol, truncation_prime)
    return _profile_series(omega_profile(t, _prime_tuple(t.span_bound)), t.k, t.span_bound, p0, tol)


def singular_series_extended(
    t: OffsetTuple,
    h: int,
    tol: float = DEFAULT_TOL,
    truncation_prime: int | None = None,
) -> SingularSeriesValue:
    """Density constant of t extended by h, computed from the base tuple's
    residue profile (the independent route; h must not be a member)."""
    if h in t.offsets:
        raise ValueError(f"{h} is already an offset of {t}")
    if not (1 <= h <= t.span_bound):
        raise ValueError(f"extension offset {h} outside [1, {t.span_bound}]")
    p0 = _truncation_prime(t.span_bound, tol, truncation_prime)
    profile = (extended_omega_size(t, h, p) for p in _prime_tuple(t.span_bound))
    return _profile_series(profile, t.k + 1, t.span_bound, p0, tol)


def _truncation_prime(span_bound: int, tol: float, truncation_prime: int | None) -> int:
    """The truncation prime P0, after checking it and tol; a given P0 is
    taken as an exact integer by operator.index."""
    if not tol > 0:  # NaN too, before any tail pass runs
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol < 1e-14:
        raise ToleranceError(f"tolerance {tol} below double-precision floor 1e-14")
    p0 = max(TRUNCATION_FLOOR, span_bound) if truncation_prime is None else operator.index(truncation_prime)
    if p0 < span_bound:
        raise ValueError(
            f"truncation prime {p0} below span bound {span_bound}: "
            "the non-generic primes would be silently truncated"
        )
    if p0 > MAX_TRUNCATION_PRIME:
        raise ToleranceError(f"truncation prime {p0} exceeds cap {MAX_TRUNCATION_PRIME}")
    return p0


@lru_cache(maxsize=_MEMO)
def _generic_part(k: int, span_bound: int, p0: int, tol: float) -> tuple[float, float, float, float]:
    """(log sum, rounding allowance) of the generic factors over
    span_bound < p <= p0, then the tail's (correction, certified bound), the
    bound covering the dropped j > J terms and the cancellation noise of
    forming P_j by subtraction.

    The sums at pi(p0) and the tail come from _p0_pass, shared by every span
    bound; the sums at pi(span_bound) stream over the primes <= span_bound.
    """
    if p0 < 2 * k:
        raise ToleranceError(f"truncation prime {p0} must exceed 2k = {2 * k}")
    total, total_abs, corr, tail_neglect = _p0_pass(k, p0, tol)
    h_sum, h_abs = _generic_sums(k, base_primes(span_bound))
    n, i1 = len(base_primes(p0)), len(_prime_tuple(span_bound))
    slack = (n - i1) * _EPS_LD * (float(total_abs - h_abs) + 1.0)
    return float(total - h_sum), slack, corr, tail_neglect


@lru_cache(maxsize=_MEMO)
def _p0_pass(k: int, p0: int, tol: float):
    """The generic sums at pi(p0) (longdouble), then the tail's (correction,
    certified bound) as floats."""
    ps = base_primes(p0)
    total, total_abs = _generic_sums(k, ps)
    target = tol / 4.0
    ratio = k / p0
    corr = np.longdouble(0)
    noise = 0.0
    for j in range(2, _SERIES_CAP + 1):
        # remaining terms after j-1, bounded via P_i(p0) <= p0^(1-i)
        remaining = p0 * ratio**j / (1.0 - ratio)
        if remaining < target:
            break
        pz = np.longdouble(_PRIME_ZETA[j - 2])
        # one longdouble array of pi(p0) entries, summed whole: pairwise
        # summation depends on the length.  A negative difference is pure
        # cancellation noise: the true tail is >= 0
        tail_j = max(pz - np.power(ps, np.longdouble(-j)).sum(), np.longdouble(0))
        coeff = np.longdouble(k**j - k) / j
        corr -= coeff * tail_j
        noise += 2.0 * _EPS_LD * float(coeff * pz)
    else:
        raise ToleranceError(f"tail series did not reach target {target} by j={_SERIES_CAP}")
    return total, total_abs, float(corr), remaining + noise


def _generic_sums(k: int, primes: np.ndarray):
    """The sum of the generic log factors log(1 - k/p) - k log(1 - 1/p) over
    the sorted int64 primes, those <= k adding 0 (the generic form is invalid
    there; the exact part covers them), and the sum of their absolute values:
    each the last entry of a sequential longdouble cumsum in prime order.

    The primes are cast _GENERIC_BLOCK at a time into one reused buffer, and
    each block's cumsum starts from the last block's end, so the additions
    and their bits are those of one cumsum over all the primes.
    """
    # rows: the cast primes, then the factors and their absolute values, each
    # after one seed slot for the sum carried in
    buf = np.empty((3, _GENERIC_BLOCK + 1), dtype=np.longdouble)
    carry = np.zeros(2, dtype=np.longdouble)
    for s in range(int(np.searchsorted(primes, k, side="right")), len(primes), _GENERIC_BLOCK):
        block = primes[s : s + _GENERIC_BLOCK]
        m = len(block)
        ps, g, tmp = buf[0, :m], buf[1, 1 : m + 1], buf[2, 1 : m + 1]
        ps[:] = block
        np.log1p(np.divide(-k, ps, out=g), out=g)
        g -= np.multiply(k, np.log1p(np.divide(-1.0, ps, out=tmp), out=tmp), out=tmp)
        np.abs(g, out=tmp)
        sums = buf[1:, : m + 1]
        sums[:, 0] = carry
        np.cumsum(sums, axis=1, out=sums)
        carry = sums[:, m].copy()
    return carry[0], carry[1]


def _profile_series(profile, k: int, span_bound: int, p0: int, tol: float) -> SingularSeriesValue:
    """The density constant of any k-tuple in [1, span_bound] whose residue
    profile is `profile`: its w(p) for the primes p <= span_bound, in order
    (an iterable of ints, read only up to the first fully covered prime).
    p0 and tol are already checked."""
    # exact factors at p <= span_bound, compensated accumulation
    log_small = 0.0
    comp = 0.0
    abs_small = 0.0
    for p, w in zip(_prime_tuple(span_bound), profile):
        if w == p:
            return SingularSeriesValue(0.0, p0, 0.0)
        term = math.log1p(-w / p) - k * math.log1p(-1.0 / p)
        abs_small += abs(term)
        y = term - comp
        s = log_small + y
        comp = (s - log_small) - y
        log_small = s

    log_generic, generic_slack, corr, tail_neglect = _generic_part(k, span_bound, p0, tol)
    log_total = log_small + log_generic + corr
    # float allowance: Kahan small part and the final three-term combination,
    # plus the generic part's own
    fp_slack = 4.0 * _EPS * (abs_small + abs(corr) + abs(log_total) + 1.0) + generic_slack
    tail_bound = tail_neglect + fp_slack
    if tail_bound >= tol:
        raise ToleranceError(
            f"certified tail bound {tail_bound:.3e} does not reach tol {tol:.3e} "
            f"at truncation prime {p0}"
        )
    return SingularSeriesValue(math.exp(log_total), p0, tail_bound)


@dataclass(frozen=True)
class TupleAverageReport(Report):
    """Normalized tuple-density average over k-subsets of [1, span_bound].

    normalized = k! * stride * tuple_sum / span_bound^k, formed as an exact
    rational from the float tuple_sum (the sum of density constants over the
    sampled unordered k-subsets) and rounded once; tends to 1 as the span
    grows.
    """

    kind: ClassVar[str] = "gallagher"
    span_bound: int
    k: int
    normalized: float
    tuple_sum: float
    tuple_count: int
    stride: int
    phase: int
    convention: str = "unordered subsets, k!-normalized"


def gallagher_average(
    span_bound: int,
    k: int,
    stride: int = 1,
    phase: int = 0,
    workers: int | None = None,
) -> TupleAverageReport:
    """Average the density constant, each at DEFAULT_TOL, over all k-subsets
    of [1, span_bound].  workers, when given, is only validated: the sum is
    one fixed-order pass in this process.

    Enumeration cost is C(span_bound, k) / stride; exceeding the budget of
    tuples.enumeration_size is an error rather than a silent long run, and
    so is a normalized average past the float range (ValueError).  The
    full average profiles one tuple per translation class, standing for its
    members; a stride sample profiles each sampled tuple.  Either way one
    series is evaluated per distinct residue profile, and each value is
    summed exactly as often as the tuples that share its profile.

    Memory: one block of at most PROFILE_BLOCK residues, plus one
    (value, count) pair, about 110 bytes, per distinct value.  There are at
    most as many distinct values as distinct profiles, so at most one per
    translation class or sampled tuple: about 220 MB for a sample of
    ENUMERATION_BUDGET tuples with no two values equal.
    """
    sample = enumeration_size(span_bound, k, stride, phase)
    if workers is not None:
        resolve_workers(workers)
    p0 = _truncation_prime(span_bound, DEFAULT_TOL, None)
    if stride == 1:
        source = ((1,) + rest for rest in combinations(range(2, span_bound + 1), k - 1))
    else:
        source = (t.offsets for t in enumerate_tuples(span_bound, k, stride=stride, phase=phase))
    totals: dict[float, int] = {}
    for profile, count in _profile_counts(source, k, span_bound, classes=stride == 1):
        value = _profile_series(profile, k, span_bound, p0, DEFAULT_TOL).value
        totals[value] = totals.get(value, 0) + count
    tuple_sum = _repeated_fsum(np.fromiter(totals, np.float64, len(totals)),
                               np.fromiter(totals.values(), np.int64, len(totals)))
    try:
        normalized = float(math.factorial(k) * stride * Fraction(tuple_sum) / span_bound**k)
    except OverflowError:
        raise ValueError(f"the normalized average at stride {stride} leaves the float range") from None
    return TupleAverageReport(span_bound, k, normalized, tuple_sum, sample, stride, phase % stride)


def _profile_counts(source, k: int, span_bound: int, classes: bool):
    """Yield each distinct residue profile of a block of the offset tuples
    from source, with how many tuples it stands for: a translation class
    (1, h_2, ..., h_k) for its span_bound - h_k + 1 members, else each tuple
    for itself.

    A block holds at most PROFILE_BLOCK residues, one per offset and prime
    (but at least one row), so the blocks' memory does not grow with the
    tuple count.
    """
    rows = max(1, PROFILE_BLOCK // (k * max(1, len(_prime_tuple(span_bound)))))
    while True:
        # offsets are below P0 <= MAX_TRUNCATION_PRIME < 2^31: int32 halves the sort's traffic
        block = np.fromiter(chain.from_iterable(islice(source, rows)), dtype=np.int32).reshape(-1, k)
        if not len(block):
            return
        weights = (span_bound + 1 - block[:, -1]).tolist() if classes else repeat(1)
        found: dict[tuple[int, ...], int] = {}
        for profile, weight in zip(_block_profiles(block, span_bound), weights):
            found[profile] = found.get(profile, 0) + weight
        yield from found.items()


def _block_profiles(block: np.ndarray, span_bound: int) -> list[tuple[int, ...]]:
    """Each row's residue profile: w(p) for the primes p <= span_bound, the
    number of distinct -h mod p along the row, counted on the sorted row.

    A profile ends at its first fully covered prime (w(p) = p), where the
    series vanishes and _profile_series stops reading, so rows that agree
    up to that prime share one profile.  The primes therefore go in ascending
    groups, each profiling only the rows still open: one prime, then doubling
    while a prime p <= k could still be fully covered, then groups of at
    most PROFILE_BLOCK residues.
    """
    primes = base_primes(span_bound).astype(block.dtype)
    rows, k = block.shape
    out = np.empty((rows, len(primes)), dtype=np.int64)
    ends = np.full(rows, len(primes))
    open_rows = np.arange(rows)
    start = 0
    while start < len(primes) and len(open_rows):
        if primes[start] <= k:
            stop = start + max(1, start)
        else:
            stop = start + max(1, PROFILE_BLOCK // (len(open_rows) * k))
        group = primes[start:stop]
        residues = -block[open_rows][:, None, :] % group[:, None]
        residues.sort(axis=2)
        w = 1 + np.count_nonzero(np.diff(residues, axis=2), axis=2)
        out[open_rows, start : start + len(group)] = w
        full = w == group
        closed = full.any(axis=1)
        ends[open_rows[closed]] = start + 1 + full[closed].argmax(axis=1)
        open_rows = open_rows[~closed]
        start = stop
    return [tuple(row[:end]) for row, end in zip(out.tolist(), ends.tolist())]
