"""Tuple density constants via truncated Euler products with certified tails,
and the normalized tuple-average that should tend to 1.

For a k-tuple the density constant is

    prod_p (1 - w(p)/p) * (1 - 1/p)^(-k),

with w(p) the number of residue classes the tuple covers mod p.  Since
w(p) = k for every prime beyond the tuple's span, the product splits into

  * an exact part over p <= span_bound (actual w(p), may vanish),
  * a generic part over span_bound < p <= P0 with w(p) = k: a difference of
    one per-k prefix-sum table over the shared base primes, taken between
    the prime counts pi(span_bound) and pi(P0),
  * an analytic tail for p > P0.

The tail comes from expanding the log of each generic factor:

    log(1 - k/p) - k log(1 - 1/p) = - sum_{j>=2} (k^j - k) / (j p^j),

so the tail over p > P0 is  - sum_{j>=2} (k^j - k)/j * P_j(P0)  with
P_j(P0) = sum_{p > P0} p^(-j), evaluated as primezeta(j) minus the partial
sum over the base primes <= P0.  The series is cut at J once the integral bound

    sum_{j>J} (k^j - k)/j * P_j(P0)  <=  P0 * (k/P0)^(J+1) / (1 - k/P0)

drops below the target; that bound plus an explicit float-accumulation
allowance is the certified tail_bound.  Extended precision (longdouble) is
used for the cumulative tables and the tail series because the j-series
suffers cancellation when P_j is formed by subtraction.

At a fixed span bound H the series depends only on w(p) for p <= H, which is
the same for t and any translate t + c inside [1, H]; every other input is
shared, so the two values are bit-identical.  gallagher_average therefore
evaluates one series per translation class (the class of offsets
(1, h_2, ..., h_k) holds H - h_k + 1 tuples) and fsums each value repeated by
its class size: the same multiset, so the same correctly rounded sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat

import mpmath
import numpy as np

from .errors import ToleranceError
from .parallel import resolve_workers
from .primes import base_primes
from .tuples import OffsetTuple, enumerate_tuples, enumeration_size, extended_omega_size, omega_size

DEFAULT_TOL = 1e-12
TRUNCATION_FLOOR = 1000
MAX_TRUNCATION_PRIME = 10**8
_SERIES_CAP = 80

_EPS = float(np.finfo(np.float64).eps)
_EPS_LD = float(np.finfo(np.longdouble).eps)


@dataclass(frozen=True)
class SingularSeriesValue:
    """Density constant with its truncation point and certified log-error."""

    value: float
    truncation_prime: int
    tail_bound: float


@lru_cache(maxsize=None)
def _prime_zeta_ld(j: int) -> np.longdouble:
    """sum over all primes of p^(-j), at longdouble precision."""
    with mpmath.workdps(30):
        return np.longdouble(mpmath.nstr(mpmath.primezeta(j), 25))


# per k: the (cum, cumabs) tables of _generic_tables, rebuilt when outgrown
_GENERIC: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _generic_tables(k: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cum, cumabs) covering at least the base-prime prefix `primes`.

    cum[i] = sum over the first i primes > k of the generic log factor;
    primes <= k contribute 0 (the generic form is invalid there and such
    primes are always handled by the exact part).  The sums run in prime
    order, so a prefix is the same whatever prefix built the table.
    """
    if k not in _GENERIC or len(_GENERIC[k][0]) <= len(primes):
        p = primes.astype(np.longdouble)
        g = np.zeros_like(p)
        mask = primes > k
        pm = p[mask]
        g[mask] = np.log1p(-k / pm) - k * np.log1p(-1.0 / pm)
        cum = np.concatenate([[np.longdouble(0)], np.cumsum(g)])
        cumabs = np.concatenate([[np.longdouble(0)], np.cumsum(np.abs(g))])
        _GENERIC[k] = (cum, cumabs)
    return _GENERIC[k]


@lru_cache(maxsize=None)
def _tail_correction(k: int, p0: int, target: float) -> tuple[float, float]:
    """(correction, certified bound) for the log-tail over primes > p0.

    The bound covers both the dropped j > J terms and the cancellation noise
    of forming P_j by subtraction at extended precision.
    """
    if p0 < 2 * k:
        raise ToleranceError(f"truncation prime {p0} must exceed 2k = {2 * k}")
    ratio = k / p0
    ps = base_primes(p0).astype(np.longdouble)
    corr = np.longdouble(0)
    noise = 0.0
    j = 1
    while True:
        j += 1
        if j > _SERIES_CAP:
            raise ToleranceError(f"tail series did not reach target {target} by j={_SERIES_CAP}")
        # remaining terms after j-1, bounded via P_i(p0) <= p0^(1-i)
        remaining = p0 * ratio**j / (1.0 - ratio)
        if remaining < target:
            break
        pz = _prime_zeta_ld(j)
        tail_j = pz - (ps ** np.longdouble(-j)).sum()
        if tail_j < 0:  # pure cancellation noise; the true tail is >= 0
            tail_j = np.longdouble(0)
        coeff = np.longdouble(k**j - k) / j
        corr -= coeff * tail_j
        noise += 2.0 * _EPS_LD * float(coeff * pz)
    return float(corr), remaining + noise


def singular_series(
    t: OffsetTuple,
    tol: float = DEFAULT_TOL,
    truncation_prime: int | None = None,
) -> SingularSeriesValue:
    """Density constant of the tuple with a certified tail bound < tol."""
    return _singular_series_from_sizes(
        lambda p: omega_size(t, p), t.k, t.span_bound, tol, truncation_prime
    )


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
    return _singular_series_from_sizes(
        lambda p: extended_omega_size(t, h, p), t.k + 1, t.span_bound, tol, truncation_prime
    )


def _singular_series_from_sizes(
    size_of, k: int, span_bound: int, tol: float, truncation_prime: int | None
) -> SingularSeriesValue:
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if tol < 1e-14:
        raise ToleranceError(f"tolerance {tol} below double-precision floor 1e-14")
    p0 = truncation_prime if truncation_prime is not None else max(TRUNCATION_FLOOR, span_bound)
    if p0 < span_bound:
        raise ValueError(
            f"truncation prime {p0} below span bound {span_bound}: "
            "the non-generic primes would be silently truncated"
        )
    if p0 > MAX_TRUNCATION_PRIME:
        raise ToleranceError(f"truncation prime {p0} exceeds cap {MAX_TRUNCATION_PRIME}")

    # exact factors at p <= span_bound, compensated accumulation
    log_small = 0.0
    comp = 0.0
    abs_small = 0.0
    for p in base_primes(span_bound):
        p = int(p)
        w = size_of(p)
        if w == p:
            return SingularSeriesValue(0.0, p0, 0.0)
        term = math.log1p(-w / p) - k * math.log1p(-1.0 / p)
        abs_small += abs(term)
        y = term - comp
        s = log_small + y
        comp = (s - log_small) - y
        log_small = s

    primes = base_primes(p0)
    cum, cumabs = _generic_tables(k, primes)
    # base_primes(span_bound) is a prefix of primes, so the two lengths are
    # the prime counts that bound the generic range
    i1, i2 = len(base_primes(span_bound)), len(primes)
    log_generic = float(cum[i2] - cum[i1])
    generic_abs = float(cumabs[i2] - cumabs[i1])

    corr, tail_neglect = _tail_correction(k, p0, tol / 4.0)

    log_total = log_small + log_generic + corr
    # float allowance: Kahan small part, longdouble cumulative difference,
    # and the final three-term combination
    fp_slack = (
        4.0 * _EPS * (abs_small + abs(corr) + abs(log_total) + 1.0)
        + (i2 - i1) * _EPS_LD * (generic_abs + 1.0)
    )
    tail_bound = tail_neglect + fp_slack
    if tail_bound >= tol:
        raise ToleranceError(
            f"certified tail bound {tail_bound:.3e} does not reach tol {tol:.3e} "
            f"at truncation prime {p0}"
        )
    return SingularSeriesValue(math.exp(log_total), p0, tail_bound)


@dataclass(frozen=True)
class TupleAverageReport:
    """Normalized tuple-density average over k-subsets of [1, span_bound].

    normalized = k! * (sum of density constants over unordered k-subsets)
    divided by span_bound^k; tends to 1 as the span grows.
    """

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
    tol: float = DEFAULT_TOL,
    stride: int = 1,
    phase: int = 0,
    workers: int | None = None,
) -> TupleAverageReport:
    """Average the density constant over all k-subsets of [1, span_bound].

    Enumeration cost is C(span_bound, k) / stride; exceeding the budget of
    tuples.enumeration_size is an error rather than a silent long run.  The full
    average evaluates one series per translation class and repeats its
    value once per member; a stride sample evaluates each sampled tuple.
    """
    sample = enumeration_size(span_bound, k, stride, phase)
    resolve_workers(workers)  # validated; the sum itself is one fixed-order pass
    if stride == 1:
        classes = ((1,) + rest for rest in combinations(range(2, span_bound + 1), k - 1))
        values = chain.from_iterable(
            repeat(singular_series(OffsetTuple(offs, span_bound), tol).value,
                   span_bound - offs[-1] + 1)
            for offs in classes
        )
    else:
        values = (singular_series(t, tol).value
                  for t in enumerate_tuples(span_bound, k, stride=stride, phase=phase))
    tuple_sum = math.fsum(values)
    try:
        normalized = math.factorial(k) * tuple_sum * stride / float(span_bound) ** k
    except OverflowError:  # k! or H^k is beyond the float range
        normalized = math.inf
    if not math.isfinite(normalized):
        # a factor or partial product overflowed: round the exact ratio once
        normalized = float(math.factorial(k) * stride * Fraction(tuple_sum) / span_bound**k)
    return TupleAverageReport(span_bound, k, normalized, tuple_sum, sample, stride, phase)
