"""Independent oracles the tests check the library against.

Each computes its quantity the plain way: the primes of a window by the
plain sieve of Eratosthenes, the dyadic progression sum by one fsum over the
sieved primes, the weight of one d <= R from the primes that divide it, the
block weights from the primes <= R that divide some n + h, and the bilinear
form by direct double summation.  Apart from prime_flags, the primes come
from the library's sieve, each tested by direct divisibility; nothing is
factored.
canonical_json_oracle is the emitter as a plain isinstance chain, every key
sorted per dict, and log_parts_ldexp the integer log parts by two np.ldexp
passes.
lambda_bruteforce shares weights._weight_value with lambda_block, so any
disagreement isolates the divisor-finding logic rather than float noise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from gapsieve.moments import _divisor_pairs
from gapsieve.primes import base_primes, primes_in
from gapsieve.tuples import OffsetTuple, omega_profile
from gapsieve.weights import WeightParams, _weight_value


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """flags[i] is True exactly when lo + i is prime, for 2 <= lo < hi.

    The window alone is sieved: each prime up to the root of hi - 1, found
    by this same function over [2, root], strikes its multiples from
    max(p^2, its first multiple >= lo) in one strided pass over the whole
    window.  No wheel, no blocks and no base_primes, so it shares none of
    the library sieve's machinery.
    """
    flags = np.ones(hi - lo, dtype=bool)
    root = math.isqrt(hi - 1)
    if root >= 2:
        for p in (2 + np.flatnonzero(prime_flags(2, root + 1))).tolist():
            flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


def theta_star(y: int, a: int, q: int) -> float:
    """Sum of log p over primes p in (y, 2y] with p = a (mod q); q = 1 is
    the unconditional total, for y, q >= 1.  Ascending primes, exactly
    rounded sum."""
    ps = primes_in(y + 1, 2 * y + 1)
    if q > 1:
        ps = ps[ps % q == a % q]
    return math.fsum(np.log(ps.astype(np.float64)))


def lambda_weight(d: int, params: WeightParams) -> float:
    """mu(d) (log R/d)^a / a! for squarefree d <= R, else 0; d > R is
    answered before any division, and d < 1 or non-squarefree d <= R are
    refused.  The primes of d are the primes <= d that divide it."""
    if d > params.R:
        return 0.0
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    factors = [p for p in base_primes(d).tolist() if d % p == 0]
    if math.prod(factors) != d:
        raise ValueError(f"{d} is not squarefree")
    return _weight_value(-1 if len(factors) % 2 else 1, d, params.R, params.a)


def lambda_bruteforce(t: OffsetTuple, params: WeightParams, n: int) -> float:
    """Find the primes <= R dividing the product of the n+h, enumerate all
    squarefree divisors <= R of the product, sum weights in ascending-d
    order, Kahan-compensated.

    A prime divides the product exactly when it divides some n+h, and none
    above the largest n+h does, so only the primes <= min(R, n + h_k) are
    tried, each by one division of the product.
    """
    if n + t.offsets[0] < 1:
        raise ValueError(f"n = {n} makes n + h nonpositive")
    product = math.prod(n + h for h in t.offsets)
    candidates = base_primes(int(min(params.R, n + t.offsets[-1]))).tolist()
    primes = [p for p in candidates if product % p == 0]

    divisors = [(1, 1)]

    def grow(start: int, d: int, mu: int) -> None:
        for i in range(start, len(primes)):
            nd = d * primes[i]
            if nd > params.R:
                break
            divisors.append((nd, -mu))
            grow(i + 1, nd, -mu)

    grow(0, 1, 1)
    divisors.sort()
    total = 0.0
    comp = 0.0
    for d, mu in divisors:
        w = _weight_value(mu, d, params.R, params.a)
        y = w - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def double_sum_T(t: OffsetTuple, params: WeightParams) -> float:
    """The exact bilinear form sum_{d1,d2} w(d1) w(d2) |Omega([d1,d2])| / [d1,d2]
    by direct double summation; feasible for R up to a few thousand.  Only R
    and the weight exponent are read, so SieveParams work too."""
    # every prime <= R is itself a table entry, so this covers every lcm
    primes = base_primes(int(params.R)).tolist()
    omega_of = dict(zip(primes, omega_profile(t, primes)))
    terms = []
    for weight, union in _divisor_pairs(t, params):
        lcm = 1
        omega = 1
        for p in union:
            lcm *= p
            omega *= omega_of[p]
        terms.append(weight * omega / lcm)
    return math.fsum(terms)


def log_parts_ldexp(ps) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with log p = hi * 2^-26 + lo * 2^-52, for int64 primes >= 3:
    the scaled log by np.ldexp, its floor, and the scaled remainder."""
    scaled = np.ldexp(np.log(np.asarray(ps, dtype=np.int64).astype(np.float64)), 26)
    hi = np.floor(scaled)
    lo = np.ldexp(scaled - hi, 26)
    return hi.astype(np.int64), lo.astype(np.int64)


# every string as json.dumps(s, ensure_ascii=False) writes it
_encode_str = json.JSONEncoder(ensure_ascii=False).encode


def canonical_json_oracle(obj) -> str:
    """Canonical JSON by one isinstance chain, float and str first: keys
    sorted per dict, floats at 17 significant digits, tuples as lists,
    Fractions as strings; non-finite floats (ValueError), non-string keys and
    other types (TypeError) refused."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    # bool before int, of which it is a subclass
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} has no canonical form")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(_encode_str(key))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, Fraction):
        parts.append(json.dumps(str(obj)))
    else:
        raise TypeError(f"no canonical JSON form for {type(obj).__name__}")
