"""Admissible offset tuples and their residue structure.

An offset tuple is a set of distinct positive integers h_1 < ... < h_k inside
[1, span_bound].  For each prime p the tuple covers the residue classes
-h (mod p); the tuple is admissible when no prime is fully covered.  For
squarefree d the covered classes extend multiplicatively: n is covered mod d
iff d divides (n + h_1) * ... * (n + h_k), which is always decided per prime,
never by forming that product.

The number of classes covered mod p, w(p), has one implementation,
omega_profile: one loop over a tuple's primes, ending at the first fully
covered one.  The admissibility test and the singular series read it.
OffsetTuple checks what a caller passes in; enumerate_tuples builds its
tuples without that check, as each subset it yields is already strictly
increasing inside [1, span_bound].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import BudgetError
from .primes import _prime_tuple

# The 7-offset pattern used for the two-primes-in-a-window computations,
# stored shifted into [1, 22].
SEPTUPLE_OFFSETS = (2, 4, 8, 10, 14, 20, 22)
TWIN_OFFSETS = (1, 3)
# largest number of tuples one enumeration yields (after stride sampling)
ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True)
class OffsetTuple:
    """Strictly increasing distinct integer offsets within [1, span_bound]."""

    offsets: tuple[int, ...]
    span_bound: int = 0  # 0 means "use the largest offset"

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("offset tuple must be nonempty")
        # each offset taken as an exact integer and sorted in one pass; a
        # duplicate then sits next to its twin, and the ends are the least
        # and the largest offset
        offs = tuple(sorted(map(operator.index, self.offsets)))
        if any(map(operator.eq, offs, offs[1:])):
            raise ValueError(f"duplicate offsets in {offs}")
        if offs[0] < 1:
            raise ValueError(f"offsets must be >= 1, got {offs[0]}")
        span = operator.index(self.span_bound) or offs[-1]
        if offs[-1] > span:
            raise ValueError(f"offset {offs[-1]} exceeds span bound {span}")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "span_bound", span)

    @classmethod
    def _checked(cls, offsets: tuple[int, ...], span_bound: int) -> OffsetTuple:
        """The tuple of offsets the caller has already checked: Python ints,
        strictly increasing, inside [1, span_bound]; built without running
        __post_init__ again."""
        t = object.__new__(cls)
        t.__dict__.update(offsets=offsets, span_bound=span_bound)
        return t

    @property
    def k(self) -> int:
        return len(self.offsets)

    def text(self) -> str:
        return ",".join(str(h) for h in self.offsets)

    def __str__(self) -> str:
        return "{" + self.text() + "}"


def normalize_offsets(values: tuple[int, ...] | list[int]) -> tuple[tuple[int, ...], int]:
    """Shift raw pattern values so the smallest becomes 1.

    Returns (offsets, shift).  Everything downstream is shift-invariant, so
    patterns written with a 0 offset are accepted this way; the shift is
    recorded in run manifests.
    """
    if not values:
        raise ValueError("empty pattern")
    shift = 1 - min(values)
    return tuple(sorted(v + shift for v in values)), shift


def omega_residues(t: OffsetTuple, p: int) -> tuple[int, ...]:
    """Sorted distinct residues -h mod p covered by the tuple."""
    return tuple(sorted({(-h) % p for h in t.offsets}))


def omega_profile(t: OffsetTuple, primes) -> list[int]:
    """w(p), the number of classes -h mod p the tuple covers, for each of the
    ascending primes in turn, through the first fully covered one (w(p) = p),
    where admissibility fails and the density constant vanishes.

    The one implementation of w(p): the number of distinct h mod p, as
    negation permutes the classes, and k for every p past the tuple's spread
    h_k - h_1, where no two offsets agree mod p.
    """
    offsets = t.offsets
    k, spread = len(offsets), offsets[-1] - offsets[0]
    profile = []
    for p in primes:
        w = len({h % p for h in offsets}) if p <= spread else k
        profile.append(w)
        if w == p:
            break
    return profile


def is_admissible(t: OffsetTuple) -> bool:
    """True iff no prime has all its residue classes covered.

    Only primes p <= k need checking: beyond that the covered count is at
    most k < p.
    """
    return first_obstruction(t) is None


def first_obstruction(t: OffsetTuple) -> int | None:
    """Smallest prime with every class covered, or None when admissible."""
    primes = _prime_tuple(len(t.offsets))
    profile = omega_profile(t, primes)
    # the profile ends at the first fully covered prime, if any
    if profile and profile[-1] == primes[len(profile) - 1]:
        return profile[-1]
    return None


def extend(t: OffsetTuple, h: int) -> OffsetTuple:
    """The (k+1)-tuple with h adjoined; h must not be a member.

    The extension may be inadmissible; that is allowed and downstream code
    treats its vanishing density constant as an exact zero.
    """
    if not (1 <= h <= t.span_bound):
        raise ValueError(f"extension offset {h} outside [1, {t.span_bound}]")
    if h in t.offsets:
        raise ValueError(f"{h} is already an offset of {t}")
    return OffsetTuple(t.offsets + (h,), t.span_bound)


def extended_omega_size(t: OffsetTuple, h: int, p: int) -> int:
    """Covered-class count of the tuple extended by h, from the base tuple.

    Independent route used to cross-check the directly-extended tuple: the
    count grows by one exactly when -h mod p is not already covered.
    """
    residues = {(-g) % p for g in t.offsets}
    grown = 0 if (-h) % p in residues else 1
    return len(residues) + grown


def unrank_combination(span_bound: int, k: int, index: int) -> tuple[int, ...]:
    """The index-th k-subset of [1, span_bound] in lexicographic order.

    below = C(span_bound - c, m) counts the subsets that put c in the current
    slot with m slots after it.  It moves by exact integer ratios, C(n-1, m) =
    C(n, m)(n-m)/n to the next c and C(n-1, m-1) = C(n, m)m/n to the next
    slot, so a call forms one binomial instead of one per step.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = math.comb(span_bound, k)
    if not (0 <= index < total):
        raise ValueError(f"index {index} outside [0, C({span_bound},{k}))")
    out = []
    c, m = 1, k - 1
    below = total * k // span_bound
    while True:
        n = span_bound - c
        if index < below:
            out.append(c)
            if not m:
                return tuple(out)
            below = below * m // n
            m -= 1
        else:
            index -= below
            below = below * (n - m) // n
        c += 1


def enumeration_size(span_bound: int, k: int, stride: int = 1, phase: int = 0) -> int:
    """How many k-subsets of [1, span_bound] the stride sample at phase
    holds; BudgetError above ENUMERATION_BUDGET.  All four are taken as
    exact integers by operator.index.

    C(n, m) >= 2^m for m <= n/2, so a count far over budget is refused
    before the binomial is formed; any other is counted exactly.
    """
    span_bound, k, stride, phase = map(operator.index, (span_bound, k, stride, phase))
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > span_bound:
        raise ValueError(f"k={k} exceeds span bound {span_bound}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    m = min(k, span_bound - k)
    if m > (ENUMERATION_BUDGET * stride).bit_length():
        size = f">= 2^{m}/{stride}"
    else:
        total = math.comb(span_bound, k)
        sample = -((phase % stride - total) // stride)  # len(range(phase % stride, total, stride))
        if sample <= ENUMERATION_BUDGET:
            return sample
        size = f"= {sample}"
    raise BudgetError(f"C({span_bound},{k})/{stride} {size} exceeds budget {ENUMERATION_BUDGET}; "
                      "enable stride sampling")


def enumerate_tuples(
    span_bound: int,
    k: int,
    admissible_only: bool = False,
    stride: int = 1,
    phase: int = 0,
) -> Iterator[OffsetTuple]:
    """All k-subsets of [1, span_bound] in lexicographic order.

    stride > 1 keeps every stride-th subset (offset by phase) *before* the
    admissibility filter, so a sample is a deterministic, unbiased slice of
    the full enumeration.  Sampled subsets are unranked directly; the cost
    scales with the sample, not the full binomial count.  The sample is
    checked against enumeration_size's budget here, before anything is
    yielded.
    """
    enumeration_size(span_bound, k, stride, phase)
    span_bound, phase = operator.index(span_bound), phase % stride
    if stride == 1:
        source = combinations(range(1, span_bound + 1), k)
    else:
        source = (unrank_combination(span_bound, k, i)
                  for i in range(phase, math.comb(span_bound, k), stride))
    # each subset is already strictly increasing inside [1, span_bound]
    tuples = (OffsetTuple._checked(offs, span_bound) for offs in source)
    return (t for t in tuples if is_admissible(t)) if admissible_only else tuples
