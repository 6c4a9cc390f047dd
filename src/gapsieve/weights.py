"""Truncated Mobius-weighted divisor sums over blocks of n.

The per-divisor weight is mu(d) * (log(R/d))^a / a! for squarefree d <= R and
0 beyond R.  The per-n sum runs over squarefree d <= R dividing
(n+h_1)...(n+h_k).

  * lambda_block: walk the divisor table in ascending-d order and
    Kahan-accumulate each weight into every n it divides.  Every divisor
    below 59 is a product of the first 16 primes (2..53), so whether it
    divides (n+h_1)...(n+h_k) depends only on n's signature: the bitmask of
    those primes p with n mod p a covered class.  The Kahan state (value,
    compensation) after all divisors below 59 is therefore computed once per
    signature -- at most 2^16 of them -- by the same elementwise steps on a
    (2,)*m view, and each n looks its state up.  Signatures are periodic:
    the table holds one uint16 pattern per run of consecutive signature
    primes whose product stays within 2^15 (2..13, 17..23, 29..31, 37..41,
    43..47, 53), and a block's signatures are those patterns tiled from the
    block's phase (primes._tile_periodic) and ORed.  Divisors from 59 on (the
    tail; empty when R < 59) continue with vectorized strided updates over
    their covered residue classes.  Each n thus receives exactly its
    divisors, in ascending-d order, compensated -- so block values are
    bit-identical however the surrounding range is partitioned.

  * _weight_value: the one weight evaluation.  The tests' brute-force oracle
    (tests/oracles.py) shares it, so any disagreement isolates the
    divisor-finding logic rather than float noise.

divisor_table is the package's one source of the squarefree d <= R: each
entry carries its primes and covered classes, and the moment sums reuse it
rather than factoring again.  The table also holds its signature patterns,
built with it, and each weight exponent's signature state, built on first
use.  The TABLE_MEMO tables used last are kept in a per-process memo, keyed
by (tuple, R), so a repeated (tuple, R, a) builds neither the table nor its
signature state; forked workers inherit the memo, and any other worker
builds a table once per (tuple, R).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, RegimeError
from .primes import _tile_periodic, base_primes
from .tuples import OffsetTuple, omega_residues

# largest truncation level a divisor table will be built for
R_BUDGET = 200_000
# largest block materialized at once
BLOCK_BUDGET = 1 << 24
# the 17th prime: every squarefree d below it is a product of the first 16
# primes, the signature primes, so signatures fit in uint16
SIGNATURE_LIMIT = 59
# largest period of one signature pattern (30030 = 2*3*5*7*11*13 fits)
TILE_LIMIT = 1 << 15
# divisor tables kept for reuse; a twin table at R = R_BUDGET holds about 64 MiB
TABLE_MEMO = 4


@dataclass(frozen=True)
class WeightParams:
    """Truncation level R and log-power a (= k + l in every downstream use)."""

    R: float
    a: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R >= 1):
            raise ValueError(f"need finite R >= 1, got {self.R}")
        if self.a < 1:
            raise ValueError(f"need a >= 1, got {self.a}; a = 0 has no use here")
        try:
            # the largest weight, at d = 1; a! passes the float range from a = 171 on
            _weight_value(1, 1, self.R, min(self.a, 171))
        except OverflowError:
            raise ValueError(f"a = {self.a} at R = {self.R}: (log R)^a / a! leaves the float range") from None


def _weight_value(mu: int, d: int, R: float, a: int) -> float:
    # shared by both routes: identical floats by construction
    return mu * math.log(R / d) ** a / math.factorial(a)


def _kahan_add(values: np.ndarray, comp: np.ndarray, at, w: float) -> None:
    """One Kahan step adding w to values[at], elementwise, with comp[at] as
    the running compensation.  The signature state and the tail passes both
    take this step, so every n gets the same IEEE operations either way."""
    v = values[at]
    y = w - comp[at]
    s = v + y
    comp[at] = (s - v) - y
    values[at] = s


def _crt_merge(d: int, residues: tuple[int, ...], p: int, p_residues: tuple[int, ...]) -> tuple[int, ...]:
    """Residues mod d*p hitting `residues` mod d and `p_residues` mod p."""
    inv = pow(d, -1, p)
    out = []
    for r in residues:
        for s in p_residues:
            t = ((s - r) * inv) % p
            out.append(r + d * t)
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class DivisorEntry:
    d: int
    mu: int
    residues: tuple[int, ...]
    primes: tuple[int, ...]  # ascending; their product is d


class DivisorTable(tuple):
    """divisor_table's entries in ascending d, split at SIGNATURE_LIMIT.

    The entries below the limit are summed once per signature (bit i set
    when n mod p_i is a covered class of the i-th prime); `tail` holds the
    entries from the limit on, which are summed per n.  The signature
    patterns are built here, once per table.
    """

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        cut = bisect.bisect_left(self, SIGNATURE_LIMIT, key=lambda e: e.d)
        self._prefix = self[:cut]
        self.tail = self[cut:]
        # a prime's own entry covers exactly its classes Omega(p)
        self._signature_primes = tuple((e.d, e.residues) for e in self._prefix if len(e.primes) == 1)
        self._tiles = _signature_tiles(self._signature_primes)
        self._states: dict[WeightParams, tuple[np.ndarray, np.ndarray]] = {}
        return self

    @property
    def signature_count(self) -> int:
        """How many signatures there are: 2^(number of signature primes)."""
        return 1 << len(self._signature_primes)

    def signatures(self, lo: int, hi: int) -> np.ndarray:
        """Signature of every n in [lo, hi), as uint16: every pattern ORed
        in, tiled from phase lo."""
        sig = np.zeros(hi - lo, dtype=np.uint16)
        for pattern in self._tiles:
            _tile_periodic(pattern, lo, sig, np.bitwise_or)
        return sig

    def prefix_state(self, params: WeightParams) -> tuple[np.ndarray, np.ndarray]:
        """Kahan (value, compensation) per signature after every entry below
        SIGNATURE_LIMIT, built on first use for each params (read-only)."""
        if params not in self._states:
            m = len(self._signature_primes)
            values = np.zeros(self.signature_count)
            comp = np.zeros(self.signature_count)
            # C order: the prime of bit i is axis m - 1 - i
            axis = {p: m - 1 - i for i, (p, _) in enumerate(self._signature_primes)}
            cube_v = values.reshape((2,) * m)
            cube_c = comp.reshape((2,) * m)
            for entry in self._prefix:
                w = _weight_value(entry.mu, entry.d, params.R, params.a)
                idx = [slice(None)] * m
                for p in entry.primes:
                    idx[axis[p]] = 1
                _kahan_add(cube_v, cube_c, tuple(idx), w)
            values.setflags(write=False)
            comp.setflags(write=False)
            self._states[params] = (values, comp)
        return self._states[params]


def _signature_tiles(signature_primes) -> tuple[np.ndarray, ...]:
    """One read-only uint16 pattern per run of consecutive signature primes
    whose product stays within TILE_LIMIT; the run's product is the pattern's
    period, and pattern[x] has bit i set when x mod p_i is a covered class
    of the i-th prime."""
    runs: list[list] = []
    for i, (p, residues) in enumerate(signature_primes):
        if not runs or runs[-1][0] * p > TILE_LIMIT:
            runs.append([1, []])
        runs[-1][0] *= p
        runs[-1][1].append((i, p, residues))
    tiles = []
    for period, members in runs:
        pattern = np.zeros(period, dtype=np.uint16)
        for i, p, residues in members:
            for r in residues:
                pattern[r::p] |= np.uint16(1 << i)
        pattern.setflags(write=False)
        tiles.append(pattern)
    return tuple(tiles)


def divisor_table(t: OffsetTuple, R: float) -> DivisorTable:
    """Every squarefree d <= R with its primes and covered residue classes,
    ascending d.  The same (t, R) returns the same table, with its signature
    states, while it is among the TABLE_MEMO tables used last."""
    if R > R_BUDGET:
        raise BudgetError(f"R = {R} exceeds divisor-table budget {R_BUDGET}")
    return _build_table(t, R)


@functools.lru_cache(maxsize=TABLE_MEMO)
def _build_table(t: OffsetTuple, R: float) -> DivisorTable:
    primes = [int(p) for p in base_primes(int(R))]
    omegas = {p: omega_residues(t, p) for p in primes}
    entries = [DivisorEntry(1, 1, (0,), ())]

    def grow(start: int, d: int, residues: tuple[int, ...], mu: int, factors: tuple[int, ...]) -> None:
        for i in range(start, len(primes)):
            p = primes[i]
            nd = d * p
            if nd > R:
                break
            nres = _crt_merge(d, residues, p, omegas[p])
            nfactors = factors + (p,)
            entries.append(DivisorEntry(nd, -mu, nres, nfactors))
            grow(i + 1, nd, nres, -mu, nfactors)

    grow(0, 1, (0,), 1, ())
    entries.sort(key=lambda e: e.d)
    assert all(e.d <= R for e in entries)
    return DivisorTable(entries)


@dataclass(frozen=True)
class WeightBlock:
    """Divisor-sum values for every n in [lo, hi); immutable."""

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


def lambda_block(
    t: OffsetTuple,
    params: WeightParams,
    lo: int,
    hi: int,
    force: bool = False,
) -> WeightBlock:
    """Divisor sums for all n in [lo, hi): each n's signature state, then the
    table's tail by residue-class accumulation.

    Requires R < lo (the regime every downstream identity assumes) unless
    force is set for exploratory evaluation at small n.
    """
    if lo >= hi:
        raise ValueError(f"empty block [{lo}, {hi})")
    if hi - lo > BLOCK_BUDGET:
        raise BudgetError(f"block of {hi - lo} exceeds budget {BLOCK_BUDGET}")
    if params.R >= lo and not force:
        raise RegimeError(f"R = {params.R} >= block start {lo}; pass force=True to evaluate anyway")
    table = divisor_table(t, params.R)
    prefix_values, prefix_comp = table.prefix_state(params)
    sig = table.signatures(lo, hi)
    values = prefix_values[sig]
    if table.tail:
        comp = prefix_comp[sig]
        for entry in table.tail:
            w = _weight_value(entry.mu, entry.d, params.R, params.a)
            d = entry.d
            for r in entry.residues:
                _kahan_add(values, comp, slice((r - lo) % d, None, d), w)
    return WeightBlock(lo, hi, values)
