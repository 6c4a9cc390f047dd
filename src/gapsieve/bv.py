"""Empirical probe of the level-of-distribution hypothesis.

For moduli q up to x^theta and a geometric grid of dyadic points y, measure

    dev(q) = max over grid y, max over coprime a of |theta*(y; a, q) - y/phi(q)|

where theta*(y; a, q) sums log p over primes p in (y, 2y] with p = a (mod q),
and report the per-q worst rows plus their total.  One shared prime pass per
grid point feeds every modulus: the primes of (y, 2y] are sieved once, block
by block, into the narrowest unsigned dtype that holds 2y and every q, and
bucketed per q by residue; no flag array or log array spans the window.  The
residues p - q*(p // q) take one scalar floor-divide per q and block of
PRIME_BLOCK primes; a group of MODULUS_GROUP moduli runs over each block
while it is in cache, with the block's logs formed once per group, and
np.add.at adds them into the group's class sums in index order.  So each
class sum is a sequential float sum in prime order, the sum of one
np.bincount over the whole window, and the bytes do not depend on the
blocking.  The primes are odd, so a q = 2m with odd m >= 3 is not bucketed:
its classes that hold primes are the odd lifts of those mod m, with the same
sums and phi(q) = phi(m).  The classes that share a prime with q are struck
by one strided slice per such prime.  phi(q) and the primes of every q come
from one sieve over [0, q_max] per probe, which every grid point reads.

The exact maximum over all y <= x is infeasible and the dyadic sums change
slowly, so the grid {x, x/2, x/4, ...} (integer halving, down to y_min)
stands in for it; the grid is part of the output so runs are reproducible.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import ClassVar

import numpy as np

from .errors import BudgetError, SieveRangeError, TrendError
from .moments import _as_fraction
from .parallel import ordered_map
from .primes import MAX_MATERIALIZED_FLAGS, primes_in
from .serialize import Report

MODULUS_BUDGET = 100_000
# primes per block of a grid point's class sums: a block's primes, logs and
# residues stay in cache while each modulus of a group runs over it
PRIME_BLOCK = 1 << 15
# moduli whose class sums are carried over the blocks together
MODULUS_GROUP = 64
# the exact floor of x^theta compares q^den with x^num, whose size grows with
# theta's denominator: at this one and q near MODULUS_BUDGET, about 10 ms
MAX_THETA_DENOMINATOR = 10_000


@dataclass(frozen=True)
class GridSpec:
    """Geometric y-grid: x, x//factor, x//factor^2, ..., down to y_min."""

    factor: int = 2
    y_min: int = 100

    def __post_init__(self) -> None:
        for name in ("factor", "y_min"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))

    def points(self, x: int) -> list[int]:
        if self.factor < 2:
            raise ValueError("grid factor must be >= 2")
        if self.y_min < 2:
            raise ValueError("y_min must be >= 2")
        ys = []
        y = x
        while y >= self.y_min:
            ys.append(y)
            y //= self.factor
        return ys


def rational_power_floor(x: int, theta: Fraction) -> int:
    """floor(x^theta) for rational theta in (0, 1), exact integer arithmetic.

    A float seed, then exact steps of one: the seed is within a step or two
    while x^theta stays far below 2^52, and each step forms q^den.
    """
    num, den = theta.numerator, theta.denominator
    target = x**num
    q = round(math.exp(math.log(x) * num / den))  # math.log takes any int x
    while q > 1 and q**den > target:
        q -= 1
    while (q + 1) ** den <= target:
        q += 1
    return q


def _modulus_sieve(q_max: int) -> tuple[np.ndarray, list[list[int]]]:
    """Euler phi (int64) and the ascending primes of each q in 0..q_max, from
    one sieve: each prime p visits its multiples once, joins their lists and
    takes phi <- phi - phi // p.  Rows 0 and 1 are (0, []) and (1, [])."""
    phi = np.arange(q_max + 1, dtype=np.int64)
    divisors: list[list[int]] = [[] for _ in range(q_max + 1)]
    for p in range(2, q_max + 1):
        if not divisors[p]:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
            for m in range(p, q_max + 1, p):
                divisors[m].append(p)
    return phi, divisors


@dataclass(frozen=True)
class DeviationRow:
    q: int
    worst_a: int
    worst_y: int
    deviation: float


@dataclass(frozen=True)
class BvDeviationTable(Report):
    kind: ClassVar[str] = "bv"
    x: int
    theta: Fraction
    y_grid: tuple[int, ...]
    rows: tuple[DeviationRow, ...]
    total: float


def _class_sums(ps: np.ndarray, moduli: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(q, class sums) for each q of moduli in turn: entry a sums the logs of
    the p = a (mod q) of the primes ps in the order of ps, the sum
    np.bincount(ps % q, weights=np.log(ps)) gives.  ps is unsigned, and its
    dtype holds every q."""
    m = min(PRIME_BLOCK, len(ps))
    quot, res, logs = np.empty(m, dtype=ps.dtype), np.empty(m, dtype=np.intp), np.empty(m)
    for g in range(0, len(moduli), MODULUS_GROUP):
        group = moduli[g : g + MODULUS_GROUP]
        sums = [np.zeros(q) for q in group]
        for s in range(0, len(ps), PRIME_BLOCK):
            # a block's logs once per group; per q, p mod q = p - q * (p // q)
            # by one scalar floor-divide, and np.add.at, which adds in index order
            block = ps[s : s + PRIME_BLOCK]
            m = len(block)
            qb, rb, lb = quot[:m], res[:m], logs[:m]
            np.log(block, out=lb, dtype=np.float64)
            for q, cls in zip(group, sums):
                np.floor_divide(block, q, out=qb)
                np.multiply(qb, q, out=qb)
                np.subtract(block, qb, out=rb)
                np.add.at(cls, rb, lb)
        yield from zip(group, sums)


def _grid_point_devs(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-q (deviation, worst a) for one grid point y >= 2, all q < len(phi)
    at once; divisors[q] lists the primes of q."""
    y, phi, divisors = args
    q_max = len(phi) - 1
    # the primes are sieved block by block straight into the narrowest
    # unsigned type holding every p and q, and each pass forms its block's
    # logs, so neither int64 primes nor the window's logs are held
    ps = primes_in(y + 1, 2 * y + 1, dtype=np.min_scalar_type(max(2 * y, q_max)))
    logs = (memoryview(np.log(ps[s : s + PRIME_BLOCK], dtype=np.float64)) for s in range(0, len(ps), PRIME_BLOCK))
    total = math.fsum(chain.from_iterable(logs))

    devs = np.zeros(q_max + 1)
    best_a = np.zeros(q_max + 1, dtype=np.int64)
    devs[1] = abs(total - y)  # q = 1: single class, exactly the fsum total
    # the primes are odd, so for odd q >= 3 the classes mod 2q that hold
    # primes are the odd lifts of those mod q, with phi(2q) = phi(q)
    qs = [q for q in range(2, q_max + 1) if q % 4 != 2 or q == 2]
    for q, cls in _class_sums(ps, qs):
        cls -= y / phi[q]
        np.abs(cls, out=cls)
        for r in divisors[q]:
            cls[::r] = -1.0  # only coprime classes compete
        a = int(np.argmax(cls))
        devs[q] = cls[a]
        best_a[q] = a
        if q % 2 and 2 * q <= q_max:  # q = 1 is not in qs
            # the first class mod 2q at the maximum: the least odd lift
            ties = np.flatnonzero(cls == cls[a])
            devs[2 * q] = cls[a]
            best_a[2 * q] = np.where(ties % 2, ties, ties + q).min()
    return devs, best_a


def bv_deviation(
    x: int,
    theta: Fraction | str | int,
    grid: GridSpec = GridSpec(),
    workers: int | None = None,
) -> BvDeviationTable:
    """Worst progression deviations for all moduli q <= floor(x^theta)."""
    x = operator.index(x)
    if x < 10**3:
        raise ValueError(f"need x >= 1000, got {x}")
    th = _as_fraction(theta, "theta")
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0, 1), got {th}")
    if th.denominator > MAX_THETA_DENOMINATOR:
        raise ValueError(f"theta = {th}: denominator above {MAX_THETA_DENOMINATOR}")
    ys = grid.points(x)
    if len(ys) < 4:
        raise ValueError(f"grid has {len(ys)} points, need >= 4; lower y_min")
    log_q = float(th) * math.log(x)
    if log_q > math.log(2 * MODULUS_BUDGET):
        # refused by the estimate, before a far-off seed forms any power
        raise BudgetError(f"x^theta = e^{log_q:.6g} exceeds modulus budget {MODULUS_BUDGET}")
    q_max = rational_power_floor(x, th)
    if q_max > MODULUS_BUDGET:
        raise BudgetError(f"x^theta = {q_max} exceeds modulus budget {MODULUS_BUDGET}")
    if x > MAX_MATERIALIZED_FLAGS:
        # the cap bounds the probe's work, the top grid point's primes of
        # (x, 2x] and the residue passes over them: refuse before any runs
        raise SieveRangeError(f"x = {x} exceeds the largest x the probe sieves, {MAX_MATERIALIZED_FLAGS}")

    phi, divisors = _modulus_sieve(q_max)
    per_y = ordered_map(_grid_point_devs, [(y, phi, divisors) for y in ys], workers)
    devs = np.stack([d for d, _ in per_y])
    best_a = np.stack([a for _, a in per_y])
    # the first grid point (largest y first) that reaches each q's maximum
    at = np.argmax(devs, axis=0)
    rows = tuple(
        DeviationRow(q, int(best_a[at[q], q]), ys[at[q]], float(devs[at[q], q])) for q in range(1, q_max + 1)
    )
    total = math.fsum(r.deviation for r in rows)
    return BvDeviationTable(x, th, tuple(ys), rows, total)


@dataclass(frozen=True)
class ThetaSupportReport(Report):
    kind: ClassVar[str] = "theta_support"
    A: float
    groups: tuple[dict, ...]


# interpretive labels only: what a sustained level would yield, not a verdict
_MILESTONES = (
    (Fraction(1, 2), "level above 1/2 would force infinitely many bounded gaps p_{n+1} - p_n <= c(theta)"),
    (Fraction(20, 21), "level above 20/21 would force two primes in admissible 7-tuples, so gaps <= 20 infinitely often"),
)


def supported_theta(tables: list[BvDeviationTable], A: float) -> ThetaSupportReport:
    """For each theta present, check total <= x/(log x)^A at every x.

    Needs at least two tables per theta at strictly increasing x -- a single
    point cannot exhibit the required decay.
    """
    if not 0 < A < math.inf:  # a NaN or infinite A would not serialise
        raise ValueError(f"need finite A > 0, got {A}")
    by_theta: dict[Fraction, list[BvDeviationTable]] = {}
    for t in tables:
        by_theta.setdefault(t.theta, []).append(t)
    groups = []
    for th in sorted(by_theta):
        group = by_theta[th]
        xs = [t.x for t in group]
        if len(group) < 2:
            raise TrendError(f"theta={th}: need >= 2 tables at increasing x, got {len(group)}")
        if sorted(xs) != xs or len(set(xs)) != len(xs):
            raise TrendError(f"theta={th}: x values must be strictly increasing, got {xs}")
        runs = []
        for t in group:
            bound = t.x / math.log(t.x) ** A
            runs.append({"x": t.x, "total": t.total, "bound": bound, "holds": t.total <= bound})
        milestones = [label for cut, label in _MILESTONES if th > cut]
        groups.append(
            {
                "theta": str(th),
                "runs": runs,
                "all_hold": all(r["holds"] for r in runs),
                "ratio_decreasing": all(
                    group[i].total / group[i].x > group[i + 1].total / group[i + 1].x
                    for i in range(len(group) - 1)
                ),
                "milestones": milestones,
            }
        )
    return ThetaSupportReport(A, tuple(groups))
