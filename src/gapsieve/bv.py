"""Empirical probe of the level-of-distribution hypothesis.

For moduli q up to x^theta and a geometric grid of dyadic points y, measure

    dev(q) = max over grid y, max over coprime a of |theta*(y; a, q) - y/phi(q)|

where theta*(y; a, q) sums log p over primes p in (y, 2y] with p = a (mod q),
and report the per-q worst rows plus their total.  One shared prime pass per
grid point feeds every modulus: the primes of (y, 2y] are sieved once, block
by block, into the narrowest unsigned dtype that holds 2y and every carrier
below, and bucketed by residue; no flag array or log array spans the window.
The primes are odd, so a q = 2m with odd m >= 3 is not bucketed: its classes
that hold primes are the odd lifts of those mod m, with the same sums and
phi(q) = phi(m).  The classes that share a prime with q are struck by one
strided slice per such prime.  phi(q) and the primes of every q come from one
sieve over [0, q_max] per probe, and the carrier plan from one packing, which
every grid point reads.

Every deviation is read from sequential float sums: a class's logs added
one at a time in prime order, the sum one np.bincount over the whole window
gives, so the bytes depend neither on the blocking nor on the plan.  The
residues go into carriers: a carrier M holds the class sums mod M of one
residue pass, and each bucketed q that divides it folds them, class a mod q
taking the sum over j of M's classes a + jq.  A pass takes p - M*(p // M)
by one scalar floor-divide per block of PRIME_BLOCK primes; carriers of up
to GROUP_SLOTS class sums in all run over each block while it is in cache,
with the block's logs formed once per group, and np.add.at adds them in
index order.  A q that is its own carrier has its sequential sums; a folded
one has others, within a bound E of them (_fold_error), so only its classes
within 2E of the folded maximum can hold the sequential one, and those are
summed again in prime order (_sequential_sums) before the maximum, its ties
and the odd lifts are read.  A window (y, 2y] with y below CARRIER_CUT runs
each modulus as its own carrier.

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
from .primes import MAX_WINDOW_LENGTH, primes_in
from .serialize import Report

MODULUS_BUDGET = 100_000
# primes per block of a grid point's class sums: a block's primes, logs and
# residues stay in cache while each modulus of a group runs over it
PRIME_BLOCK = 1 << 15
# class sums carried over the blocks together, half a megabyte of them
GROUP_SLOTS = 1 << 16
# a carrier that holds several moduli has at most this many classes
CARRIER_LIMIT = 8192
# a modulus below this is its own carrier: summing a class of it again would
# read more flags than one more residue pass costs
RIDER_MIN = 16
# a window (y, 2y] of y below this runs each modulus as its own carrier:
# there the fold and the recompute cost more than the shared passes save.
# On the grids of x = 1e5, 1e6, 1e7 at theta = 9/20 (2-core x86_64, one
# process), sharing is slower at y = 125,000 and faster from 156,250, and
# the 31 points below the cut take 0.28 s on their own carriers against
# 0.46 s shared (medians of 10 alternating pairs, all 10 lower)
CARRIER_CUT = 1 << 17
# odd numbers flagged at a time when class sums are recomputed
RECOMPUTE_FLAGS = 1 << 19
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


def _carrier_plan(q_max: int) -> list[tuple[int, tuple[int, ...]]]:
    """The bucketed moduli q <= q_max (q = 2, or q != 2 mod 4), each once, as
    (carrier M, its moduli, descending), every q dividing its M.  A q outside
    [RIDER_MIN, CARRIER_LIMIT] is its own carrier; the rest are packed
    largest first: the largest q left takes the multiple M <= CARRIER_LIMIT
    with the most divisors left (the least such M), and those divisors ride
    on it.  The packing costs O(L log L) for the divisor counts and a walk
    of sqrt(M) per carrier, with L = CARRIER_LIMIT, whatever q_max is."""
    moduli = [q for q in range(2, q_max + 1) if q % 4 != 2 or q == 2]
    plan = [(q, (q,)) for q in reversed(moduli) if not RIDER_MIN <= q <= CARRIER_LIMIT]
    small = [q for q in moduli if RIDER_MIN <= q <= CARRIER_LIMIT]
    left = np.zeros(CARRIER_LIMIT + 1, dtype=bool)
    left[small] = True
    # count[m]: the moduli left that divide m
    count = np.zeros(CARRIER_LIMIT + 1, dtype=np.int64)
    for d in small:
        count[d::d] += 1
    for q in reversed(small):
        if not left[q]:
            continue
        M = q * (1 + int(np.argmax(count[q::q])))
        # q is the largest modulus left, so no divisor above it is left
        pairs = ((e, M // e) for e in range(1, math.isqrt(M) + 1) if M % e == 0)
        riders = sorted({d for pair in pairs for d in pair if left[d]}, reverse=True)
        left[riders] = False
        for d in riders:
            count[d::d] -= 1
        plan.append((M, tuple(riders)))
    return plan


def _class_sums(ps: np.ndarray, moduli: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(q, class sums) for each q of moduli in turn: entry a sums the logs of
    the p = a (mod q) of the primes ps in the order of ps, the sum
    np.bincount(ps % q, weights=np.log(ps)) gives.  ps is unsigned, and its
    dtype holds every q.  The moduli run in groups of at most GROUP_SLOTS
    class sums (one modulus at least), and a group's sums are let go before
    the next group's are allocated, so one group is alive at a time."""
    m = min(PRIME_BLOCK, len(ps))
    quot, res, logs = np.empty(m, dtype=ps.dtype), np.empty(m, dtype=np.intp), np.empty(m)
    end = 0
    while end < len(moduli):
        start, slots = end, 0
        while end < len(moduli) and (end == start or slots + moduli[end] <= GROUP_SLOTS):
            slots += moduli[end]
            end += 1
        group = moduli[start:end]
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
        sums = cls = None  # cls holds the last of them: both go before the next group's sums come


def _fold_error(n: int, k: int, top: float, c: float) -> float:
    """A bound on |folded - sequential| for every class deviation of a modulus
    whose class sums are folded from a carrier k times its size, over a window
    of n primes, where top bounds the folded deviations and c = y / phi(q).

    With u = 2^-53 and all logs positive, the carrier's and the modulus's
    sequential sums are each within gamma_n of the exact sum T of the class
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4), the fold
    of k carrier sums adds gamma_k, and subtracting c rounds once more on
    either side; T <= top + c up to those errors.  That comes to about
    (2n + k + 3) u (top + c) while (2n + k) u stays tiny, as below the sieve
    bound it does; the factor 2 covers the rounding of this bound and of the
    threshold top - 2E drawn with it."""
    return 2 * (2 * n + k + 3) * 2.0**-53 * (top + c)


def _sequential_sums(ps: np.ndarray, wanted: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
    """For each (q, classes) of wanted, q >= 2 and each class prime to q, the
    sums of log p over the p = a (mod q) of ps for a in classes, as
    _class_sums adds them: one prime at a time, in the order of ps.  ps is
    odd and ascending.  Its odd numbers from ps[0] to ps[-1] are flagged
    RECOMPUTE_FLAGS at a time; a class's odd numbers step by lcm(2, q), so it
    reads a chunk's flags by one strided slice, and np.cumsum, which adds in
    order, carries its sum from chunk to chunk."""
    sums = [np.zeros(len(classes)) for _, classes in wanted]
    if not wanted:
        return sums
    # each class's least odd member and its step in odd flags
    walks = [
        (out, i, a if a % 2 else a + q, math.lcm(2, q) // 2)
        for (q, classes), out in zip(wanted, sums)
        for i, a in enumerate(classes.tolist())
    ]
    first, last = int(ps[0]), int(ps[-1])
    flags = np.zeros(RECOMPUTE_FLAGS, dtype=bool)
    start = 0
    for base in range(first, last + 1, 2 * RECOMPUTE_FLAGS):
        top = base + 2 * RECOMPUTE_FLAGS
        stop = len(ps) if top > last else int(np.searchsorted(ps, ps.dtype.type(top)))
        flags[:] = False
        flags[(ps[start:stop] - base) >> 1] = True
        start = stop
        for out, i, r, h in walks:
            j = (r - base) // 2 % h
            (hits,) = flags[j::h].nonzero()
            if len(hits):
                # the primes, exact as doubles, then their logs, in place
                logs = np.multiply(hits, 2 * h, dtype=np.float64)
                logs += base + 2 * j
                np.log(logs, out=logs)
                logs[0] += out[i]
                out[i] = np.cumsum(logs, out=logs)[-1]
    return sums


def _grid_point_devs(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-q (deviation, worst a) for one grid point y >= 2, all q < len(phi)
    at once; divisors[q] lists the primes of q, and plan is the probe's
    carrier plan."""
    y, phi, divisors, plan = args
    q_max = len(phi) - 1
    if y < CARRIER_CUT:
        plan = [(q, (q,)) for _, qs in plan for q in qs]  # each modulus its own carrier
    # the primes are sieved block by block straight into the narrowest
    # unsigned type holding every p and carrier, and each pass forms its
    # block's logs, so neither int64 primes nor the window's logs are held
    ps = primes_in(y + 1, 2 * y + 1, dtype=np.min_scalar_type(max([2 * y, *(M for M, _ in plan)])))
    logs = (memoryview(np.log(ps[s : s + PRIME_BLOCK], dtype=np.float64)) for s in range(0, len(ps), PRIME_BLOCK))
    total = math.fsum(chain.from_iterable(logs))

    devs = np.zeros(q_max + 1)
    best_a = np.zeros(q_max + 1, dtype=np.int64)
    devs[1] = abs(total - y)  # q = 1: single class, exactly the fsum total

    def settle(q: int, classes: np.ndarray, cls: np.ndarray) -> None:
        # cls: the deviations of the ascending classes, which hold every
        # class at the maximum; the primes are odd, so for odd q >= 3 the
        # classes mod 2q that hold primes are the odd lifts of those mod q,
        # with phi(2q) = phi(q), and the first at the maximum is the least
        # odd lift
        i = int(np.argmax(cls))
        devs[q], best_a[q] = cls[i], classes[i]
        if q % 2 and 2 * q <= q_max:
            ties = classes[cls == cls[i]]
            devs[2 * q] = cls[i]
            best_a[2 * q] = np.where(ties % 2, ties, ties + q).min()

    folded = []  # (q, y / phi(q), the classes near the folded maximum)
    for (M, qs), (_, sums) in zip(plan, _class_sums(ps, [M for M, _ in plan])):
        for q in qs:
            c = y / phi[q]
            # a carrier of its own holds the sequential sums; others fold
            cls = np.abs((sums if M == q else sums.reshape(M // q, q).sum(axis=0)) - c)
            for r in divisors[q]:
                cls[::r] = -1.0  # only coprime classes compete
            if M == q:
                settle(q, np.arange(q), cls)
            else:
                # every class at the sequential maximum folds to within 2E of
                # the folded one; a struck class never comes within it
                top = cls.max()
                near = cls >= max(top - 2 * _fold_error(len(ps), M // q, top, c), 0.0)
                folded.append((q, c, np.flatnonzero(near)))
    for (q, c, near), sums in zip(folded, _sequential_sums(ps, [(q, near) for q, _, near in folded])):
        settle(q, near, np.abs(sums - c))
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
    if x > MAX_WINDOW_LENGTH:
        # the cap bounds the probe's work, the top grid point's primes of
        # (x, 2x] and the residue passes over them: refuse before any runs
        raise SieveRangeError(f"x = {x} exceeds the largest x the probe sieves, {MAX_WINDOW_LENGTH}")

    phi, divisors = _modulus_sieve(q_max)
    plan = _carrier_plan(q_max)
    per_y = ordered_map(_grid_point_devs, [(y, phi, divisors, plan) for y in ys], workers)
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
