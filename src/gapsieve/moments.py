"""Moment sums of the truncated divisor weights, their predicted main terms,
and the two-primes-in-a-window detector.

Three empirical sums are paired with exact-rational prefactor algebra:

  * pure:      sum over N < n <= 2N of  W(n)^2
  * twisted:   sum over N < n <= 2N of  varpi(n+h) * W(n)^2
  * detector:  sum over tuples, n of (sum_h varpi(n+h) - log 3N) * W(n)^2

with W(n) the block weight at exponent a = k + l.  The three sums share one
chunk pipeline that builds a tuple's divisor table and its signature state
once, in the calling process, before any pool starts, and folds each chunk's
result as it arrives, in chunk order.  A task carries no table: chunks read
it from divisor_table's per-process memo, which forked workers inherit.  The
exact-count double sum (small R) walks the ordered pairs of that same table
itself and counts each distinct lcm once.

When R < 59, W(n) depends only on n's small-prime signature (see weights),
so a chunk returns exact integers per signature s instead of a rounded sum:
the count C_s of its n with signature s, and the integer log parts
(primes.log_parts) of the primes those n see, summed in int64.  The driver
adds them in int64 and rounds once per run, with one math.fsum over the
signatures that occur:

  pure:      sum_s C_s V_s^2                    (bit for bit the fsum over n)
  twisted:   sum_s V_s^2 Lambda_s
  detector:  sum_s V_s^2 (Lambda_s - log 3N * C_s)

with V_s the signature state's value and Lambda_s the correctly rounded sum
of log p over the primes the signature's n see; so results do not depend on
CHUNK or the worker count at all.  From R = 59 on (a tail of divisors that
the signature does not decide), each chunk rounds its own partial, keyed by
single n, and the run adds the partials with one math.fsum.  Either way no
extended precision is needed.  A detector over several tuples adds the
per-tuple sums with one math.fsum too.  Every fsum reads its array through a
memoryview, which hands it one float at a time: no list of every term, and
faster than iterating the array itself.

Predicted main terms:

  pure:      S(H)   * C(2l, l)     / (k+2l)!  * N (log R)^(k+2l)
  twisted,
   h not in H: S(H+h) * C(2l, l)     / (k+2l)!  * N (log R)^(k+2l)
   h in H:     S(H)   * C(2l+2, l+1) / (k+2l+1)! * N (log R)^(k+2l+1)

The detector prediction multiplies the window/tuple bracket by the matching
prefactor.  With span < N one prime weighs less than log 3N and two weigh
more, so the per-n parenthesis is positive exactly when n sees two primes in
(n, n + span]: positives and their witnesses come from integer prime counts.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import BudgetError, RegimeError, SieveRangeError
from .parallel import block_spans, ordered_imap
from .primes import (SEGMENT_FLAGS, SUPPORTED_SIEVE_BOUND, LogSum, _repeated_fsum, log_parts,
                     log_sum, primes_in)
from .serialize import OUTSIDE_DOC, Report, _as_fraction
from .singular import DEFAULT_TOL, singular_series
from .tuples import OffsetTuple, extend, omega_residues
from .weights import WeightParams, _crt_merge, _weight_value, divisor_table, lambda_block

CHUNK = SEGMENT_FLAGS
# a detector chunk's per-key log-part sums stay below CHUNK * span * 2^31,
# inside int64, for span below this
MAX_DETECTOR_SPAN = (1 << 32) // CHUNK
MAX_WITNESSES = 1 << 16  # a detector's witnesses, at 0.3-0.4 KiB each: about 25 MiB
EXACT_COUNT_R_BUDGET = 500

# Regime constants: the asymptotic constraints carry unspecified constants.
# The paper's caps on R carry an unspecified power of log N, so only their
# power laws, N^(1/2) and N^(theta/2), are enforced, exactly; the others bound
# span <= SPAN_FACTOR * log N and log N <= SCALE_RATIO * log R.
SPAN_FACTOR = 10.0
SCALE_RATIO = 8.0


# ---------------------------------------------------------------------------
# parameters and regime checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveParams(Report):
    """One run configuration: scale N, truncation R, tuple size k, weight
    shift l, window length span_bound, and distribution level theta.

    The regime checks use the module's SPAN_FACTOR and SCALE_RATIO.
    """

    N: int
    R: float
    k: int
    l: int
    span_bound: int
    theta: Fraction = Fraction(1, 2)
    a: int = field(init=False)  # weight exponent used throughout: k + l

    def __post_init__(self) -> None:
        for name in ("N", "k", "l", "span_bound"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.N < 16:
            raise ValueError(f"need N >= 16, got {self.N}")
        if self.k < 1 or self.l < 1:
            raise ValueError(f"need k, l >= 1, got k={self.k}, l={self.l}")
        if self.span_bound < 1:
            raise ValueError("span_bound must be >= 1")
        object.__setattr__(self, "theta", _as_fraction(self.theta, "theta"))
        if not (0 < self.theta < 1):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        object.__setattr__(self, "a", self.k + self.l)
        WeightParams(self.R, self.a)  # the weights' own range check
        power = self.k + 2 * self.l + 1  # the main terms' largest power of log R
        try:
            self.log_r ** power
        except OverflowError:
            raise ValueError(f"(log R)^(k + 2l + 1) = {self.log_r}^{power} leaves the float range") from None

    @property
    def log_n(self) -> float:
        return math.log(self.N)

    @property
    def log_r(self) -> float:
        return math.log(self.R)

    def _common_violations(self) -> list[str]:
        out = []
        if self.span_bound > SPAN_FACTOR * self.log_n:
            out.append(
                f"span_bound {self.span_bound} > {SPAN_FACTOR} * log N = "
                f"{SPAN_FACTOR * self.log_n:.2f}"
            )
        if self.R > self.N:
            out.append(f"R {self.R} exceeds N {self.N}")
        if self.log_n > SCALE_RATIO * max(self.log_r, 1e-300):
            # R = 1 has log R = 0: the ratio is infinite, not a crash
            ratio = self.log_n / self.log_r if self.log_r > 0 else math.inf
            out.append(f"log N / log R = {ratio:.2f} > {SCALE_RATIO}")
        return out

    def pure_regime_violations(self) -> list[str]:
        out = self._common_violations()
        cap = math.sqrt(self.N)
        # 1e-12 slack: boundary configurations like R = N^(1/2) exactly must
        # not trip on the rounding of two routes to the same power
        if self.R > cap * (1 + 1e-12):
            out.append(f"R {self.R} > N^(1/2) = {cap:.4g}")
        return out

    def twisted_regime_violations(self) -> list[str]:
        out = self._common_violations()
        cap = self.N ** (float(self.theta) / 2.0)
        if self.R > cap * (1 + 1e-12):
            out.append(f"R {self.R} > N^(theta/2) = {cap:.4g} at theta = {self.theta}")
        return out


def _check_sieve_reach(params: SieveParams, reach: int) -> None:
    """Refuse up front a run whose last chunk sieves past the sieve's bound:
    the chunks of (N, 2N] sieve up to 2N + 1 + reach."""
    top = 2 * params.N + 1 + reach
    if top > SUPPORTED_SIEVE_BOUND:
        raise SieveRangeError(f"N = {params.N} sieves up to {top}, "
                              f"past the supported sieve bound {SUPPORTED_SIEVE_BOUND}")


def _enforce_regime(violations: list[str], force: bool) -> list[str]:
    if violations and not force:
        raise RegimeError("; ".join(violations) + " (pass force=True to run anyway)")
    return violations


# ---------------------------------------------------------------------------
# exact-rational prefactor algebra
# ---------------------------------------------------------------------------

def pure_main_prefactor(k: int, l: int) -> Fraction:
    """C(2l, l) / (k + 2l)! -- multiplies S(H) N (log R)^(k+2l)."""
    return Fraction(math.comb(2 * l, l), math.factorial(k + 2 * l))


def twisted_main_prefactor(k: int, l: int, member: bool) -> tuple[Fraction, int]:
    """(rational prefactor, log R power) of the twisted main term."""
    if member:
        return (
            Fraction(math.comb(2 * l + 2, l + 1), math.factorial(k + 2 * l + 1)),
            k + 2 * l + 1,
        )
    return pure_main_prefactor(k, l), k + 2 * l


def binomial_step_ratio(l: int) -> Fraction:
    """C(2l+2, l+1) / C(2l, l), which tends to 4."""
    return Fraction(math.comb(2 * l + 2, l + 1), math.comb(2 * l, l))


def detector_coefficient(k: int, l: int) -> Fraction:
    """k/(k+2l+1) * C(2l+2, l+1)/C(2l, l): the log R coefficient in the bracket."""
    return Fraction(k, k + 2 * l + 1) * binomial_step_ratio(l)


@dataclass(frozen=True)
class ThresholdReport(Report):
    """Exact-rational threshold algebra for a (k, l, theta, eps) choice."""

    kind: ClassVar[str] = "threshold"
    k: int
    l: int
    theta: Fraction
    eps: Fraction
    coefficient: Fraction        # k/(k+2l+1) * C(2l+2, l+1)/C(2l, l)
    theta_term: Fraction         # coefficient * theta / 2
    log_n_coefficient: Fraction  # 1 + eps - theta_term
    bracket_coefficient: Fraction  # theta_term - 1: detector bracket sign at R = N^(theta/2)


def threshold(k: int, l: int, theta, eps=0) -> ThresholdReport:
    """Window-length threshold coefficient, exactly rational.

    theta = 1 is accepted so the bare coefficient can be displayed; the
    distribution hypothesis itself only makes sense for theta < 1.
    """
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    th = _as_fraction(theta, "theta")
    ep = _as_fraction(eps, "eps")
    if not (0 < th <= 1):
        raise ValueError(f"theta must lie in (0, 1], got {th}")
    coeff = detector_coefficient(k, l)
    theta_term = coeff * th / 2
    return ThresholdReport(k, l, th, ep, coeff, theta_term, 1 + ep - theta_term, theta_term - 1)


def gap_bound(theta) -> Fraction:
    """max(0, 1 - 2*theta): the normalized-gap bound a level theta yields."""
    th = _as_fraction(theta, "theta")
    return max(Fraction(0), 1 - 2 * th)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class MomentReport(Report):
    kind: str  # "pure" or "twisted"
    empirical: float
    main_term: float
    ratio: float | None
    params: SieveParams
    offsets: tuple[int, ...]
    diagnostics: dict = field(default_factory=dict)


@dataclass
class DetectorReport(Report):
    kind: ClassVar[str] = "detector"
    mode: str
    empirical: float
    predicted: float
    bracket: float
    positive_count: int
    witnesses: list[dict]
    tuple_count: int
    params: SieveParams
    diagnostics: dict = field(default_factory=dict)
    positives: list[np.ndarray] = field(default_factory=list, metadata=OUTSIDE_DOC)  # per tuple, optional


# ---------------------------------------------------------------------------
# pure moment
# ---------------------------------------------------------------------------

def _fold_chunks(chunk, finish, t: OffsetTuple, params: SieveParams, workers: int | None,
                 *extra, take=None) -> tuple[float, int]:
    """(empirical sum, chunk count) of chunk((t, wp, lo, hi, *extra)) over
    the CHUNK spans of (N, 2N].

    The divisor table and its signature state are built here, before any
    pool starts; chunks look them up with divisor_table, in the memo that
    forked workers inherit (any other worker builds them once per (t, R)).
    Results are folded as they arrive, in span order, so memory does not
    grow with the number of chunks; take(result), when given, first takes
    what the caller keeps besides the sum.  With a tail, chunks return
    rounded partials and the sum is their math.fsum.  Without one they
    return (count, lam_hi, lam_lo) per signature, None where unused: counts
    add up in int64 and log parts in a primes.LogSum (a chunk's lo sums stay
    below CHUNK * span * 2^26), and finish(V, counts, Lambda) rounds once, V
    the signature values and Lambda the rounded per-signature sums of logs.
    Chunks may force lambda_block: the callers' regime check means
    R <= N < lo unless the run itself was forced.
    """
    wp = WeightParams(params.R, params.a)
    table = divisor_table(t, wp.R)
    values = table.prefix_state(wp)[0]
    spans = block_spans(params.N + 1, 2 * params.N + 1, CHUNK)
    results = ordered_imap(chunk, [(t, wp, lo, hi, *extra) for lo, hi in spans], workers)
    if take is not None:
        results = map(take, results)
    if table.tail:
        return math.fsum(results), len(spans)
    counts, lam = 0, LogSum()
    for count, lam_hi, lam_lo in results:
        if count is not None:
            counts += count
        if lam_hi is not None:
            lam.add(lam_hi, lam_lo)
        del count, lam_hi, lam_lo  # free this chunk's arrays before the next chunk runs
    return finish(values, counts, lam.value()), len(spans)


def _pure_chunk(args):
    """The chunk's rounded sum of W^2 with a tail, else its count per
    signature."""
    t, wp, lo, hi = args
    table = divisor_table(t, wp.R)
    if table.tail:
        blk = lambda_block(t, wp, lo, hi, force=True)
        return math.fsum(memoryview(blk.values * blk.values))
    return np.bincount(table.signatures(lo, hi), minlength=table.signature_count), None, None


def pure_moment(
    t: OffsetTuple,
    params: SieveParams,
    workers: int | None = None,
    force: bool = False,
) -> MomentReport:
    """Empirical sum of W(n)^2 over (N, 2N] against its predicted main term."""
    if t.k != params.k:
        raise ValueError(f"tuple size {t.k} does not match params.k = {params.k}")
    violations = _enforce_regime(params.pure_regime_violations(), force)
    empirical, chunks = _fold_chunks(
        _pure_chunk, lambda values, counts, _: _repeated_fsum(values * values, counts), t, params, workers
    )

    dens = singular_series(t, DEFAULT_TOL)
    main = float(pure_main_prefactor(params.k, params.l)) * dens.value
    main *= params.N * params.log_r ** (params.k + 2 * params.l)
    return MomentReport(
        kind="pure",
        empirical=empirical,
        main_term=main,
        ratio=empirical / main if main != 0.0 else None,
        params=params,
        offsets=t.offsets,
        diagnostics={
            "chunks": chunks,
            "regime_violations": violations,
            "singular_series": dens.value,
        },
    )


# ---------------------------------------------------------------------------
# exact double sums (small R)
# ---------------------------------------------------------------------------

def double_sum_exact_counts(
    t: OffsetTuple,
    params: "SieveParams | WeightParams",
    lo: int,
    hi: int,
) -> float:
    """sum_{d1,d2} w(d1) w(d2) * #{n in [lo, hi): [d1,d2] divides P(n)}.

    d1 and d2 run over the divisor table's squarefree d <= R, in pairs walked
    here.  Membership counts are exact integers (per residue class of the
    lcm, one count per distinct lcm), so this equals the blockwise sum of
    W(n)^2 up to float summation only.  The lcm's classes come from its own
    CRT over omega_residues, not from the table's residues, so the comparison
    with lambda_block stays independent.
    """
    if params.R > EXACT_COUNT_R_BUDGET:
        raise BudgetError(f"R = {params.R} exceeds exact-count budget {EXACT_COUNT_R_BUDGET}")
    wp = WeightParams(params.R, params.a)
    table = [(_weight_value(e.mu, e.d, wp.R, wp.a), e.d, e.primes) for e in divisor_table(t, wp.R)]

    # each lcm is counted once, keyed by its value; a pair adds weight * count
    counts: dict[int, int] = {}
    terms = []
    for w1, d1, primes1 in table:
        for w2, d2, primes2 in table:
            m = d1 * d2 // math.gcd(d1, d2)
            if m not in counts:
                step = 1
                res: tuple[int, ...] = (0,)
                for p in sorted({*primes1, *primes2}):
                    res = _crt_merge(step, res, p, omega_residues(t, p))
                    step *= p
                count = 0
                for r in res:
                    first = lo + ((r - lo) % m)
                    if first < hi:
                        count += (hi - 1 - first) // m + 1
                counts[m] = count
            terms.append(w1 * w2 * counts[m])
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# twisted moment
# ---------------------------------------------------------------------------

def _twisted_chunk(args):
    """The chunk's rounded sum of varpi(n + h) W(n)^2 with a tail, else the
    int64 sums of the log parts of its n + h prime per signature of n, one
    np.add.at per part as in _detector_chunk (W is read only where used).
    The primes p = n + h come from primes_in, and n's index from p."""
    t, wp, lo, hi, h = args
    table = divisor_table(t, wp.R)
    ps = primes_in(lo + h, hi + h)
    idx = ps - (lo + h)  # n = lo + idx has n + h prime
    if table.tail:
        logs = np.log(ps.astype(np.float64))
        vals = lambda_block(t, wp, lo, hi, force=True).values[idx]
        return math.fsum(memoryview(vals * vals * logs))
    key = table.signatures(lo, hi)[idx]
    lam = [np.zeros(table.signature_count, dtype=np.int64) for _ in range(2)]
    for acc, part in zip(lam, log_parts(ps)):
        np.add.at(acc, key, part)
    return None, *lam


def _twisted_total(values: np.ndarray, lam: np.ndarray) -> float:
    used = np.flatnonzero(lam)
    w = values[used]
    return math.fsum(memoryview(w * w * lam[used]))


def twisted_moment(
    t: OffsetTuple,
    h: int,
    params: SieveParams,
    workers: int | None = None,
    force: bool = False,
) -> MomentReport:
    """Empirical sum of varpi(n+h) W(n)^2 over (N, 2N] with the main term
    picked by membership of h, an exact integer, in the tuple.  An N whose
    chunks would sieve past SUPPORTED_SIEVE_BOUND is refused before any
    chunk is formed."""
    h = operator.index(h)
    if t.k != params.k:
        raise ValueError(f"tuple size {t.k} does not match params.k = {params.k}")
    if not (1 <= h <= params.span_bound):
        raise ValueError(f"h = {h} outside [1, span_bound = {params.span_bound}]")
    if params.span_bound < t.span_bound:
        raise ValueError(
            f"params.span_bound {params.span_bound} below tuple span {t.span_bound}"
        )
    _check_sieve_reach(params, h)
    violations = _enforce_regime(params.twisted_regime_violations(), force)
    empirical, chunks = _fold_chunks(
        _twisted_chunk, lambda values, _, lam: _twisted_total(values, lam), t, params, workers, h
    )

    # extension lives in [1, params.span_bound]
    spanned = OffsetTuple(t.offsets, params.span_bound)
    member = h in spanned.offsets
    prefactor, power = twisted_main_prefactor(params.k, params.l, member)
    dens = singular_series(spanned if member else extend(spanned, h), DEFAULT_TOL)
    main = float(prefactor) * dens.value * params.N * params.log_r ** power
    return MomentReport(
        kind="twisted",
        empirical=empirical,
        main_term=main,
        ratio=empirical / main if main != 0.0 else None,
        params=params,
        offsets=t.offsets,
        diagnostics={
            "h": h,
            "h_member": member,
            "chunks": chunks,
            "regime_violations": violations,
            "singular_series": dens.value,
            "log_r_power": power,
        },
    )


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------

def _detector_chunk(args):
    """One (tuple, chunk) unit: (sum, flagged count, flagged n or None,
    capped witnesses).

    The sum is (count, lam_hi, lam_lo) per key: the number of n with the key
    and the int64 sums of the log parts of the primes they see.  Keys are
    signatures without a tail; with one they are single n, and the chunk
    rounds its own partial with the run's finisher, _detector_total.  n is
    flagged when it sees at least two primes: while span < N that is exactly
    a positive parenthesis.  The flagged n come back only when collect is
    set.  Witnesses are (n, first prime, second prime) rows for the first
    cap flagged n.

    The primes of (lo, hi + span) come from primes_in, and flags, set at
    their offsets pos from lo + 1, lets the sums read them by position.
    """
    t, wp, lo, hi, span, log3n, mode, cap, collect = args
    table = divisor_table(t, wp.R)
    size = hi - lo
    ps = primes_in(lo + 1, hi + span)
    pos = ps - (lo + 1)
    flags = np.zeros(size + span - 1, dtype=bool)  # flags[j]: is lo + 1 + j prime
    flags[pos] = True
    part_hi, part_lo = log_parts(ps)
    key = np.arange(size) if table.tail else table.signatures(lo, hi)
    keys = size if table.tail else table.signature_count

    # seen[i]: how many primes n = lo + i sees; lam_hi, lam_lo: per-key int64
    # sums of their integer log parts, below CHUNK * span * 2^31 < 2^63
    lam_hi = np.zeros(keys, dtype=np.int64)
    lam_lo = np.zeros(keys, dtype=np.int64)
    if mode == "window":
        # n sees pos[start[i] : end[i]], the primes in (n, n + span]
        cum = np.zeros(len(flags) + 1, dtype=np.int64)
        np.cumsum(flags, out=cum[1:])
        start, end = cum[:size], cum[span : span + size]
        seen = end - start
        prefix_hi = np.concatenate(([0], np.cumsum(part_hi)))
        prefix_lo = np.concatenate(([0], np.cumsum(part_lo)))
        np.add.at(lam_hi, key, prefix_hi[end] - prefix_hi[start])
        np.add.at(lam_lo, key, prefix_lo[end] - prefix_lo[start])
    else:  # n sees lo + 1 + j for j = i + h - 1, h in the tuple
        seen = np.zeros(size, dtype=np.uint8)
        for h in t.offsets:
            a, b = np.searchsorted(pos, (h - 1, h - 1 + size))
            at = key[pos[a:b] - (h - 1)]
            np.add.at(lam_hi, at, part_hi[a:b])
            np.add.at(lam_lo, at, part_lo[a:b])
            seen += flags[h - 1 : h - 1 + size]
    counts = np.bincount(key, minlength=keys)

    flagged_idx = np.flatnonzero(seen >= 2)
    first = flagged_idx[:cap]
    if mode == "window":
        j = start[first]
        pair = (lo + 1 + pos[j], lo + 1 + pos[j + 1])
    else:
        # hit[r, c]: first[r] + offsets[c] is prime; the first two hits per row
        offsets = np.array(t.offsets)
        hit = flags[first[:, None] + (offsets - 1)]
        rows = np.arange(len(first))
        c1 = hit.argmax(axis=1)
        hit[rows, c1] = False
        pair = (lo + first + offsets[c1], lo + first + offsets[hit.argmax(axis=1)])
    witnesses = np.stack((lo + first, *pair), axis=1)

    total = counts, lam_hi, lam_lo
    if table.tail:
        vals = lambda_block(t, wp, lo, hi, force=True).values
        total = _detector_total(vals, counts, log_sum(lam_hi, lam_lo), log3n)
    return total, len(flagged_idx), lo + flagged_idx if collect else None, witnesses


def _detector_total(values: np.ndarray, counts: np.ndarray, lam: np.ndarray, log3n: float) -> float:
    # only the keys some n has: the others' terms are exact +0.0
    used = np.flatnonzero(counts)
    w = values[used]
    return math.fsum(memoryview(w * w * (lam[used] - log3n * counts[used])))


def two_primes_detector(
    params: SieveParams,
    tuples: Iterable[OffsetTuple] | Sequence[OffsetTuple],
    h_mode: str = "window",
    workers: int | None = None,
    force: bool = False,
    witness_cap: int = 1000,
    collect_positives: bool = False,
) -> DetectorReport:
    """Weighted two-primes detector over the supplied tuples.

    h_mode "window" sums varpi(n+h) over all integers h <= span_bound; mode
    "tuple" sums only over the tuple's own offsets.  Every n whose inner
    parenthesis is positive is counted, and for the first witness_cap such n
    the two witnessing primes in (n, n + span_bound] are reported.  Refuses
    span_bound >= N (positivity is then no longer "two primes"), span_bound
    >= MAX_DETECTOR_SPAN, a witness_cap that is no integer, below 0 or above
    MAX_WITNESSES, an N whose chunks would sieve past SUPPORTED_SIEVE_BOUND,
    and in window mode a span_bound^k past the float range.
    """
    if h_mode not in ("window", "tuple"):
        raise ValueError(f"unknown h_mode {h_mode!r}")
    witness_cap = operator.index(witness_cap)
    if witness_cap < 0:
        raise ValueError(f"witness_cap must be >= 0, got {witness_cap}")
    if witness_cap > MAX_WITNESSES:
        raise BudgetError(f"witness_cap {witness_cap} exceeds the budget of {MAX_WITNESSES} witnesses")
    if params.span_bound >= params.N:
        # below N, one prime never outweighs log 3N and two always do, so
        # positivity is the integer test "at least two primes"
        raise ValueError(f"span_bound {params.span_bound} must be below N = {params.N}")
    if params.span_bound >= MAX_DETECTOR_SPAN:
        raise ValueError(
            f"span_bound {params.span_bound} must be below {MAX_DETECTOR_SPAN}, "
            "where a chunk's log-part sums could pass int64"
        )
    _check_sieve_reach(params, params.span_bound)
    if h_mode == "window":
        try:
            float(params.span_bound) ** params.k  # the window prediction's power
        except OverflowError:
            raise ValueError(f"span^k = {params.span_bound}^{params.k} leaves the float range") from None
    tuple_list = list(tuples)
    if not tuple_list:
        raise ValueError("empty tuple source")
    for t in tuple_list:
        if t.k != params.k:
            raise ValueError(f"tuple size {t.k} does not match params.k = {params.k}")
        if h_mode == "tuple" and t.offsets[-1] > params.span_bound:
            raise ValueError(f"offset {t.offsets[-1]} exceeds span_bound {params.span_bound}")
    violations = list(dict.fromkeys(params.pure_regime_violations() + params.twisted_regime_violations()))
    violations = _enforce_regime(violations, force)

    span = params.span_bound
    log3n = math.log(3 * params.N)

    per_tuple_sums: list[float] = []
    witnesses: list[dict] = []
    positives: list[np.ndarray] = []
    positive_count = 0
    finish = functools.partial(_detector_total, log3n=log3n)
    for ti, t in enumerate(tuple_list):
        flagged_parts = []

        def take(result):
            nonlocal positive_count
            total, count, flagged, wit = result
            positive_count += count
            if collect_positives:
                flagged_parts.append(flagged)
            for n, p1, p2 in wit[: witness_cap - len(witnesses)].tolist():
                witnesses.append({"tuple_index": ti, "n": n, "p1": p1, "p2": p2})
            return total

        total, chunks = _fold_chunks(_detector_chunk, finish, t, params, workers,
                                     span, log3n, h_mode, witness_cap, collect_positives, take=take)
        per_tuple_sums.append(total)
        if collect_positives:
            positives.append(np.concatenate(flagged_parts))

    empirical = math.fsum(per_tuple_sums)

    coeff = float(detector_coefficient(params.k, params.l))
    pref = float(pure_main_prefactor(params.k, params.l))
    if h_mode == "window":
        bracket = span + coeff * params.log_r - params.log_n
        predicted = bracket * pref * params.N * float(span) ** params.k
        predicted *= params.log_r ** (params.k + 2 * params.l)
    else:
        bracket = coeff * params.log_r - params.log_n
        scale = pref * params.N * params.log_r ** (params.k + 2 * params.l)
        predicted = math.fsum(
            singular_series(t, DEFAULT_TOL).value * scale * bracket for t in tuple_list
        )

    return DetectorReport(
        mode=h_mode,
        empirical=empirical,
        predicted=predicted,
        bracket=bracket,
        positive_count=positive_count,
        witnesses=witnesses,
        tuple_count=len(tuple_list),
        params=params,
        diagnostics={
            "chunks": chunks,
            "regime_violations": violations,
            "witness_cap": witness_cap,
            "a": params.a,
            "log_3n_literal": log3n,
            # the window-mode prediction refers to the full k-subset family
            "full_family_count": math.comb(span, params.k) if h_mode == "window" else len(tuple_list),
        },
        positives=positives,
    )
