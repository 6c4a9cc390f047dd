"""The four benchmark workloads: inputs made from a seed, the operations, and
the output checks.

Seed 0 runs exactly the inputs of the acceptance criteria the workloads are
shaped after.  Any other seed scales each size by a factor drawn from
[1 - SIZE_SPREAD, 1 + SIZE_SPREAD] (and picks the twisted shift h among the
shifts whose extended tuple stays admissible), so a claim can be rechecked on
inputs nobody tuned against.  The spread is small enough that chunk counts
and grid lengths, and so every per-layer count except the size-proportional
ones, stay the same as at seed 0.

Every operation returns the canonical JSON text of its result document; the
serialisation is part of the timed work because it is what a user of the
library receives.  Checks run outside the timing and never call the library
code they check, except where a check compares two independent routes of the
library (criterion 02).
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

import gapsieve.bv as bv
import gapsieve.moments as moments
import gapsieve.serialize as serialize
import gapsieve.singular as singular
import gapsieve.tuples as tuples
import gapsieve.weights as weights

SIZE_SPREAD = 0.015
TWIN_CONSTANT = 1.3203236316937391  # 2 * C_2, the twin-prime constant
FLOAT_RTOL = 1e-12
CHUNK = 1 << 20
TWISTED_SHIFTS = (1, 3, 7, 9)  # odd shifts: (1, 3, h) stays admissible mod 2 and 3

# bv_probe is the only workload with a process pool; never more workers than cores
WORKERS = {"moment": 1, "detector": 1, "bv_probe": min(2, os.cpu_count() or 1), "density": 1}


@dataclass
class Op:
    """One library call of a workload.

    run(state) does the call and returns the document text; it may leave
    objects in `state` for later operations of the same iteration and for
    the checks.  check(doc, state) returns a list of problems.
    """

    name: str
    run: Callable[[dict], str]
    check: Callable[[dict, dict], list[str]]


@dataclass
class Workload:
    name: str
    seed: int
    workers: int
    inputs: dict
    ops: list[Op] = field(default_factory=list)
    # checks that cost more than a few ms run once per run, on the first iteration
    run_checks: list[Callable[[dict], list[str]]] = field(default_factory=list)


def _scaled(rng: random.Random | None, value: int) -> int:
    if rng is None:
        return value
    return int(round(value * (1.0 + rng.uniform(-SIZE_SPREAD, SIZE_SPREAD))))


def build(name: str, seed: int, workers: int | None = None) -> Workload:
    if name not in _BUILDERS:
        raise KeyError(name)
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seed, WORKERS[name] if workers is None else workers)


# ---------------------------------------------------------------------------
# shared check helpers (independent of gapsieve)
# ---------------------------------------------------------------------------

def small_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def all_prime_by_trial_division(values: np.ndarray) -> bool:
    """True when every value is prime, testing divisors up to its square root."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return True
    if values.min() < 2:
        return False
    divisors = small_primes(math.isqrt(int(values.max())))
    for p in divisors:
        hit = (values % p == 0) & (values != p)
        if hit.any():
            return False
    return True


def _ratio_in(value, lo: float, hi: float, what: str) -> list[str]:
    if value is None or not (lo <= value <= hi):
        return [f"{what} = {value} outside [{lo}, {hi}]"]
    return []


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# moment: pure twin at N = 1e6 and 1e7, twisted twin at N = 1e7
# ---------------------------------------------------------------------------

def _twin_params(N: int, span: int) -> moments.SieveParams:
    return moments.SieveParams(N=N, R=float(N) ** 0.25, k=2, l=1, span_bound=span)


def _moment(rng, seed, workers) -> Workload:
    n_small, n_large = _scaled(rng, 10**6), _scaled(rng, 10**7)
    h = 3 if rng is None else rng.choice(TWISTED_SHIFTS)
    twin = tuples.OffsetTuple(tuples.TWIN_OFFSETS)
    wl = Workload("moment", seed, workers,
                  {"pure_N": [n_small, n_large], "twisted_N": n_large, "h": h, "span": 10})

    def pure(N):
        def run(state):
            rep = moments.pure_moment(twin, _twin_params(N, 3), workers=workers)
            state[f"pure_{N}"] = rep
            return serialize.canonical_json(rep.doc())
        return run

    def check_moment(N):
        def check(doc, state):
            out = _ratio_in(doc["ratio"], 0.4, 2.5, f"ratio at N={N}")  # criterion 03 band
            if doc["diagnostics"]["chunks"] != -(-N // CHUNK):
                out.append(f"chunk count {doc['diagnostics']['chunks']} at N={N}")
            if not doc["empirical"] > 0:
                out.append("empirical sum not positive")
            return out
        return check

    def twisted(state):
        rep = moments.twisted_moment(twin, h, _twin_params(n_large, 10), workers=workers)
        return serialize.canonical_json(rep.doc())

    def check_twisted(doc, state):
        out = check_moment(n_large)(doc, state)
        member = h in tuples.TWIN_OFFSETS
        if doc["diagnostics"]["h_member"] != member:
            out.append(f"h_member wrong for h={h}")
        if doc["diagnostics"]["log_r_power"] != (5 if member else 4):
            out.append("main-term log power does not follow membership")
        return out

    def criterion_02(state):
        # independent routes on one whole chunk: the block sum of W^2, which
        # pure_moment reduces to its empirical value, and the exact-count
        # bilinear form
        N = n_small
        params = _twin_params(N, 3)
        wp = weights.WeightParams(params.R, params.a)
        lo, hi = N + 1, min(2 * N + 1, N + 1 + CHUNK)
        blk = weights.lambda_block(twin, wp, lo, hi)
        block_sum = math.fsum(blk.values * blk.values)
        exact = moments.double_sum_exact_counts(twin, wp, lo, hi)
        out = []
        if abs(block_sum - exact) > 1e-9 * abs(exact):
            out.append(f"criterion 02: block sum {block_sum!r} vs exact counts {exact!r}")
        if hi == 2 * N + 1 and state[f"pure_{N}"].empirical != block_sum:
            out.append("pure_moment empirical differs from its one-chunk block sum")
        return out

    wl.ops = [
        Op(f"pure_moment N={n_small}", pure(n_small), check_moment(n_small)),
        Op(f"pure_moment N={n_large}", pure(n_large), check_moment(n_large)),
        Op(f"twisted_moment N={n_large} h={h}", twisted, check_twisted),
    ]
    wl.run_checks = [criterion_02]
    return wl


# ---------------------------------------------------------------------------
# detector: septuple tuple mode at N = 1e7, twin window mode at N = 1e6
# ---------------------------------------------------------------------------

def _check_witnesses(doc: dict, offsets: tuple[int, ...], span: int, tuple_mode: bool) -> list[str]:
    wit = doc["witnesses"]
    out = []
    if len(wit) != min(doc["positive_count"], doc["diagnostics"]["witness_cap"]):
        out.append(f"{len(wit)} witnesses for {doc['positive_count']} positive windows")
    if not wit:
        return out
    n = np.array([w["n"] for w in wit], dtype=np.int64)
    p1 = np.array([w["p1"] for w in wit], dtype=np.int64)
    p2 = np.array([w["p2"] for w in wit], dtype=np.int64)
    if not ((n < p1) & (p1 < p2) & (p2 <= n + span)).all():
        out.append("a witness pair lies outside (n, n + span]")
    if tuple_mode and not (np.isin(p1 - n, offsets).all() and np.isin(p2 - n, offsets).all()):
        out.append("a tuple-mode witness is not at a tuple offset")
    if not all_prime_by_trial_division(np.concatenate([p1, p2])):
        out.append("a witness is composite")
    return out


def _detector(rng, seed, workers) -> Workload:
    n_sept, n_twin = _scaled(rng, 10**7), _scaled(rng, 10**6)
    sept_span, twin_span = 22, 100
    septuple = tuples.OffsetTuple(tuples.SEPTUPLE_OFFSETS)
    twin = tuples.OffsetTuple(tuples.TWIN_OFFSETS)
    wl = Workload("detector", seed, workers,
                  {"septuple_N": n_sept, "septuple_span": sept_span,
                   "twin_N": n_twin, "twin_span": twin_span})

    def run_septuple(state):
        params = moments.SieveParams(N=n_sept, R=float(n_sept) ** 0.25, k=7, l=1, span_bound=sept_span)
        rep = moments.two_primes_detector(params, [septuple], h_mode="tuple", workers=workers)
        return serialize.canonical_json(rep.doc())

    def check_septuple(doc, state):
        # criterion 10: the sign check
        out = [f"{key} = {doc[key]} is not negative"
               for key in ("bracket", "empirical", "predicted") if not doc[key] < 0]
        return out + _check_witnesses(doc, septuple.offsets, sept_span, tuple_mode=True)

    def run_twin(state):
        params = _twin_params(n_twin, twin_span)
        rep = moments.two_primes_detector(params, [twin], h_mode="window", workers=workers,
                                          collect_positives=True)
        state["twin_positives"] = rep.positives
        return serialize.canonical_json(rep.doc())

    def check_twin(doc, state):
        # criterion 08: every positive window holds two primes
        out = _check_witnesses(doc, twin.offsets, twin_span, tuple_mode=False)
        positives = np.concatenate(state["twin_positives"])
        if len(positives) != doc["positive_count"] or len(positives) == 0:
            out.append(f"{len(positives)} positives collected, {doc['positive_count']} counted")
        flags = np.zeros(2 * n_twin + twin_span + 2, dtype=bool)
        flags[small_primes(len(flags) - 1)] = True
        counts = np.concatenate([[0], np.cumsum(flags)])
        in_window = counts[positives + twin_span + 1] - counts[positives + 1]
        if (in_window < 2).any():
            out.append(f"{int((in_window < 2).sum())} positive windows hold fewer than two primes")
        return out

    wl.ops = [
        Op(f"two_primes_detector septuple tuple N={n_sept}", run_septuple, check_septuple),
        Op(f"two_primes_detector twin window N={n_twin}", run_twin, check_twin),
    ]
    return wl


# ---------------------------------------------------------------------------
# bv_probe: bv_deviation at x in {1e5, 1e6, 1e7}, then supported_theta
# ---------------------------------------------------------------------------

BV_THETA = Fraction(9, 20)


def _floor_power(x: int, theta: Fraction) -> int:
    """Largest q with q^den <= x^num, by bisection on exact integers."""
    lo, hi = 1, x
    target = x**theta.numerator
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**theta.denominator <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _halving_grid(x: int, y_min: int = 100) -> list[int]:
    ys = []
    while x >= y_min:
        ys.append(x)
        x //= 2
    return ys


def _bv_probe(rng, seed, workers) -> Workload:
    xs = [_scaled(rng, x) for x in (10**5, 10**6, 10**7)]
    wl = Workload("bv_probe", seed, workers, {"x": xs, "theta": str(BV_THETA), "grid": [2, 100]})

    def deviation(i, x):
        def run(state):
            table = bv.bv_deviation(x, BV_THETA, grid=bv.GridSpec(factor=2, y_min=100), workers=workers)
            state.setdefault("tables", {})[i] = table
            return serialize.canonical_json(table.doc())

        def check(doc, state):
            out = []
            q_max = _floor_power(x, BV_THETA)
            rows = doc["rows"]
            if [r["q"] for r in rows] != list(range(1, q_max + 1)):
                out.append(f"rows do not cover q = 1..{q_max}")
            if doc["y_grid"] != _halving_grid(x):
                out.append("y grid differs from the halving grid")
            devs = [r["deviation"] for r in rows]
            if min(devs) < 0 or not _close(doc["total"], math.fsum(devs), FLOAT_RTOL):
                out.append("total is not the sum of non-negative row deviations")
            for r in rows[1:]:
                if math.gcd(r["worst_a"], r["q"]) != 1 or r["worst_y"] not in doc["y_grid"]:
                    out.append(f"row q={r['q']} names a non-coprime class or an off-grid y")
                    break
            return out

        return Op(f"bv_deviation x={x}", run, check)

    def support(state):
        tables = [state["tables"][i] for i in range(len(xs))]
        return serialize.canonical_json(bv.supported_theta(tables, A=1.0).doc())

    def check_support(doc, state):
        # criterion 11's trend: total / x strictly decreasing
        (group,) = doc["groups"]
        out = []
        if group["theta"] != str(BV_THETA) or [r["x"] for r in group["runs"]] != xs:
            out.append("support groups do not match the probed tables")
        totals = [state["tables"][i].total for i in range(len(xs))]
        if [r["total"] for r in group["runs"]] != totals:
            out.append("support totals differ from the tables")
        ratios = [t / x for t, x in zip(totals, xs)]
        if not all(a > b for a, b in zip(ratios, ratios[1:])):
            out.append(f"total/x not strictly decreasing: {ratios}")
        if group["ratio_decreasing"] is not True:
            out.append("supported_theta reports no decrease")
        return out

    wl.ops = [deviation(i, x) for i, x in enumerate(xs)]
    wl.ops.append(Op("supported_theta A=1", support, check_support))
    return wl


# ---------------------------------------------------------------------------
# density: singular series, the 3-subset sweep, tuple-density averages
# ---------------------------------------------------------------------------

def _admissible_by_hand(offsets: tuple[int, ...]) -> bool:
    k = len(offsets)
    return all(len({(-h) % p for h in offsets}) < p for p in small_primes(k))


def _density(rng, seed, workers) -> Workload:
    p_small, p_large = _scaled(rng, 10**6), _scaled(rng, 10**7)
    averages = [(_scaled(rng, span), k) for span, k in ((100, 2), (200, 2), (60, 3))]
    twin = tuples.OffsetTuple(tuples.TWIN_OFFSETS)
    wl = Workload("density", seed, workers,
                  {"truncation_primes": [p_small, p_large], "subsets": [20, 3],
                   "gallagher": [list(a) for a in averages]})

    def series(p0):
        def run(state):
            value = singular.singular_series(twin, truncation_prime=p0)
            return serialize.canonical_json(dataclasses.asdict(value))

        def check(doc, state):
            if not _close(doc["value"], TWIN_CONSTANT, 1e-9):
                return [f"twin constant {doc['value']!r} at truncation {p0}"]
            return []

        return Op(f"singular_series twin p0={p0}", run, check)

    def sweep(state):
        rows = []
        for t in tuples.enumerate_tuples(20, 3):
            rows.append({"offsets": list(t.offsets), "admissible": tuples.is_admissible(t),
                         "value": singular.singular_series(t).value})
        return serialize.canonical_json({"kind": "subsets", "rows": rows})

    def check_sweep(doc, state):
        # criterion 06: positive exactly when admissible, over all 1,140 subsets
        rows = doc["rows"]
        out = []
        if [tuple(r["offsets"]) for r in rows] != list(combinations(range(1, 21), 3)):
            out.append("sweep does not enumerate the 3-subsets of [1, 20] in order")
        for r in rows:
            if r["admissible"] != _admissible_by_hand(tuple(r["offsets"])) or r["admissible"] != (r["value"] > 0):
                out.append(f"subset {r['offsets']}: admissibility and positivity disagree")
                break
        return out

    def average(span, k):
        def run(state):
            rep = singular.gallagher_average(span, k, workers=workers)
            state[f"avg_{span}_{k}"] = rep.normalized
            return serialize.canonical_json(dataclasses.asdict(rep))

        def check(doc, state):
            out = []
            if doc["tuple_count"] != math.comb(span, k):
                out.append(f"averaged {doc['tuple_count']} tuples, not C({span},{k})")
            if k == 2:
                out += _ratio_in(doc["normalized"], 0.8, 1.2, f"average ({span},{k})")  # criterion 07
            elif not 0 < doc["normalized"] <= 1.2:
                out.append(f"average ({span},{k}) = {doc['normalized']} outside (0, 1.2]")
            return out

        return Op(f"gallagher_average ({span},{k})", run, check)

    def criterion_07(state):
        (s1, _), (s2, _) = averages[0], averages[1]
        a, b = state[f"avg_{s1}_2"], state[f"avg_{s2}_2"]
        return [] if abs(b - 1) < abs(a - 1) else [f"average moved away from 1: {a} -> {b}"]

    wl.ops = [series(p_small), series(p_large), Op("singular_series 3-subsets of [1,20]", sweep, check_sweep)]
    wl.ops += [average(span, k) for span, k in averages]
    wl.run_checks = [criterion_07]
    return wl


_BUILDERS = {"moment": _moment, "detector": _detector, "bv_probe": _bv_probe, "density": _density}
NAMES = tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# comparison with the stored seed-0 reference
# ---------------------------------------------------------------------------

def compare_docs(got, ref, path: str = "") -> list[str]:
    """Integers, strings and booleans exactly; floats to FLOAT_RTOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{path}: keys differ"]
        return [p for key in ref for p in compare_docs(got[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare_docs(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, ref)]
        ok = all(numbers) and _close(got, ref, FLOAT_RTOL)
    else:
        ok = type(got) is type(ref) and got == ref
    return [] if ok else [f"{path}: {got!r} != reference {ref!r}"]
