"""Summarise one result set, or compare two.

    python3 bench/compare.py SET               # medians, quartiles and spreads
    python3 bench/compare.py BASE_SET NEW_SET  # the same, plus verdicts

A result set is a directory of records written by run.py --out (sweep.py
makes one).  For each workload and end-to-end metric this prints each side's
median and quartiles over its runs, and the spread (q3 - q1) / median.  A
metric whose new median is worse than the base median by more than its bound
in BENCHMARK.json is flagged WORSE, and one better by more than its bound is
flagged BETTER (between two sets of the same code, either flag shows drift);
one whose spread on either side exceeds its bound is UNRESOLVED, unless every
new run beats every base run.  Layer
counts of traced runs are given as a ratio together with the base value.

Records whose longdouble widths differ are refused: the singular tables and
the detector's prefix sums are computed in longdouble, so their documents,
and the work that produced them, are not comparable across widths.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"compare: no records in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def by_workload(records: list[dict], trace: int) -> dict[str, dict[str, list[float]]]:
    out: dict = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                out[r["workload"]][name].append(m["value"])
    return out


def check_widths(*sets: list[dict]) -> None:
    widths = {r["environment"]["longdouble_mantissa_bits"] for records in sets for r in records}
    if len(widths) > 1:
        raise SystemExit(f"compare: refusing to compare longdouble mantissa widths {sorted(widths)}")


def errors(records: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return f"{failed}/{attempted} failed"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    check_widths(*sets)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    e2e = [by_workload(s, 0) for s in sets]
    print(f"errors: " + "; ".join(errors(s) for s in sets))

    for workload in sorted(set().union(*e2e)):
        print(f"\n[{workload}] runs: " + " vs ".join(str(len(next(iter(side[workload].values()), []))) for side in e2e))
        for name, m in metrics.items():
            sides = [side[workload].get(name) for side in e2e]
            if not all(sides):
                continue
            text = "  ".join(
                f"median {quartiles(v)[1]:.5g} [q1 {quartiles(v)[0]:.5g}, q3 {quartiles(v)[2]:.5g}] spread {spread(v):.3f}"
                for v in sides
            )
            verdict = ""
            if len(sides) == 2:
                verdict = judge(sides[0], sides[1], m)
            print(f"  {name:12s} {m['unit']:4s} {text} {verdict}")

    layers = [by_workload(s, 1) for s in sets]
    counts = [n for r in sets[0] if r["trace"] == 1 for n, m in r["metrics"].items() if m["unit"] in ("count", "bytes")]
    for workload in sorted(set().union(*layers)):
        if not all(workload in side for side in layers):
            print(f"\n[{workload}] traced in one set only")
            continue
        print(f"\n[{workload}] layer counts")
        for name in dict.fromkeys(counts):
            values = [side[workload].get(name, [None])[0] for side in layers]
            if len(values) == 2 and values[0]:
                print(f"  {name:24s} base {values[0]}  new {values[1]}  ratio {values[1] / values[0]:.4f}")
            elif len(values) == 1 or values[1]:
                print(f"  {name:24s} " + "  ".join(str(v) for v in values if v is not None))
    return 0


def judge(base: list[float], new: list[float], metric: dict) -> str:
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (statistics.median(new) / statistics.median(base) - 1.0)
    wins_all = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not wins_all:
        return f"UNRESOLVED (spread above bound {bound})"
    if change > bound:
        return f"WORSE by {change:.3f} > bound {bound}"
    if -change > bound:
        return f"BETTER by {-change:.3f} > bound {bound}"
    return f"ok ({'+' if change >= 0 else ''}{change:.3f} worse, bound {bound})"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
