"""Run run.py once per (workload, seed) and keep the records as a result set.

    python3 bench/sweep.py --out DIR [--workloads a,b] [--seeds 0-9] [--seconds S] [--trace 0|1]

Runs are sequential, each in a fresh interpreter, as the end-to-end metrics
require.  Summarise or compare the set with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            record = args.out / f"{workload}-seed{seed}-trace{args.trace}.json"
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(record)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed} exit {proc.returncode} {last}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
