"""gapsieve benchmark: one workload, run as a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run it from the root of a source checkout; gapsieve is imported from ./src
and from nowhere else.  Workloads are defined in workloads.py.  One caller:
the next iteration starts when the previous one ends.

--trace 0 measures in PROBES fresh processes (probe.py), one after the
other, each given S / PROBES seconds, and reports the end-to-end metrics:
  setup_s      median over every process started (the probes, and
               SETUP_SAMPLES import-only interpreters spread evenly before
               them) of the time from spawn until `import gapsieve` returns
  cold_s       median over the probes of the first iteration in the fresh
               process, with every cache still empty
  wall_s       median over all warm iterations; output checks are not timed
  peak_rss_mb  median over the probes of the peak resident memory of the
               probe plus `workers` times that of its largest pool worker:
               an upper bound for all of them, as if every worker peaked at
               once (the kernel keeps only the largest reaped child's peak)
--trace 1 runs one probe that reports the per-layer metrics of traced
iterations (spans.py) and writes the spans to .bench_out/spans-*.npz.
Metric names, units and the default S are read from BENCHMARK.json.

Every library call counts as an attempted operation; an exception or a
failed output check makes it fail, and error_rate = failed / attempted.  At
seed 0 every result document is also compared with reference/seed0.json.
The last line of standard output is the JSON result; the full record, with
the environment, goes to --out (default .bench_out/).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference" / "seed0.json"
SPEC = ROOT / "BENCHMARK.json"
# the names from workloads.py, repeated so that this process never imports gapsieve
WORKLOADS = ("moment", "detector", "bv_probe", "density")
PROBES = 2
SETUP_SAMPLES = 14
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The checkout cannot run the benchmark, or a probe failed to finish."""


def spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Run a fresh interpreter to completion; returns (clock at spawn, stdout).

    The child leads its own process group, so whatever pool workers it left
    behind are stopped with it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, out


def probe(workload: str, seed: int, budget: float, trace: int, deadline: float) -> dict:
    start, out = spawn([str(BENCH / "probe.py"), "--workload", workload, "--seed", str(seed),
                        "--budget", str(budget), "--trace", str(trace)], deadline - time.perf_counter())
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - start
    return result


def import_seconds(deadline: float) -> float:
    start, out = spawn(["-c", "import time, gapsieve; print(repr(time.perf_counter()))"], deadline - time.perf_counter())
    return float(out.strip()) - start


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, spec: dict) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    if not (SRC / "gapsieve" / "__init__.py").is_file():
        raise BenchError(f"no gapsieve sources under {SRC}")
    if args.seed == 0 and not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    if args.trace:
        probes = [probe(args.workload, args.seed, args.seconds, 1, deadline)]
        metrics = probes[0]["metrics"]
    else:
        probes, setup = [], []
        for _ in range(PROBES):
            setup += [import_seconds(deadline) for _ in range(SETUP_SAMPLES // PROBES)]
            probes.append(probe(args.workload, args.seed, args.seconds / PROBES, 0, deadline))
        setup += [p["setup_s"] for p in probes]
        values = {
            "setup_s": statistics.median(setup),
            "cold_s": statistics.median(p["cold_s"] for p in probes),
            "wall_s": statistics.median(w for p in probes for w in p["wall_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}

    widths = {p["environment"]["longdouble_mantissa_bits"] for p in probes}
    if len(widths) > 1:
        raise BenchError(f"probes disagree on the longdouble width: {sorted(widths)}")
    attempted = sum(p["attempted"] for p in probes)
    failed = sum(p["failed"] for p in probes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": probes[0]["inputs"],
        "environment": dict(probes[0]["environment"], git_sha=git_sha()),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": [q for p in probes for q in p["problems"]],
        "probes": probes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        record = measure(args, spec)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed} environment {json.dumps(record['environment'])}")
    for name, m in record["metrics"].items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':24s} {record['error_rate']:.6g} ratio ({record['failed']}/{record['attempted']})")
    print(json.dumps({key: record[key] for key in ("attempted", "failed", "metrics")}
                     | {"correct": record["failed"] == 0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
