"""One measuring process of a benchmark run; run.py starts it and reads it.

    python3 bench/probe.py --workload NAME --seed N --budget S --trace 0|1

It imports gapsieve first, notes the clock when the import returns (run.py
took the clock before spawning it: perf_counter is CLOCK_MONOTONIC, shared
between processes), and then runs the workload as a closed loop: the cold
first iteration, then warm iterations until `budget` seconds have passed
since the import, at least one.  With --trace 1 it instead runs traced
rounds (see traced_round), at least two, so that it can check that every
count repeats exactly.  Its last line of output is one JSON record.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)
import gapsieve  # noqa: E402  (timed: this import is the set-up being measured)

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, BENCH)
import workloads  # noqa: E402
from spans import RESIDUE_OP_BYTES, Tracer, residue_ops  # noqa: E402

ROOT = Path(BENCH).parent
OUT = ROOT / ".bench_out"
REFERENCE = Path(BENCH) / "reference" / "seed0.json"

PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
EXACT_UNITS = ("count", "bytes")


class Runner:
    """Runs iterations of one workload and keeps the check results."""

    def __init__(self, workload, reference: list | None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_texts: list | None = None
        self.op_seconds: list[list[float]] = []

    def iteration(self, workload=None) -> float:
        """One pass over the operations, checked afterwards; returns its wall seconds."""
        workload = workload or self.workload
        state: dict = {}
        texts: list = []
        errors: list = []
        marks = [time.perf_counter()]
        for op in workload.ops:
            try:
                texts.append(op.run(state))
                errors.append(None)
            except Exception:
                texts.append(None)
                errors.append(traceback.format_exc(limit=3))
            marks.append(time.perf_counter())
        self.op_seconds.append([b - a for a, b in zip(marks, marks[1:])])
        self._check(workload, state, texts, errors)
        return marks[-1] - marks[0]

    def _fail(self, problems: list[str], prefix: str = "") -> None:
        if problems:
            self.failed += 1
            self.problems += [prefix + p for p in problems]

    def _check(self, workload, state, texts, errors) -> None:
        first = self.first_texts is None
        if first:
            self.first_texts = texts
            if self.reference is not None and [r["op"] for r in self.reference] != [op.name for op in workload.ops]:
                self._fail(["operations differ from the reference's"])
        for i, (op, text, error) in enumerate(zip(workload.ops, texts, errors)):
            self.attempted += 1
            if error is not None:
                self._fail([f"raised {error}"], f"{op.name}: ")
                continue
            doc = json.loads(text)
            try:
                problems = op.check(doc, state)
            except Exception:
                problems = [f"check raised {traceback.format_exc(limit=3)}"]
            if text != self.first_texts[i]:
                problems.append("document differs from the first iteration's")
            elif first and self.reference is not None:
                problems += workloads.compare_docs(doc, self.reference[i]["doc"])[:5]
            self._fail(problems, f"{op.name}: ")
        if first:
            for run_check in workload.run_checks:
                try:
                    self._fail(run_check(state))
                except Exception:
                    self._fail([f"raised {traceback.format_exc(limit=3)}"])


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times that of its largest reaped
    pool worker: an upper bound for all the workers, as if they peaked at once.
    The kernel reports only the largest child's peak, not a sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(runner: Runner, budget: float) -> dict:
    cold = runner.iteration()
    walls = []
    while not walls or time.perf_counter() - IMPORTED_AT < budget:
        walls.append(runner.iteration())
    return {"cold_s": cold, "wall_s": walls, "peak_rss_mb": peak_rss_mb(runner.workload.workers)}


def traced_round(runner: Runner, serial_workload) -> tuple[dict, list]:
    """An untraced iteration, a traced one at the workload's worker count and,
    with a pool, a traced one at workers 1 for the layer and task times."""
    untraced = runner.iteration()
    with Tracer() as own:
        traced = runner.iteration()
    tracers = [(f"workers={runner.workload.workers}", own)]
    layers, layers_wall = own, traced
    if runner.workload.workers > 1:
        with Tracer() as layers:
            layers_wall = runner.iteration(serial_workload)
        tracers.append(("workers=1", layers))

    metrics = {key: 0 if unit in EXACT_UNITS else 0.0 for key, unit in PER_LAYER_UNITS.items()}
    self_times = layers.self_times()
    metrics.update(self_times)
    metrics.update(layers.counts)
    ops = residue_ops(layers.bv_grids) if layers.bv_grids else 0
    metrics["bv.residue_ops"] = ops
    metrics["bv.residue_bytes"] = ops * RESIDUE_OP_BYTES
    built = layers.counts["moments.witnesses_built"]
    metrics["moments.witness_yield"] = layers.counts["moments.witnesses_kept"] / built if built else 0.0

    map_s = float(own.span_seconds("parallel.ordered_map").sum())
    tasks = layers.span_seconds("parallel.task")
    metrics["parallel.map_s"] = map_s
    metrics["parallel.task_max_s"] = float(tasks.max()) if tasks.size else 0.0
    metrics["parallel.efficiency"] = float(tasks.sum()) / (runner.workload.workers * map_s) if map_s else 0.0
    metrics["other_s"] = layers_wall - sum(self_times.values())
    metrics["trace.wall_s"] = layers_wall
    metrics["trace.overhead"] = traced / untraced - 1.0
    return {k: metrics[k] for k in PER_LAYER_UNITS}, tracers


def run_traced(runner: Runner, serial_workload, budget: float) -> dict:
    runner.iteration()  # cold: fill the caches before anything is traced
    rounds, first_tracers = [], None
    while len(rounds) < 2 or time.perf_counter() - IMPORTED_AT < budget:  # two, so counts can be compared
        metrics, tracers = traced_round(runner, serial_workload)
        rounds.append(metrics)
        first_tracers = first_tracers or tracers
    exact = [k for k, unit in PER_LAYER_UNITS.items() if unit in EXACT_UNITS]
    for later in rounds[1:]:
        changed = [k for k in exact if later[k] != rounds[0][k]]
        runner._fail([f"counts differ between traced rounds: {changed}"] if changed else [])
    metrics = {k: {"value": rounds[0][k] if unit in EXACT_UNITS else statistics.median(r[k] for r in rounds),
                   "unit": unit}
               for k, unit in PER_LAYER_UNITS.items()}

    # spans stay in memory until here
    OUT.mkdir(exist_ok=True)
    arrays = {}
    for label, tracer in first_tracers:
        arrays.update({f"{label}/{k}": v for k, v in tracer.arrays().items()})
        arrays[f"{label}/names"] = np.array(tracer.names)
    spans_path = OUT / f"spans-{runner.workload.name}-seed{runner.workload.seed}.npz"
    np.savez_compressed(spans_path, **arrays)
    return {"metrics": metrics, "rounds": rounds, "spans": str(spans_path.relative_to(ROOT))}


def environment(workers: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "workers": workers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    reference = json.loads(REFERENCE.read_text())[args.workload] if args.seed == 0 else None
    runner = Runner(workload, reference)
    if args.trace:
        result = run_traced(runner, workloads.build(args.workload, args.seed, workers=1), args.budget)
    else:
        result = run_untraced(runner, args.budget)
    result.update(
        imported_at=IMPORTED_AT,
        inputs=workload.inputs,
        environment=environment(workload.workers),
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        op_seconds=runner.op_seconds,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
