"""Spans and work counts recorded around gapsieve's public functions.

Tracer.install() replaces every public function of the eight layer modules,
in every gapsieve namespace that binds it (so `from .weights import
lambda_block` inside moments is wrapped too), with a wrapper that records a
span (name, start, end, parent) and updates the work counts.  uninstall()
puts the originals back.  Spans live in flat arrays in memory and are written
out once, when the run ends.

A layer's self time is the duration of its spans minus the part their child
spans cover.  `parallel` is the exception: ordered_map runs the chunk
functions inline at workers 1, and the time under it that no wrapped layer
claims is the caller's chunk work, so parallel self time is charged to the
nearest enclosing non-parallel span.  Task spans are recorded only for inline
execution; a pool worker's spans would stay in the worker.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

import gapsieve.parallel
from workloads import small_primes

LAYERS = ("primes", "tuples", "singular", "weights", "moments", "bv", "parallel", "serialize")

# self-time metric of each layer; the listed functions get a metric of their own
TIME_METRIC = {
    "primes": "primes.sieve_s",
    "tuples": "tuples.omega_s",
    "singular": "singular.series_s",
    "weights": "weights.block_s",
    "moments": "moments.chunk_s",
    "bv": "bv.grid_s",
    "serialize": "serialize.json_s",
}
FUNCTION_TIME_METRIC = {
    "weights.divisor_table": "weights.table_s",
    "bv.totients_upto": "bv.totient_s",
}
# functions whose count is simply their number of calls
CALL_COUNT = {
    "tuples.omega_size": "tuples.omega_calls",
    "tuples.omega_residues": "tuples.omega_calls",
    "singular.singular_series": "singular.series_calls",
    "bv.totients_upto": "bv.totient_builds",
}
TASK = "parallel.task"
# bytes a residue op moves: read p, write p mod q, read it back with the
# log weight, add into the bucket (8 bytes each); computed, not measured
RESIDUE_OP_BYTES = 40


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._table_passes: dict = {}
        self.bv_grids: list[tuple[tuple[int, ...], int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _caller(self) -> str:
        i = self._stack[-1]
        return self.names[self.name[i]] if i >= 0 else ""

    def wrap(self, qualname: str, fn):
        nid = self._id(qualname)
        count = getattr(self, "_count_" + qualname.replace(".", "_"), None)
        resolve = getattr(gapsieve.parallel.resolve_workers, "__wrapped__", gapsieve.parallel.resolve_workers)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not its creation
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    yield item
        elif qualname == "parallel.ordered_map":
            def wrapper(fn_, tasks, workers=None):
                tasks = list(tasks)
                tracer._count_ordered_map(fn_, tasks)
                i = tracer._open(nid)
                try:
                    inline = resolve(workers) <= 1 or len(tasks) <= 1
                    result = fn(tracer._task(fn_) if inline else fn_, tasks, workers)
                finally:
                    tracer._close(i)
                tracer._count_ordered_map_result(fn_, result)
                return result
        else:
            # the hot path (hundreds of thousands of calls on `density`): the
            # bookkeeping is inlined and kept outside the timestamps
            name, parent, start, end = self.name.append, self.parent.append, self.start.append, self.end
            stack, clock, counts = self._stack, time.perf_counter_ns, self.counts
            calls = CALL_COUNT.get(qualname)

            def wrapper(*args, **kwargs):
                i = len(end)
                name(nid)
                parent(stack[-1])
                end.append(0)
                stack.append(i)
                start(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                if calls is not None:
                    counts[calls] += 1
                elif count is not None:
                    count(result, *args, **kwargs)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _task(self, fn):
        nid = self._id(TASK)

        def task(arg):
            i = self._open(nid)
            try:
                return fn(arg)
            finally:
                self._close(i)

        return task

    # -- work counts ------------------------------------------------------

    def _count_primes_sieve_segment(self, result, lo, hi):
        self.counts["primes.flags"] += hi - lo

    def _count_weights_divisor_table(self, table, t, R):
        self.counts["weights.table_builds"] += 1
        self._table_passes[(t, R)] = sum(len(e.residues) for e in table)

    def _count_weights_lambda_block(self, block, t, params, lo, hi, force=False, table=None):
        self.counts["weights.block_n"] += hi - lo
        if table is not None:
            passes = sum(len(e.residues) for e in table)
        else:
            passes = self._table_passes[(t, params.R)]
        self.counts["weights.strided_passes"] += passes

    def _count_moments_two_primes_detector(self, report, *args, **kwargs):
        self.counts["moments.flagged"] += report.positive_count
        self.counts["moments.witnesses_kept"] += len(report.witnesses)

    def _count_bv_bv_deviation(self, table, *args, **kwargs):
        q_max = len(table.rows)
        self.counts["bv.grid_points"] += len(table.y_grid)
        self.counts["bv.moduli"] += len(table.y_grid) * (q_max - 1)
        self.bv_grids.append((table.y_grid, q_max))

    def _count_serialize_canonical_json(self, text, *args, **kwargs):
        self.counts["serialize.bytes"] += len(text.encode())

    def _count_ordered_map(self, fn, tasks):
        self.counts["parallel.tasks"] += len(tasks)
        if self._caller().startswith("moments."):
            self.counts["moments.chunks"] += len(tasks)

    def _count_ordered_map_result(self, fn, results):
        # the detector's chunk results carry the witnesses each chunk built
        if getattr(fn, "__name__", "") == "_detector_chunk":
            self.counts["moments.witnesses_built"] += sum(len(r[2]) for r in results)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"gapsieve.{name}"] for name in LAYERS}
        namespaces = [m for key, m in sys.modules.items() if key == "gapsieve" or key.startswith("gapsieve.")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def self_times(self) -> dict[str, float]:
        """Self seconds per time metric, parallel time charged to its caller."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        key_of_name = [_metric_of(n) for n in self.names]
        keys = [""] * len(dur)
        for i, (nid, p) in enumerate(zip(a["name"].tolist(), a["parent"].tolist())):
            key = key_of_name[nid]
            # parents precede their children, so keys[p] is already set
            keys[i] = key if key is not None else (keys[p] if p >= 0 else "parallel.self_s")
        out: Counter = Counter()
        for key, seconds in zip(keys, own.tolist()):
            out[key] += seconds * 1e-9
        return dict(out)

    def span_seconds(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        a = self.arrays()
        mask = a["name"] == self._ids[name]
        return (a["end_ns"][mask] - a["start_ns"][mask]) * 1e-9


def _metric_of(qualname: str) -> str | None:
    if qualname in FUNCTION_TIME_METRIC:
        return FUNCTION_TIME_METRIC[qualname]
    return TIME_METRIC.get(qualname.split(".")[0])  # None for parallel


def residue_ops(grids: list[tuple[tuple[int, ...], int]]) -> int:
    """Sum over grid points of (primes in (y, 2y]) * (moduli bucketed)."""
    top = max(2 * y for ys, _ in grids for y in ys)
    primes = small_primes(top)
    total = 0
    for ys, q_max in grids:
        for y in ys:
            count = int(np.searchsorted(primes, 2 * y, side="right") - np.searchsorted(primes, y, side="right"))
            total += count * (q_max - 1)
    return total
