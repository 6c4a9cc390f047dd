"""Deterministic block partitioning and worker-count-invariant map/reduce.

The contract every caller relies on: the partition of a range depends only on
(lo, hi, block size), and results arrive in task order, whatever a caller
then does with them (the moment sums add exact integers or take one
math.fsum).  Worker count changes scheduling, never arithmetic, so outputs
are bit-identical for 1 or 16 workers.  ordered_imap hands results over one
at a time, so a caller that folds them as they arrive need not hold one per
task.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

WORKERS_ENV = "GAPSIEVE_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins, then the environment variable, then 1."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"{WORKERS_ENV} must be >= 1, got {env}")
        return n
    return 1


def block_spans(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Split [lo, hi) into consecutive [s, e) blocks of at most `size`."""
    if lo >= hi:
        raise ValueError(f"empty range [{lo}, {hi})")
    if size < 1:
        raise ValueError("block size must be positive")
    spans = []
    s = lo
    while s < hi:
        e = min(s + size, hi)
        spans.append((s, e))
        s = e
    return spans


def ordered_imap(fn: Callable[[T], R], tasks: Sequence[T], workers: int | None = None) -> Iterator[R]:
    """Map fn over tasks, yielding results in task order regardless of
    scheduling, in at most min(workers, len(tasks), os.cpu_count()) processes
    (one: inline, each task run when its result is asked for).  The worker
    count is checked here, before anything runs."""
    tasks = list(tasks)
    nworkers = min(resolve_workers(workers), len(tasks), os.cpu_count() or 1)
    if nworkers <= 1:
        return map(fn, tasks)
    return _pooled(fn, tasks, nworkers)


def _pooled(fn, tasks, nworkers):
    # imported here, so that importing the package loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        yield from pool.map(fn, tasks)


def ordered_map(fn: Callable[[T], R], tasks: Sequence[T], workers: int | None = None) -> list[R]:
    """ordered_imap's results as a list."""
    return list(ordered_imap(fn, tasks, workers))

