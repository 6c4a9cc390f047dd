import concurrent.futures

import pytest

from gapsieve import parallel
from gapsieve.parallel import block_spans, ordered_map, resolve_workers


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize(
    "cpus, ntasks, expected",
    [(4, 10, [4]), (4, 3, [3]), (2, 10, [2]), (1, 10, []), (None, 10, []), (4, 1, [])],
)
def test_pool_never_exceeds_the_cores(pool_sizes, monkeypatch, cpus, ntasks, expected):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert ordered_map(abs, range(-ntasks, 0), workers=10**6) == list(range(ntasks, 0, -1))
    assert pool_sizes == expected


def test_pool_cap_on_this_machine(pool_sizes):
    ordered_map(abs, range(64), workers=10**6)
    assert all(size <= (parallel.os.cpu_count() or 1) for size in pool_sizes)


def test_zero_workers_in_the_environment_is_refused(monkeypatch):
    monkeypatch.setenv("GAPSIEVE_WORKERS", "0")
    with pytest.raises(ValueError, match="^GAPSIEVE_WORKERS must be >= 1, got 0$"):
        resolve_workers()


@pytest.mark.parametrize("lo, hi, size, message", [
    (5, 5, 1, r"empty range \[5, 5\)"),
    (0, 5, 0, "block size must be positive"),
])
def test_block_spans_refusals(lo, hi, size, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        block_spans(lo, hi, size)
