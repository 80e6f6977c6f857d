"""The one process-pool policy: learn's node tables and the Monte Carlo
replicates both run through pool_map, which sizes the pool from the work and
the machine, never from an option. The library functions the work calls open
no pool, so pools never nest."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

# Work (candidate parent sets × records) below which no pool runs. On a
# 2-vCPU host a 2-worker pool took 22 ms (median of 14, max 26) to start, run
# 37 trivial tasks and shut down; spawn took 455 ms and forkserver 123 ms,
# hence fork. Serial tables cost 13-15 ns per family-row, so two workers save
# about 7 ns a row and pay for the pool from about 3e6 rows; 2^22 is 4.2e6.
# A replicate costs about 9 ns per family-row (1.85 ms for the two-node
# table's 2 families at n = 1e5), so the floor serves both.
POOL_FLOOR = 1 << 22


def pool_map(function, shared, items: list, work: int) -> list | None:
    """[function(shared, item) for item in items] in forked workers, one per
    usable CPU and at most one per item; each worker gets shared once, through
    the pool's initializer. None, for the caller to do the work, on one CPU,
    below POOL_FLOOR, without fork, or when the pool cannot start or its
    workers die. An exception that function raises reaches the caller."""
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or work < POOL_FLOOR or "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(function, shared),
        ) as pool:
            return list(pool.map(_run, items))
    except (OSError, BrokenProcessPool):
        return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


# a worker's function and shared argument, set by its initializer; never set in the caller
_worker_job = None


def _start_worker(function, shared) -> None:
    global _worker_job
    _worker_job = function, shared


def _run(item):
    function, shared = _worker_job
    return function(shared, item)
