"""The one process-pool policy: the search's node tables and the Monte Carlo
replicates both run through pool_map, which sizes the pool from the work and
the machine, never from an option. Called inside a worker, pool_map runs the
work there, so pools never nest."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

# Work (candidate parent sets × records) below which no pool runs. On a
# 2-vCPU host a 2-worker pool took 22 ms (median of 14, max 26) to start, run
# 37 trivial tasks and shut down; spawn took 455 ms and forkserver 123 ms,
# hence fork. Serial tables cost 13-15 ns per family-row, so two workers save
# about 7 ns a row and pay for the pool from about 3e6 rows; 2^22 is 4.2e6.
# A replicate costs about 9.5 ns per family-row (1.9 ms for the two-node
# table's 2 families at n = 1e5, median of 40 in-process runs; 1.6 ms of it
# sampling and masking, 0.3 ms counting off the histogram), so the floor
# serves both.
POOL_FLOOR = 1 << 22


# Batches each worker is sent over one pool_map call. Sent one at a time, a
# trivial task cost 0.13-0.17 ms of dispatch (1,000 and 4,000 tasks on two
# forked workers of a 2-vCPU host, median of 9) and in batches of 31 about
# 5 us. Half the two-node table's 1,000 replicates (n = 100 and 1000) run in
# 0.11-0.14 ms, so sent alone they cost about as much to send as to run.
# Sixteen batches a worker leave the last, lightest ones to even out the
# workers' finish.
BATCHES_PER_WORKER = 16


def pool_map(function, shared, items: list, costs: list[int]) -> list:
    """[function(shared, item) for item in items], in forked workers, one per
    usable CPU and at most one per item; each worker gets shared once, through
    the pool's initializer. costs[i] weighs items[i] in candidate parent sets
    × records: the items go out heaviest first (equal costs in item order), in
    batches of len(items) // (workers × BATCHES_PER_WORKER), at least 1, and
    the results come back in item order. The calling process does the work
    itself inside a worker of another pool_map (whatever the costs), on one
    CPU, below POOL_FLOOR in all, without fork, or when the pool cannot start
    or its workers die. An exception that function raises reaches the caller."""
    workers = min(_usable_cpus(), len(items))
    if (_worker_job is None and workers >= 2 and sum(costs) >= POOL_FLOOR
            and "fork" in multiprocessing.get_all_start_methods()):
        order = sorted(range(len(items)), key=costs.__getitem__, reverse=True)  # stable
        batch = max(1, len(items) // (workers * BATCHES_PER_WORKER))
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker, initargs=(function, shared),
            ) as pool:
                done = pool.map(_run, [items[i] for i in order], chunksize=batch)
                results = dict(zip(order, done))
            return [results[i] for i in range(len(items))]
        except (OSError, BrokenProcessPool):  # no pool started, or its workers died
            pass
    return [function(shared, item) for item in items]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


# a worker's function and shared argument, set by its initializer; None outside a worker
_worker_job = None


def _start_worker(function, shared) -> None:
    global _worker_job
    _worker_job = function, shared


def _run(item):
    function, shared = _worker_job
    return function(shared, item)
