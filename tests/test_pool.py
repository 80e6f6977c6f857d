"""pool_map: item order, heaviest-first batches, the floor and the fallbacks."""

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

import nalearn.pool
from nalearn.pool import POOL_FLOOR, pool_map

from util import exit_at_once, fail_to_fork, force_pools


def _scaled(shared, item):
    if item == "boom":
        raise ValueError("raised in a worker")
    return shared * item


@pytest.fixture
def sent(monkeypatch):
    """Two usable CPUs and no floor; returns (items, chunksize) of every
    executor map that pool_map calls from now on."""
    force_pools(monkeypatch)
    maps = []

    class Recording(ProcessPoolExecutor):
        def map(self, fn, items, chunksize=1):
            maps.append((list(items), chunksize))
            return super().map(fn, maps[-1][0], chunksize=chunksize)

    monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", Recording)
    return maps


def test_results_come_back_in_item_order(sent):
    rng = random.Random(5)
    items = list(range(300))
    costs = [rng.randrange(1, 50) for _ in items]
    assert pool_map(_scaled, 3, items, costs) == [_scaled(3, item) for item in items]
    assert multiprocessing.active_children() == []


def test_items_go_out_heaviest_first_and_ties_in_item_order(sent):
    items = ["a", "b", "c", "d", "e", "f"]
    assert pool_map(_scaled, 2, items, [1, 3, 2, 3, 1, 2]) == [2 * item for item in items]
    assert sent == [(["b", "d", "c", "f", "a", "e"], 1)]


@pytest.mark.parametrize("count, batch", [(37, 1), (1000, 31)])
def test_batches_hold_items_over_sixteen_batches_a_worker(sent, count, batch):
    items = list(range(count))
    assert pool_map(_scaled, 1, items, [1] * count) == items
    assert [chunksize for _, chunksize in sent] == [batch]


def test_an_exception_in_a_batch_reaches_the_caller(sent):
    items = [1] * 500 + ["boom"] + [1] * 499
    with pytest.raises(ValueError, match="raised in a worker"):
        pool_map(_scaled, 1, items, [1] * len(items))
    assert sent[0][1] == 31
    assert multiprocessing.active_children() == []


def test_the_floor_weighs_the_sum_of_the_costs(monkeypatch):
    monkeypatch.setattr(nalearn.pool, "_usable_cpus", lambda: 2)
    assert pool_map(_scaled, 1, [1, 2], [POOL_FLOOR // 2, POOL_FLOOR // 2 - 1]) is None
    assert pool_map(_scaled, 1, [1, 2], [POOL_FLOOR // 2, POOL_FLOOR // 2]) == [1, 2]


@pytest.mark.parametrize("failure", ["no pool", "workers die"])
def test_a_pool_that_fails_returns_none(monkeypatch, failure):
    force_pools(monkeypatch)
    if failure == "no pool":  # OSError
        monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", fail_to_fork)
    else:  # every worker exits in its initializer: BrokenProcessPool
        monkeypatch.setattr(nalearn.pool, "_start_worker", exit_at_once)
    assert pool_map(_scaled, 1, [1, 2, 3], [1, 1, 1]) is None
    assert multiprocessing.active_children() == []
