"""pool_map: item order, heaviest-first batches, the floor, the fallbacks and
no nesting."""

import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import nalearn.pool
import nalearn.search
from nalearn import BIC, Dataset, SearchSpace, Variable
from nalearn.pool import POOL_FLOOR, pool_map
from nalearn.search import complexity_profile, learn_structure

from util import exit_at_once, fail_to_fork, force_pools, random_dataset, record_pools


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


def _in_process(shared, item):
    return os.getpid(), shared * item


def test_the_floor_weighs_the_sum_of_the_costs(monkeypatch):
    monkeypatch.setattr(nalearn.pool, "_usable_cpus", lambda: 2)
    opened = record_pools(monkeypatch)
    assert pool_map(_scaled, 1, [1, 2], [POOL_FLOOR // 2, POOL_FLOOR // 2 - 1]) == [1, 2]
    assert opened == []  # one short of the floor: the caller did the work
    assert pool_map(_scaled, 1, [1, 2], [POOL_FLOOR // 2, POOL_FLOOR // 2]) == [1, 2]
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failure", ["no pool", "workers die"])
def test_a_pool_that_fails_leaves_the_work_to_the_caller(monkeypatch, failure):
    force_pools(monkeypatch)
    if failure == "no pool":  # OSError
        monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", fail_to_fork)
    else:  # every worker exits in its initializer: BrokenProcessPool
        monkeypatch.setattr(nalearn.pool, "_start_worker", exit_at_once)
    results = pool_map(_in_process, 2, [1, 2, 3], [1, 1, 1])
    assert results == [(os.getpid(), 2), (os.getpid(), 4), (os.getpid(), 6)]
    assert multiprocessing.active_children() == []


def _nested(shared, item):
    """The pid of the process that runs it, and a pool_map of two items run from there."""
    return os.getpid(), pool_map(_in_process, shared, [item, item + 1], [1, 1])


def test_a_pool_map_inside_a_worker_runs_in_that_worker(monkeypatch):
    opened = force_pools(monkeypatch)
    outer = pool_map(_nested, 2, [1, 3], [1, 1])
    for (worker, inner), item in zip(outer, [1, 3]):
        assert worker != os.getpid()
        assert inner == [(worker, 2 * item), (worker, 2 * item + 2)]
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


def test_learn_structure_above_the_floor_opens_the_one_pool_the_profile_reuses(monkeypatch):
    """The tables equal a one-CPU run's bit for bit."""
    variables = [Variable(f"X{i}", q) for i, q in enumerate([2, 3, 2, 4, 3])]
    data = random_dataset(variables, 200, np.random.default_rng(23), 0.2)
    space = SearchSpace([3, 0, 4, 1, 2], 2)
    opened = force_pools(monkeypatch)
    learned = learn_structure(data, space, BIC)
    assert [kwargs["max_workers"] for kwargs in opened] == [2]
    profile = complexity_profile(data, space)
    assert len(opened) == 1 and multiprocessing.active_children() == []
    monkeypatch.setattr(nalearn.pool, "_usable_cpus", lambda: 1)
    serial = Dataset(variables, data.values)
    assert learn_structure(serial, space, BIC) == learned
    assert complexity_profile(serial, space) == profile
    assert len(opened) == 1
    assert sorted(serial.family_scores) == sorted(data.family_scores)
    for key, table in serial.family_scores.items():
        assert [(a.dtype, a.tobytes()) for a in data.family_scores[key]] == [
            (a.dtype, a.tobytes()) for a in table]


def test_below_the_floor_learn_structure_builds_every_table_in_the_caller(monkeypatch):
    """In node order, each table equal to the one the builder makes alone."""
    monkeypatch.setattr(nalearn.pool, "_usable_cpus", lambda: 2)
    opened = record_pools(monkeypatch)
    built = []
    real = nalearn.search._node_table

    def recording(shared, node):
        built.append((os.getpid(), node))
        return real(shared, node)

    monkeypatch.setattr(nalearn.search, "_node_table", recording)
    variables = [Variable(f"X{i}", q) for i, q in enumerate([2, 3, 2, 4, 3])]
    data = random_dataset(variables, 200, np.random.default_rng(17), 0.2)
    space = SearchSpace([3, 0, 4, 1, 2], 2)
    assert sum(map(space.num_candidates, range(5))) * data.num_records < POOL_FLOOR
    learn_structure(data, space, BIC)
    assert opened == []
    assert built == [(os.getpid(), node) for node in range(5)]
    fresh = Dataset(variables, data.values)
    for node in range(5):
        key = (node, tuple(sorted(space.predecessors(node))), space.max_parents)
        alone = real((fresh, space), node)
        assert [(a.dtype, a.tobytes()) for a in data.family_scores[key]] == [
            (a.dtype, a.tobytes()) for a in alone]
    assert len(data.family_scores) == 5
