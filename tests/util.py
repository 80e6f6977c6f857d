"""Shared helpers for the test suite: DAG enumeration, random generators and
a network file writer."""

from __future__ import annotations

import os
from itertools import product

import numpy as np

import nalearn.pool
from nalearn import BayesNet, Cpt, Dag, Dataset, Variable
from nalearn.model import parent_config_count, structure_to_dict, write_json


def all_dags(num_nodes: int) -> list[Dag]:
    """Every DAG on num_nodes labelled nodes (25 of them for 3 nodes)."""
    nodes = range(num_nodes)
    per_node = []
    for i in nodes:
        others = [j for j in nodes if j != i]
        subsets = []
        for bits in range(1 << len(others)):
            subsets.append(tuple(o for b, o in enumerate(others) if bits >> b & 1))
        per_node.append(subsets)
    out = []
    for combo in product(*per_node):
        dag = Dag(combo)
        try:
            dag.topological_order()
        except Exception:
            continue
        out.append(dag)
    return out


def random_cpt(dag: Dag, variables, rng, concentration: float = 1.0) -> Cpt:
    tables = []
    for i, v in enumerate(variables):
        q_pa = parent_config_count(dag.parents[i], variables)
        tables.append(rng.dirichlet([concentration] * v.cardinality, size=q_pa))
    return Cpt(tables)


def random_net(num_nodes: int, rng, max_card: int = 3, max_parents: int = 3) -> BayesNet:
    """A random DAG compatible with the identity order, with Dirichlet CPTs."""
    variables = [
        Variable(f"X{i + 1}", int(rng.integers(2, max_card + 1)))
        for i in range(num_nodes)
    ]
    parents = []
    for i in range(num_nodes):
        preds = list(range(i))
        size = int(rng.integers(0, min(max_parents, len(preds)) + 1))
        chosen = sorted(rng.choice(preds, size=size, replace=False).tolist()) if size else []
        parents.append(chosen)
    dag = Dag(parents)
    return BayesNet(variables, dag, random_cpt(dag, variables, rng))


def random_dataset(variables, n: int, rng, missing_frac: float = 0.0) -> Dataset:
    """Uniform random categorical records with optional MCAR masking."""
    cols = [rng.integers(0, v.cardinality, size=n) for v in variables]
    values = np.stack(cols, axis=1).astype(np.int16)
    if missing_frac > 0:
        mask = rng.random(values.shape) < missing_frac
        values[mask] = -1
    return Dataset(variables, values)


def net_to_dict(net: BayesNet) -> dict:
    """The network file format that load_net reads: the structure plus "cpt"."""
    obj = structure_to_dict(net.dag, net.variables)
    obj["cpt"] = [t.tolist() for t in net.cpt.tables]
    return obj


def save_net(net: BayesNet, path) -> None:
    write_json(net_to_dict(net), path)


def force_pools(monkeypatch, cpus: int = 2) -> list[dict]:
    """cpus usable CPUs and no floor, so every pool_map call with work and two
    or more items pools; returns the keyword arguments of every process pool
    opened from now on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", 0)
    return record_pools(monkeypatch)


def record_pools(monkeypatch) -> list[dict]:
    """The keyword arguments of every process pool that nalearn.pool opens from now on."""
    opened = []
    real = nalearn.pool.ProcessPoolExecutor

    def counting(*args, **kwargs):
        opened.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", counting)
    return opened


def fail_to_fork(*args, **kwargs):
    """A ProcessPoolExecutor that cannot start."""
    raise OSError(11, "Resource temporarily unavailable")


def exit_at_once(*args):
    """A pool initializer whose worker dies: the pool breaks."""
    os._exit(1)
