"""Core domain types: variables, DAGs, CPTs and whole networks.

Conventions used throughout the package:

* categories of a variable with cardinality q are the dense integers 0..q-1;
* parent lists are stored sorted ascending (the canonical form);
* a parent configuration is indexed row-major over the parents in ascending
  node order, with the *last* parent varying fastest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, CycleDetected, MalformedParents, NodeCountMismatch

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Variable:
    """A categorical variable with values 0..cardinality-1."""

    name: str
    cardinality: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.cardinality < 2:
            raise ValueError(f"variable {self.name!r}: cardinality must be >= 2")


def _canonical_parents(parents: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(map(int, ps))) for ps in parents)


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph given by per-node sorted parent lists."""

    parents: tuple[tuple[int, ...], ...]

    def __init__(self, parents: Iterable[Iterable[int]]):
        object.__setattr__(self, "parents", _canonical_parents(parents))

    @classmethod
    def _from_sorted(cls, parents: tuple[tuple[int, ...], ...]) -> "Dag":
        """A Dag over parent tuples kept as they are, so DAGs built from the
        same tuples share them. For the search only: equality and hashing
        hold only if every tuple is already canonical (sorted Python ints)."""
        dag = object.__new__(cls)
        object.__setattr__(dag, "parents", parents)
        return dag

    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        """All directed edges as (parent, child) pairs."""
        return [(p, i) for i, ps in enumerate(self.parents) for p in ps]

    def num_edges(self) -> int:
        return sum(len(ps) for ps in self.parents)

    def topological_order(self) -> list[int]:
        """Lowest-index-first topological order; raises CycleDetected."""
        n = self.num_nodes
        if all(not ps or ps[-1] < i for i, ps in enumerate(self.parents)):
            return list(range(n))  # every parent precedes its child already
        children: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, ps in enumerate(self.parents):
            indeg[i] = len(ps)
            for p in ps:
                children[p].append(i)
        import heapq

        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for c in children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) < n:
            raise CycleDetected([i for i in range(n) if i not in set(order)])
        return order


def validate_dag(dag: Dag) -> None:
    """Check acyclicity and parent-list sanity; raise on violation."""
    n = dag.num_nodes
    for i, ps in enumerate(dag.parents):
        if len(set(ps)) != len(ps):
            raise MalformedParents(i, "duplicate parents")
        for p in ps:
            if p == i:
                raise MalformedParents(i, "self-loop")
            if not 0 <= p < n:
                raise MalformedParents(i, f"parent index {p} out of range")
    dag.topological_order()


def df_complexity(dag: Dag, variables: Sequence[Variable]) -> int:
    """Number of free CPT parameters: sum_i q(Pa_i) * (q(X_i) - 1)."""
    if len(variables) != dag.num_nodes:
        raise NodeCountMismatch("variable list length != number of nodes")
    return sum(node_df(i, ps, variables) for i, ps in enumerate(dag.parents))


def node_df(node: int, parents: Sequence[int], variables: Sequence[Variable]) -> int:
    """Per-node parameter count q(Pa_i) * (q(X_i) - 1)."""
    return parent_config_count(parents, variables) * (variables[node].cardinality - 1)


def parent_set_lattice(
    predecessors: Sequence[int], max_parents: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Non-empty subsets of at most max_parents of the sorted predecessors, by
    size then lexicographically, as (prefix, start) pairs, each for the sets
    prefix + (p,), p in predecessors[start:]. The prefixes are the sets one
    size down, in this order, but those that end in the last predecessor."""
    after = {p: x + 1 for x, p in enumerate(predecessors)}  # where p's extensions start
    for m in range(min(max_parents, len(predecessors))):
        for prefix in combinations(predecessors[:-1], m):
            yield prefix, after[prefix[-1]] if prefix else 0


def parent_config_count(parents: Sequence[int], variables: Sequence[Variable]) -> int:
    q = 1
    for p in parents:
        q *= variables[p].cardinality
    return q


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class Cpt:
    """Conditional probability tables, one per node.

    tables[i] has shape (q(Pa_i), q(X_i)): one row per parent configuration
    in the canonical row-major order, each row a distribution over the
    child's states.
    """

    tables: tuple[np.ndarray, ...]

    def __init__(self, tables: Iterable[np.ndarray]):
        frozen = []
        for t in tables:
            a = np.asarray(t, dtype=float).copy()
            a.setflags(write=False)
            frozen.append(a)
        object.__setattr__(self, "tables", tuple(frozen))

    @cached_property
    def bounds(self) -> tuple[np.ndarray, ...]:
        """Read-only cumulative sums of each table's rows: forward_sample's bounds."""
        bounds = tuple(np.cumsum(t, axis=1) for t in self.tables)
        for b in bounds:
            b.setflags(write=False)
        return bounds


@dataclass(frozen=True, eq=False)  # its Cpt's arrays have no single truth value
class BayesNet:
    """A discrete Bayesian network: variables, structure and CPTs."""

    variables: tuple[Variable, ...]
    dag: Dag
    cpt: Cpt

    def __init__(self, variables: Iterable[Variable], dag: Dag, cpt: Cpt):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        validate_dag(dag)
        if len(variables) != dag.num_nodes:
            raise NodeCountMismatch("variables vs dag size")
        if len(cpt.tables) != dag.num_nodes:
            raise ValueError("cpt must have one table per node")
        for i, table in enumerate(cpt.tables):
            q_pa = parent_config_count(dag.parents[i], variables)
            q_i = variables[i].cardinality
            if table.shape != (q_pa, q_i):
                raise ValueError(
                    f"node {names[i]}: cpt shape {table.shape}, expected ({q_pa}, {q_i})"
                )
            if not np.all((table >= 0) & (table <= 1)):  # also rejects NaN
                raise ValueError(f"node {names[i]}: cpt entries must lie in [0,1]")
            bad = np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL
            if np.any(bad):
                raise ValueError(
                    f"node {names[i]}: cpt row(s) {np.nonzero(bad)[0].tolist()} do not sum to 1"
                )
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "cpt", cpt)

    @property
    def num_nodes(self) -> int:
        return len(self.variables)

    def df(self) -> int:
        return df_complexity(self.dag, self.variables)


def read_json(path, build):
    """build(obj) of the JSON document at `path`.

    Invalid JSON, a missing key and a value that `build` rejects with
    ValueError or TypeError become a ConfigError naming the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return build(json.load(f))
        except KeyError as exc:
            raise ConfigError(f"{path}: missing key {exc.args[0]!r}") from None
        except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"{path}: {exc}") from None


def json_int(value) -> int:
    """An integer read from JSON: an int or an integral float, never a bool."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def json_number(value):
    """`value` if it is a JSON number: not a bool, which float() and int() would
    read as 0 or 1, nor a string, which float() would parse."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def json_list(value) -> list:
    """`value` if it is a JSON list: a string would be read character by character."""
    if type(value) is not list:
        raise ValueError(f"expected a list, got {value!r}")
    return value


def parent_lists_from_json(candidates) -> list:
    """Parent lists from a non-empty JSON list of DAGs, each a list of parent lists;
    any other shape, or a parent that is not an integer, is a ValueError."""
    # type passes in C: a candidate file can list thousands of DAGs
    if not (type(candidates) is list and candidates and set(map(type, candidates)) <= {list}
            and set(map(type, chain.from_iterable(candidates))) <= {list}):
        raise ValueError("expected a non-empty list of DAGs, each a list of parent lists")
    if not set(map(type, chain.from_iterable(chain.from_iterable(candidates)))) <= {int}:
        candidates = [[[json_int(p) for p in ps] for ps in parents] for parents in candidates]
    return candidates


def _check_candidate(parents: Sequence[Sequence[int]], num_nodes: int) -> None:
    if len(parents) != num_nodes:
        raise NodeCountMismatch(f"candidate has {len(parents)} nodes, the net {num_nodes}")
    validate_dag(Dag(parents))


def parent_masks(candidates: Sequence[Sequence[Sequence[int]]], num_nodes: int) -> np.ndarray:
    """The (D, N) int64 parent bitmasks of D candidate DAGs given as parent lists:
    entry [g, i] has bit p set when p is a parent of node i in candidate g.

    Every candidate is checked as validate_dag checks a Dag, and for the first
    malformed one in input order the same error is raised, or NodeCountMismatch
    when it has other than num_nodes nodes. num_nodes must be below 63.
    """
    D, N = len(candidates), num_nodes
    nodes = np.fromiter(map(len, candidates), np.int32, D)
    F = int(nodes.sum())
    sizes = np.fromiter(map(len, chain.from_iterable(candidates)), np.int32, F)
    try:
        bits = np.fromiter(chain.from_iterable(chain.from_iterable(candidates)), np.int64,
                           int(sizes.sum()))
    except OverflowError:  # a parent beyond int64 is out of range: check one by one
        for g in candidates:
            _check_candidate(g, N)
        raise
    starts = np.repeat((np.cumsum(nodes) - nodes).astype(np.int32), nodes)
    node = np.arange(F, dtype=np.int32) - starts  # the node of each family
    owner = np.repeat(np.arange(F, dtype=np.int32), sizes)  # the family of each parent
    # a negative, out-of-range or self parent sets bit N
    bits[(bits < 0) | (bits >= N) | (bits == node[owner])] = N
    np.left_shift(1, bits, out=bits)
    masks = np.zeros(F, np.int64)
    np.bitwise_or.at(masks, owner, bits)
    total = np.zeros(F, np.int64)
    np.add.at(total, owner, bits)  # above the mask where a parent repeats
    del bits, owner
    bad_family = (total != masks) | (masks >> N != 0)
    candidate = np.repeat(np.arange(D, dtype=np.int32), nodes)  # the candidate of each family
    bad = (nodes != N) | (np.bincount(candidate, bad_family, D) > 0)
    first_bad = int(np.argmax(bad)) if bad.any() else D
    # a candidate whose every parent precedes its child is acyclic
    late = np.bincount(candidate, masks >> (node + 1) != 0, D) > 0
    for g in np.flatnonzero(late[:first_bad]).tolist():
        _check_candidate(candidates[g], N)
    if first_bad < D:
        _check_candidate(candidates[first_bad], N)
    return masks.reshape(D, N)


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


def structure_to_dict(dag: Dag, variables: Sequence[Variable]) -> dict:
    """Structure-only variant of the network format (no "cpt" key)."""
    return {
        "variables": [
            {"name": v.name, "cardinality": v.cardinality} for v in variables
        ],
        "parents": [list(ps) for ps in dag.parents],
    }


def structure_from_dict(obj: dict) -> tuple[list[Variable], Dag]:
    variables = [Variable(d["name"], json_int(d["cardinality"])) for d in obj["variables"]]
    if not (type(obj["parents"]) is list and set(map(type, obj["parents"])) <= {list}):
        raise ValueError('"parents": expected a list of parent lists')
    (parents,) = parent_lists_from_json([obj["parents"]])
    dag = Dag(parents)
    validate_dag(dag)
    if dag.num_nodes != len(variables):
        raise NodeCountMismatch("variables vs parents length")
    return variables, dag


def net_from_dict(obj: dict) -> BayesNet:
    variables, dag = structure_from_dict(obj)
    tables = json_list(obj["cpt"])
    for table in tables:  # a bool or a string would pass np.asarray(dtype=float)
        entries = np.array(table, dtype=object).ravel()
        if not set(map(type, entries)) <= {int, float}:
            raise ValueError(f'"cpt": expected tables of numbers, got {table!r}')
    return BayesNet(variables, dag, Cpt(tables))


def load_net(path) -> BayesNet:
    return read_json(path, net_from_dict)


def save_structure(dag: Dag, variables: Sequence[Variable], path) -> None:
    write_json(structure_to_dict(dag, variables), path)


def load_structure(path) -> tuple[list[Variable], Dag]:
    return read_json(path, structure_from_dict)
