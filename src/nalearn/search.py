"""Structure search over order-compatible DAGs with bounded in-degree.

The decomposable score makes per-node selection independent, so the global
argmax is assembled from per-node winners. The complexity profile combines
per-node (df, best NAL) Pareto frontiers with an exact-knapsack dynamic
program over total complexity.

Tie-breaking: higher score first, then smaller df, then the lexicographically
smallest sorted parent list. The profile breaks ties node by node as its DP
adds each node's NAL, not on the final totals: where two prefixes differ by a
rounding error that a later add absorbs, a point's DAG attains the best total
but need not be the lexicographically smallest DAG that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import Dataset, count_families, count_sufficient_stats
from .errors import AllCandidatesUnobservable, SchemaMismatch, StateSpaceTooLarge
from .model import Dag, node_df
from .pool import pool_map
from .scoring import (
    NEG_INFINITY,
    NodeScore,
    Penalty,
    lambda_value,
    node_nal_from_counts,
    stacked_nal,
)

# Candidate parent sets of a whole space, above which SearchSpace refuses it.
# A listed set takes about 87 bytes and a table entry 24. On the 37-node
# benchmark structure at n = 1000 (kper:2, one CPU of a 2-vCPU host) the search
# took 16 us a family at max_parents 3 (74,518 families, 1.2 s, 44 MiB peak)
# and 69 us at 5 (2,835,199 families, 3.3 min, 237 MiB peak). At 2^24
# families the tables alone hold 384 MiB and the search runs for 4.5 to 19
# minutes; max_parents 8 there, 176,142,311 families, would take gigabytes
# and hours before any output.
FAMILY_CAP = 1 << 24


@dataclass(frozen=True)
class SearchSpace:
    """All parent sets of strict order-predecessors up to max_parents; a space
    of more than FAMILY_CAP sets is refused before any is listed."""

    order: tuple[int, ...]
    max_parents: int = 3

    def __init__(self, order: Sequence[int], max_parents: int = 3):
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order must be a permutation of 0..N-1")
        if max_parents < 0:
            raise ValueError("max_parents must be nonnegative")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "max_parents", max_parents)
        families = sum(map(self.num_candidates, order))
        if families > FAMILY_CAP:
            raise StateSpaceTooLarge(f"the search space holds {families} candidate parent "
                                     f"sets, above the cap of {FAMILY_CAP}; lower max_parents")

    @property
    def num_nodes(self) -> int:
        return len(self.order)

    def predecessors(self, node: int) -> tuple[int, ...]:
        rank = self.order.index(node)
        return self.order[:rank]

    def num_candidates(self, node: int) -> int:
        """len(candidate_parent_sets(node)), without listing them."""
        m = len(self.predecessors(node))
        return sum(math.comb(m, k) for k in range(min(self.max_parents, m) + 1))

    def candidate_parent_sets(self, node: int) -> list[tuple[int, ...]]:
        """Subsets of predecessors, by size then lexicographic order."""
        preds = sorted(self.predecessors(node))
        out: list[tuple[int, ...]] = []
        for m in range(min(self.max_parents, len(preds)) + 1):
            out.extend(combinations(preds, m))
        return out


@dataclass(frozen=True)
class ProfilePoint:
    t: int  # total complexity (df)
    best_score: float  # total NAL at that complexity
    dag: Dag


def _node_table(
    data: Dataset, node: int, space: SearchSpace, candidates: list[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nal, n_i, df) arrays over the node's candidates, memoized in data.family_scores.

    candidates is space.candidate_parent_sets(node), whose order the arrays
    follow. The first, the empty set, is scored on its own; every larger set
    extends a prefix and is scored in chunks by count_families.
    """
    key = _table_key(node, space)
    table = data.family_scores.get(key)
    if table is None:
        root = count_sufficient_stats(data, node, candidates[0])
        nal = [np.array([node_nal_from_counts(root)])]
        n_i = [np.array([root.n_i])]
        df = [np.array([node_df(node, root.parents, data.variables)])]
        q_i = data.variables[node].cardinality
        for n_ikj, widths in count_families(data, node, candidates[1:]):
            chunk_nal, chunk_n_i = stacked_nal(n_ikj, widths)
            nal.append(chunk_nal)
            n_i.append(chunk_n_i)
            df.append(widths * (q_i - 1))
        table = data.family_scores[key] = (
            np.concatenate(nal), np.concatenate(n_i), np.concatenate(df)
        )
    return table


def _table_key(node: int, space: SearchSpace) -> tuple[int, tuple[int, ...], int]:
    return node, tuple(sorted(space.predecessors(node))), space.max_parents


def fill_family_scores(data: Dataset, space: SearchSpace) -> None:
    """Build every node's table in data.family_scores through pool_map, largest
    nodes first, weighing Σ candidates × records of work. The tables equal the
    search's own bit for bit, whatever the worker count; where no pool runs,
    the search builds each table as it needs it."""
    _check_space(data, space)
    sizes = {node: space.num_candidates(node) for node in range(space.num_nodes)
             if _table_key(node, space) not in data.family_scores}
    nodes = sorted(sizes, key=sizes.get, reverse=True)
    tables = pool_map(_pooled_table, (data, space), nodes, sum(sizes.values()) * data.num_records)
    for node, table in zip(nodes, tables or ()):
        data.family_scores[_table_key(node, space)] = table


def _pooled_table(shared, node: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data, space = shared
    return _node_table(data, node, space, space.candidate_parent_sets(node))


def _check_space(data: Dataset, space: SearchSpace) -> None:
    if space.num_nodes != data.num_variables:
        raise SchemaMismatch("search space and data disagree on node count")


def best_parent_set(data: Dataset, node: int, space: SearchSpace, penalty: Penalty) -> NodeScore:
    """Exhaustive per-node winner under the decomposable score."""
    _check_space(data, space)
    candidates = space.candidate_parent_sets(node)
    nal, n_i, df = _node_table(data, node, space, candidates)
    # lambda once per distinct n_i > 0; an unobservable family (n_i = 0) keeps -inf
    sizes, which = np.unique(n_i, return_inverse=True)
    lam = np.array([lambda_value(penalty, int(m)) if m > 0 else 0.0 for m in sizes])
    score = nal - lam[which] * df
    top = score.max()
    if top == NEG_INFINITY:
        raise AllCandidatesUnobservable(f"node {node}: every candidate has n_i = 0")
    tied = np.flatnonzero(score == top)
    tied = tied[df[tied] == df[tied].min()]
    k = min(tied, key=lambda k: candidates[k])
    return NodeScore(node, candidates[k], float(nal[k]), int(n_i[k]), int(df[k]), float(top))


def learn_structure(data: Dataset, space: SearchSpace, penalty: Penalty) -> Dag:
    """Argmax of the decomposable score over the order-compatible space."""
    _check_space(data, space)
    return Dag(best_parent_set(data, i, space, penalty).parents for i in range(space.num_nodes))


def _node_frontier(
    data: Dataset, node: int, space: SearchSpace
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, ...]]]:
    """Pareto frontier of one node: df (int64) and best NAL (float64) arrays,
    and the parent set of each entry.

    Frontier entries have strictly increasing df and strictly increasing NAL;
    a larger parent set that fails to improve the NAL is dominated and drops
    out (the minimal-complexity convention).
    """
    candidates = space.candidate_parent_sets(node)
    nal, _, df = _node_table(data, node, space, candidates)
    observed = np.flatnonzero(nal != NEG_INFINITY)
    if observed.size == 0:
        raise AllCandidatesUnobservable(f"node {node}: every candidate has n_i = 0")
    # by df, then NAL from the top; each df's first is its best, and a df
    # enters the frontier when its best beats every smaller df's
    ranked = observed[np.lexsort((-nal[observed], df[observed]))]
    starts = np.flatnonzero(np.diff(df[ranked], prepend=-1))
    top = nal[ranked[starts]]
    entries = _new_highs(top)
    ends = np.append(starts[1:], len(ranked))
    parents = []
    for a, b, best in zip(starts[entries].tolist(), ends[entries].tolist(), top[entries]):
        group = ranked[a:b]
        parents.append(min(candidates[k] for k in group[nal[group] == best].tolist()))
    return df[ranked[starts[entries]]], top[entries], parents


def complexity_profile(data: Dataset, space: SearchSpace) -> list[ProfilePoint]:
    """Best total NAL at each achievable total complexity t.

    Points dominated by a cheaper structure with at least the same NAL are
    pruned, so t and best_score are both strictly increasing.

    The DP's states after node k are the reachable total dfs, a sorted array,
    with the best total NAL of each: the NAL of nodes 0..k added in node
    order. A state's successors are its total plus each frontier entry's df,
    so the candidates of node k are F shifted copies of the states, F the
    frontier's length. One stable sort merges them and a reduceat takes each
    total's best; among exactly equal totals the candidate whose parent
    tuples are smaller, node 0 first, wins. Ties are thus broken at each
    node's step, never on the final totals. Each node keeps the sorted totals
    and the frontier entry each state took; the kept points are traced back
    through them at once.
    """
    _check_space(data, space)
    t = np.zeros(1, dtype=np.int64)
    score = np.zeros(1)
    steps = []  # per node: (its frontier's df and parents, t after it, entry each state took)
    for node in range(space.num_nodes):
        df, nal, parents = _node_frontier(data, node, space)
        keys = (df[:, None] + t).ravel()
        order = np.argsort(keys, kind="stable")  # merges the F sorted runs
        keys = keys[order]
        totals = (nal[:, None] + score).ravel()[order]  # the same adds as value + score
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        best = np.maximum.reduceat(totals, starts)
        hits = np.flatnonzero(totals == np.repeat(best, np.diff(starts, append=len(keys))))
        # each total's first hit wins unless the total has more than one
        first = np.flatnonzero(np.diff(np.searchsorted(starts, hits, side="right"), prepend=0))
        last = np.append(first[1:], len(hits))
        winner = order[hits[first]]
        for g in np.flatnonzero(last - first > 1).tolist():
            tied = order[hits[first[g]:last[g]]].tolist()
            winner[g] = min(tied, key=lambda c: (
                _trace_back(steps, np.array([c % len(t)]))[0], parents[c // len(t)]))
        pick = (winner // len(t)).astype(np.min_scalar_type(len(df) - 1))
        t, score = keys[starts], best
        steps.append((df, parents, t, pick))
    keep = _new_highs(score)
    chosen = _trace_back(steps, keep)
    return [ProfilePoint(int(tk), float(sk), Dag._from_sorted(dag))
            for tk, sk, dag in zip(t[keep].tolist(), score[keep].tolist(), chosen)]


def _new_highs(values: np.ndarray) -> np.ndarray:
    """Indices of the values above every value before them."""
    return np.flatnonzero(values > np.maximum.accumulate(np.append(NEG_INFINITY, values[:-1])))


def _trace_back(steps: list, states: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """The parent tuples, node 0 first, that reach each of states (indices into
    the last step's totals); points share the frontiers' tuple objects."""
    columns = []
    for df, parents, t, pick in reversed(steps):
        entry = pick[states]
        columns.append([parents[e] for e in entry.tolist()])
        if len(steps) > len(columns):
            states = np.searchsorted(steps[-len(columns) - 1][2], t[states] - df[entry])
    return list(zip(*reversed(columns))) if columns else [()] * len(states)


def select_from_profile(
    profile: Sequence[ProfilePoint], penalty: Penalty, n: int
) -> ProfilePoint:
    """Final model choice: maximize best_score - lambda_n * t over the profile."""
    lam = lambda_value(penalty, n)
    best = None
    for point in profile:
        value = point.best_score - lam * point.t
        if best is None or value > best[0] or (value == best[0] and point.t < best[1].t):
            best = (value, point)
    if best is None:
        raise ValueError("empty profile")
    return best[1]
