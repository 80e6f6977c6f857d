"""Structure search over order-compatible DAGs with bounded in-degree.

The decomposable score makes per-node selection independent, so the global
argmax is assembled from per-node winners. The complexity profile combines
per-node (df, best NAL) Pareto frontiers with an exact-knapsack dynamic
program over total complexity.

Tie-breaking, everywhere: higher score first, then smaller df, then the
lexicographically smallest sorted parent list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import Dataset, count_families, count_sufficient_stats
from .errors import AllCandidatesUnobservable, SchemaMismatch
from .model import Dag, node_df
from .scoring import (
    NEG_INFINITY,
    NodeScore,
    Penalty,
    lambda_value,
    node_nal_from_counts,
    stacked_nal,
)


@dataclass(frozen=True)
class SearchSpace:
    """All parent sets of strict order-predecessors up to max_parents."""

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

    @property
    def num_nodes(self) -> int:
        return len(self.order)

    def predecessors(self, node: int) -> tuple[int, ...]:
        rank = self.order.index(node)
        return self.order[:rank]

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
    key = (node, tuple(sorted(space.predecessors(node))), space.max_parents)
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
) -> list[tuple[int, float, tuple[int, ...]]]:
    """Pareto frontier of (df, best NAL, parents) for one node.

    Frontier entries have strictly increasing df and strictly increasing NAL;
    a larger parent set that fails to improve the NAL is dominated and drops
    out (the minimal-complexity convention).
    """
    candidates = space.candidate_parent_sets(node)
    nal, _, df = _node_table(data, node, space, candidates)
    observed = np.flatnonzero(nal != NEG_INFINITY)
    if observed.size == 0:
        raise AllCandidatesUnobservable(f"node {node}: every candidate has n_i = 0")
    frontier = []
    best = NEG_INFINITY
    for d in np.unique(df[observed]):
        group = observed[df[observed] == d]
        top = nal[group].max()
        if top > best:
            parents = min(candidates[k] for k in group[nal[group] == top])
            frontier.append((int(d), float(top), parents))
            best = top
    return frontier


def complexity_profile(data: Dataset, space: SearchSpace) -> list[ProfilePoint]:
    """Best total NAL at each achievable total complexity t.

    Points dominated by a cheaper structure with at least the same NAL are
    pruned, so t and best_score are both strictly increasing.
    """
    _check_space(data, space)
    # DP state: total df -> (total nal, parents chosen so far as a cons list
    # (last node's parents, earlier nodes' list), () when empty); states share
    # their tails and the frontiers' parent tuples
    states: dict[int, tuple[float, tuple]] = {0: (0.0, ())}
    for node in range(space.num_nodes):
        frontier = _node_frontier(data, node, space)
        merged: dict[int, tuple[float, tuple]] = {}
        for t, (score, chosen) in states.items():
            for df, value, parents in frontier:
                key = t + df
                total = score + value
                cur = merged.get(key)
                if cur is None or total > cur[0] or (
                    total == cur[0] and _choices((parents, chosen)) < _choices(cur[1])
                ):
                    merged[key] = (total, (parents, chosen))
        states = merged
    points = []
    best = NEG_INFINITY
    for t in sorted(states):
        score, chosen = states[t]
        if score > best:
            points.append(ProfilePoint(t, score, Dag._from_sorted(_choices(chosen))))
            best = score
    return points


def _choices(chosen: tuple) -> tuple[tuple[int, ...], ...]:
    """A cons list of parent tuples as one tuple, node 0 first (the tie-break order)."""
    out = []
    while chosen:
        parents, chosen = chosen
        out.append(parents)
    return tuple(reversed(out))


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
