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
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Dataset, count_families, count_sufficient_stats
from .errors import AllCandidatesUnobservable, SchemaMismatch, StateSpaceTooLarge
from .model import Dag
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
        """The nodes before node in the order, sorted."""
        return tuple(sorted(self.order[:self.order.index(node)]))

    def num_candidates(self, node: int) -> int:
        """len(candidate_parent_sets(node)), without listing them."""
        m = len(self.predecessors(node))
        return sum(math.comb(m, k) for k in range(min(self.max_parents, m) + 1))

    def candidate_parent_sets(self, node: int) -> CandidateSets:
        """Subsets of predecessors by size, then lexicographically: (), then the
        sets of model.parent_set_lattice, which count_families counts."""
        return CandidateSets(self.predecessors(node), self.max_parents)


class CandidateSets(Sequence):
    """The subsets of at most max_parents of the sorted predecessors, by size,
    then lexicographically, each tuple built only when its index is read: the
    searches read a few tied sets of a node's thousands."""

    def __init__(self, predecessors: tuple[int, ...], max_parents: int):
        self._predecessors = predecessors
        # sizes[m]: how many sets hold m predecessors
        self._sizes = [math.comb(len(predecessors), m)
                       for m in range(min(max_parents, len(predecessors)) + 1)]
        self._len = sum(self._sizes)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._len))]
        k = operator.index(index)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("candidate parent set index out of range")
        m = 0
        while k >= self._sizes[m]:  # the set's size, and its rank among the sets of that size
            k -= self._sizes[m]
            m += 1
        preds, x, chosen = self._predecessors, 0, []
        for left in range(m, 0, -1):  # each member skips the sets that start earlier
            while k >= (skipped := math.comb(len(preds) - x - 1, left - 1)):
                k -= skipped
                x += 1
            chosen.append(preds[x])
            x += 1
        return tuple(chosen)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for m in range(len(self._sizes)):
            yield from combinations(self._predecessors, m)


@dataclass(frozen=True)
class ProfilePoint:
    t: int  # total complexity (df)
    best_score: float  # total NAL at that complexity
    dag: Dag


def _node_table(shared: tuple[Dataset, SearchSpace], node: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nal, n_i, df) arrays over the node's candidates, in the order of
    space.candidate_parent_sets(node), for shared = (data, space).

    The first candidate, the empty set, is scored on its own; every larger set
    extends a prefix and is scored in chunks by count_families.
    """
    data, space = shared
    root = count_sufficient_stats(data, node, ())
    q_i = data.variables[node].cardinality
    nal, n_i, df = [[node_nal_from_counts(root)]], [[root.n_i]], [[q_i - 1]]
    for n_ikj, widths in count_families(data, node, space.predecessors(node), space.max_parents):
        chunk_nal, chunk_n_i = stacked_nal(n_ikj, widths)
        nal.append(chunk_nal)
        n_i.append(chunk_n_i)
        df.append(widths * (q_i - 1))
    return np.concatenate(nal), np.concatenate(n_i), np.concatenate(df)


def _tables(data: Dataset, space: SearchSpace, nodes: Sequence[int]
            ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nodes' (nal, n_i, df) tables, memoized in data.family_scores under
    (node, sorted predecessors, max_parents).

    The missing tables are built through pool_map, a node weighing its
    candidates × records, so the largest go out first; the tables equal a
    serial build's bit for bit, whatever the worker count.
    """
    if space.num_nodes != data.num_variables:
        raise SchemaMismatch("search space and data disagree on node count")
    keys = [(node, space.predecessors(node), space.max_parents) for node in nodes]
    missing = [key for key in keys if key not in data.family_scores]
    costs = [space.num_candidates(node) * data.num_records for node, _, _ in missing]
    data.family_scores.update(zip(missing, pool_map(
        _node_table, (data, space), [node for node, _, _ in missing], costs)))
    return [data.family_scores[key] for key in keys]


def best_parent_set(data: Dataset, node: int, space: SearchSpace, penalty: Penalty) -> NodeScore:
    """Exhaustive per-node winner under the decomposable score."""
    [(nal, n_i, df)] = _tables(data, space, [node])
    candidates = space.candidate_parent_sets(node)
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
    """Argmax of the decomposable score over the order-compatible space; the
    node tables are built first, in one pool_map call."""
    _tables(data, space, range(space.num_nodes))
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
    [(nal, _, df)] = _tables(data, space, [node])
    candidates = space.candidate_parent_sets(node)
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
    _tables(data, space, range(space.num_nodes))
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
