"""Exact population-level quantities via enumeration of the joint state space.

All computations marginalize the exact joint distribution of the generating
network, so they are limited to at most STATE_SPACE_CAP joint states. A
family's table is read off the joint by ``data.marginal``, which reads its
sample counts off a histogram, and scored by the same kernel as those
counts, ``scoring.stacked_nal``. Under MCAR the records where a family is
observed follow that marginal whatever the chance theta_i of observing it
(observation_probability), so missingness enters only through beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .data import STATE_SPACE_CAP, marginal
from .errors import StateSpaceTooLarge
from .model import BayesNet, Dag, node_df, parent_masks
from .sampling import Bernoulli, MissingnessModel, subset_observation_probability
from .scoring import stacked_nal


def _broadcast_factor(table: np.ndarray, axes: list[int], N: int) -> np.ndarray:
    """Expand a factor with dims ordered by `axes` to N broadcastable dims."""
    order = sorted(axes)
    dest = [order.index(a) for a in axes]
    src = np.moveaxis(table, range(len(axes)), dest)
    idx = tuple(slice(None) if ax in axes else np.newaxis for ax in range(N))
    return src[idx]


def _joint_array(net: BayesNet) -> np.ndarray:
    shape = tuple(v.cardinality for v in net.variables)
    total = math.prod(int(q) for q in shape)  # Python ints: a numpy product would wrap
    if total > STATE_SPACE_CAP:
        raise StateSpaceTooLarge(f"{total} joint states exceeds cap {STATE_SPACE_CAP}")
    joint = np.ones(shape)
    N = net.num_nodes
    for i in range(N):
        parents = net.dag.parents[i]
        q_i = net.variables[i].cardinality
        q_parents = [net.variables[p].cardinality for p in parents]
        table = net.cpt.tables[i].reshape(*q_parents, q_i)
        joint = joint * _broadcast_factor(table, list(parents) + [i], N)
    return joint


def joint_distribution(net: BayesNet) -> np.ndarray:
    """Flat joint probability vector, node 0 slowest (C-order ravel)."""
    return _joint_array(net).ravel()


@dataclass(frozen=True)
class NodeTable:
    """The true joint's marginal of one (node, parent set) family."""

    node: int
    parents: tuple[int, ...]
    marginal: np.ndarray  # P(X_i = k, Pa_i = j), shape (q_i, q_pa), canonical j order

    @cached_property
    def nal(self) -> float:
        """Population negative conditional entropy of the node given its parents."""
        return float(stacked_nal(self.marginal, [self.marginal.shape[1]])[0][0])


def observation_probability(
    node: int, parents: Sequence[int], missing: MissingnessModel | None, N: int
) -> float:
    """theta_i: the chance that node and its parents are all observed in a record."""
    if missing is None:
        return 1.0
    if isinstance(missing, Bernoulli):
        prob = missing.observe_probs[node]
        for p in parents:
            prob *= missing.observe_probs[p]
        return prob
    return subset_observation_probability(N, missing.k, len(parents) + 1)


class FamilyTables:
    """Memoizes the NodeTable per (node, parents) for one true net.

    The joint is built once. Pass one instance to every induced_theta_mcar
    call over the same net so that each family is marginalized, and its
    NAL evaluated, once however many candidates share it.
    """

    def __init__(self, net0: BayesNet):
        self.joint = _joint_array(net0)
        self.joint.flags.writeable = False
        self._memo: dict[tuple[int, tuple[int, ...]], NodeTable] = {}

    def node_table(self, node: int, parents: tuple[int, ...]) -> NodeTable:
        key = (node, parents)
        hit = self._memo.get(key)
        if hit is None:
            table = marginal(self.joint, node, parents, sentinels=False)
            table.flags.writeable = False  # tables are shared through FamilyTables
            hit = self._memo[key] = NodeTable(node, parents, table)
        return hit


def induced_theta_mcar(g: Dag, tables: FamilyTables) -> tuple[NodeTable, ...]:
    """The true net's marginals of g's families, in node order: the population
    tables theta(G | G0), the same under every MCAR missingness."""
    return tuple(tables.node_table(i, ps) for i, ps in enumerate(g.parents))


def population_nal(tables: Sequence[NodeTable]) -> float:
    """Population NAL l(G | G0) from the family tables of G."""
    return math.fsum(t.nal for t in tables)


def population_nal_of(g: Dag, net0: BayesNet) -> float:
    """l(G | G0), building the joint of net0 for this call alone."""
    return population_nal(induced_theta_mcar(g, FamilyTables(net0)))


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class IdentifiabilityReport:
    """Population-level identifiability analysis over a candidate set.

    The arrays hold one entry per candidate, in input order.
    """

    true_nal: float
    df: np.ndarray  # int64
    nal: np.ndarray  # float64, l(G | G0)
    is_superset_of_true: np.ndarray  # bool
    is_maximizer: np.ndarray  # bool: nal within tol of the best
    is_minimal_maximizer: np.ndarray  # bool: no other maximizer's edges lie inside g's
    minimal_maximizers: tuple[Dag, ...]  # in candidate order, repeats kept
    identifiable: bool  # the distinct minimal maximizers are exactly {true dag}
    families: tuple[tuple[int, tuple[int, ...]], ...]  # the distinct (node, parents)


def _parents_of(mask: int) -> tuple[int, ...]:
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


def check_identifiability(
    net0: BayesNet,
    candidates: Sequence[Sequence[Sequence[int]]],
    tol: float = 1e-9,
) -> IdentifiabilityReport:
    """Evaluate l(G|G0) over candidates, each a list of parent lists (a Dag's
    parents), and locate the minimal maximizers.

    NAL and df are sums over families, so each distinct (node, parent set)
    family is scored once. MCAR missingness leaves the population NAL, hence
    the report, unchanged.
    """
    N = net0.num_nodes
    tables = FamilyTables(net0)  # refuses N above 24, so every key below fits int64
    true_nal = population_nal(induced_theta_mcar(net0.dag, tables))
    masks = parent_masks(candidates, N)
    del candidates  # the parsed lists go before scoring
    keys, owner = np.unique((np.arange(N, dtype=np.int64) << N) | masks, return_inverse=True)
    owner = owner.reshape(masks.shape).astype(np.int32)
    families = tuple((key >> N, _parents_of(key & ((1 << N) - 1))) for key in keys.tolist())
    family_nal = np.array([tables.node_table(i, ps).nal for i, ps in families])
    family_df = np.array([node_df(i, ps, net0.variables) for i, ps in families], np.int64)
    # the floats population_nal sums, so each candidate's NAL is bit-identical to it
    nal = np.fromiter(map(math.fsum, family_nal[owner].tolist()), np.float64, len(owner))
    best = nal.max() if len(nal) else true_nal
    is_maximizer = np.abs(nal - best) <= tol
    # g is minimal unless another maximizer's edges lie inside g's. The
    # maximizer with the fewest edges is minimal; drop everything above it
    # and repeat on the rest.
    edges = np.array([len(ps) for _, ps in families], np.int32)[owner].sum(axis=1)
    minimal = np.zeros(len(masks), bool)
    rest = np.flatnonzero(is_maximizer)
    while len(rest):
        low = masks[rest[np.argmin(edges[rest])]]
        minimal[rest[(masks[rest] == low).all(axis=1)]] = True
        rest = rest[((low & ~masks[rest]) != 0).any(axis=1)]
    (true_mask,) = parent_masks([net0.dag.parents], N)
    return IdentifiabilityReport(
        true_nal=true_nal,
        df=family_df[owner].sum(axis=1),
        nal=nal,
        is_superset_of_true=((true_mask & ~masks) == 0).all(axis=1),
        is_maximizer=is_maximizer,
        is_minimal_maximizer=minimal,
        minimal_maximizers=tuple(Dag(map(_parents_of, masks[g].tolist()))
                                 for g in np.flatnonzero(minimal)),
        identifiable=bool(minimal.any()) and bool((masks[minimal] == true_mask).all()),
        families=families,
    )


def beta_of_collection(
    families: Iterable[tuple[int, Sequence[int]]], missing: MissingnessModel | None,
    num_vars: int
) -> float:
    """Minimum positive observation probability over (node, parents) families,
    such as an IdentifiabilityReport's distinct families."""
    probs = (observation_probability(i, ps, missing, num_vars) for i, ps in families)
    return min((p for p in probs if p > 0), default=1.0)
