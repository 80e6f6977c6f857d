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
from typing import Sequence

import numpy as np

from .data import STATE_SPACE_CAP, marginal
from .errors import NodeCountMismatch, StateSpaceTooLarge
from .model import BayesNet, Dag, df_complexity, validate_dag
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


@dataclass(frozen=True)
class CandidateReport:
    dag: Dag
    df: int
    nal: float
    is_superset_of_true: bool
    is_maximizer: bool
    is_minimal_maximizer: bool


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Population-level identifiability analysis over a candidate set."""

    true_nal: float
    candidates: tuple[CandidateReport, ...]
    minimal_maximizers: tuple[Dag, ...]
    identifiable: bool  # the distinct minimal maximizers are exactly {true dag}


def _edge_mask(g: Dag) -> int:
    """Edge set of g as a bitmask: bit child * N + parent."""
    N = g.num_nodes
    return sum(1 << (i * N + p) for i, ps in enumerate(g.parents) for p in ps)


def check_identifiability(
    net0: BayesNet,
    candidates: Sequence[Dag],
    tol: float = 1e-9,
) -> IdentifiabilityReport:
    """Evaluate l(G|G0) over candidates and locate the minimal maximizers.

    MCAR missingness leaves the population NAL, hence the report, unchanged.
    """
    N = net0.num_nodes
    for g in candidates:
        if g.num_nodes != N:
            raise NodeCountMismatch(f"candidate has {g.num_nodes} nodes, the net {N}")
        validate_dag(g)
    tables = FamilyTables(net0)

    def nal_of(g: Dag) -> float:
        return population_nal(induced_theta_mcar(g, tables))

    true_nal = nal_of(net0.dag)
    values = [nal_of(g) for g in candidates]
    best = max(values) if values else true_nal
    maximizer_flags = [abs(v - best) <= tol for v in values]
    masks = [_edge_mask(g) for g in candidates]
    # g is minimal unless another maximizer's edges are a proper subset of g's.
    # In edge-count order only the minimal masks found so far need comparing:
    # a maximizer above another one also lies above a minimal one.
    minimal_masks: set[int] = set()
    for m in sorted({m for m, f in zip(masks, maximizer_flags) if f}, key=int.bit_count):
        if not any(h & ~m == 0 for h in minimal_masks):
            minimal_masks.add(m)
    minimal = [g for g, m in zip(candidates, masks) if m in minimal_masks]
    reports = []
    true_mask = _edge_mask(net0.dag)
    for g, v, f, m in zip(candidates, values, maximizer_flags, masks):
        reports.append(
            CandidateReport(
                dag=g,
                df=df_complexity(g, net0.variables),
                nal=v,
                is_superset_of_true=true_mask & ~m == 0,
                is_maximizer=f,
                is_minimal_maximizer=m in minimal_masks,
            )
        )
    return IdentifiabilityReport(
        true_nal=true_nal,
        candidates=tuple(reports),
        minimal_maximizers=tuple(minimal),
        identifiable=minimal_masks == {true_mask},  # repeated candidates share a mask
    )


def beta_of_collection(
    candidates: Sequence[Dag], missing: MissingnessModel | None, num_vars: int
) -> float:
    """Minimum positive observation probability over candidates and nodes."""
    families = {(i, parents) for g in candidates for i, parents in enumerate(g.parents)}
    probs = [observation_probability(i, ps, missing, num_vars) for i, ps in families]
    return min((p for p in probs if p > 0), default=1.0)
