"""Reference implementations the tests compare the package against.

They restate the paper's exact identities the slow, obvious way and are not
part of the package:

* the sub-optimal EM objective Q*, which weights each observed cell count by
  an expected fill-in for the records where the (node, parents) block is
  missing, using reference parameters; evaluated at the plug-in estimators on
  both sides it equals the record count times the node-average
  log-likelihood;
* the standard sample-average log-likelihood, which equals the NAL on
  complete data;
* a family's marginal of the true joint, summed out and moved into its
  (q_i, q_pa) layout with numpy's own axis tools, its conditional tables,
  the joint distribution a candidate DAG induces from a true net through
  them, and the subgraph and order-compatibility relations between DAGs;
* the identifiability report and beta built one candidate DAG at a time,
  each candidate's NAL summed over its own families and its df counted by
  df_complexity.

Only public package names are used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nalearn import BayesNet, Cpt, Dag, Dataset, SufficientCounts, count_sufficient_stats
from nalearn import (
    df_complexity,
    induced_theta_mcar,
    joint_distribution,
    observation_probability,
    population_nal,
    validate_dag,
)
from nalearn.errors import ConfigError, NalearnError, NodeCountMismatch, SchemaMismatch
from nalearn.scoring import NEG_INFINITY

_NORM_TOL = 1e-9


class UnobservableNode(NalearnError):
    pass


class NonNormalizedParameters(NalearnError):
    pass


# ---------------------------------------------------------------------------
# The expected-fill-in objective whose fixed point reproduces n * NAL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeParams:
    """Multinomial parameters for one node: row weights and row tables."""

    p_j: np.ndarray  # (q_pa,) distribution over parent configs
    p_kj: np.ndarray  # (q_i, q_pa) conditional table, columns normalized


def _check_normalized(params: NodeParams, node: int) -> None:
    if abs(params.p_j.sum() - 1.0) > _NORM_TOL:
        raise NonNormalizedParameters(f"node {node}: parent-config weights")
    col = params.p_kj.sum(axis=0)
    if np.any(np.abs(col - 1.0) > _NORM_TOL):
        raise NonNormalizedParameters(f"node {node}: conditional columns")


@dataclass(frozen=True)
class QStarInput:
    """Everything needed to evaluate the objective for a fixed structure."""

    counts: tuple[SufficientCounts, ...]  # one per node, aligned with the DAG
    reference: tuple[NodeParams, ...]  # P' in the expected fill-in weights
    target: tuple[NodeParams, ...]  # P being scored


def q_star(inp: QStarInput) -> float:
    """Sum over nodes of (n_ikj + (n - n_i) p'_j p'_kj) * ln p_kj."""
    total = []
    for node, (counts, ref, tgt) in enumerate(
        zip(inp.counts, inp.reference, inp.target)
    ):
        _check_normalized(ref, node)
        _check_normalized(tgt, node)
        n_mis = counts.n - counts.n_i
        weights = counts.n_ikj + n_mis * ref.p_j[None, :] * ref.p_kj
        with np.errstate(divide="ignore"):
            logs = np.log(np.where(tgt.p_kj > 0, tgt.p_kj, 1.0))
        if np.any((weights > 0) & (tgt.p_kj <= 0)):
            return float("-inf")
        total.append(float((weights * logs).sum()))
    return math.fsum(total)


def q_star_maximizer(counts: Sequence[SufficientCounts]) -> tuple[tuple[NodeParams, ...], Cpt]:
    """Plug-in maximizer: p_j = n_ij/n_i, p_kj = n_ikj/n_ij.

    Columns with no observations are set uniform; the uniform padding is
    visible as exact 1/q entries in the returned tables.
    """
    params = []
    tables = []
    for c in counts:
        if c.n_i == 0:
            raise UnobservableNode(f"node {c.node}: n_i = 0")
        p_j = c.n_ij / c.n_i
        q_i = c.n_ikj.shape[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            p_kj = np.where(
                c.n_ij[None, :] > 0,
                c.n_ikj / np.maximum(c.n_ij, 1)[None, :],
                1.0 / q_i,
            )
        params.append(NodeParams(p_j.astype(float), p_kj.astype(float)))
        tables.append(p_kj.T.copy())
    return tuple(params), Cpt(tables)


def q_star_at_maximizer(counts: Sequence[SufficientCounts]) -> float:
    """Objective evaluated with the plug-in estimators on both sides."""
    params, _ = q_star_maximizer(counts)
    return q_star(QStarInput(tuple(counts), params, params))


# ---------------------------------------------------------------------------
# The standard average log-likelihood, equal to the NAL on complete data
# ---------------------------------------------------------------------------

def standard_avg_loglik(data: Dataset, dag: Dag) -> float:
    """Sample average log-likelihood: (1/n) sum_i sum_jk n_ikj ln theta_ikj."""
    if dag.num_nodes != data.num_variables:
        raise SchemaMismatch(
            f"dag has {dag.num_nodes} nodes, data has {data.num_variables} columns"
        )
    n = data.num_records
    if n == 0:
        return NEG_INFINITY
    parts = []
    for i, ps in enumerate(dag.parents):
        counts = count_sufficient_stats(data, i, ps)
        n_ij = counts.n_ij.astype(float)
        n_ikj = counts.n_ikj.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = n_ikj / np.where(n_ij > 0, n_ij, 1.0)[None, :]
            terms = np.where(
                n_ikj > 0, n_ikj * np.log(np.where(theta > 0, theta, 1.0)), 0.0
            )
        parts.append(float(terms.sum()) / n)
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# Induced joints and relations between DAGs
# ---------------------------------------------------------------------------

def joint_cube(net0: BayesNet) -> np.ndarray:
    """The joint of net0 with one axis per variable, node 0 first."""
    return joint_distribution(net0).reshape([v.cardinality for v in net0.variables])


def family_marginal(joint: np.ndarray, node: int, parents: tuple[int, ...]) -> np.ndarray:
    """The (q_i, q_pa) marginal of node and sorted parents, j row-major over the parents."""
    other = tuple(ax for ax in range(joint.ndim) if ax != node and ax not in parents)
    marg = joint.sum(axis=other)  # axes: sorted(parents + node)
    child_pos = sorted((*parents, node)).index(node)
    return np.moveaxis(marg, child_pos, 0).reshape(joint.shape[node], -1)


def conditional(marginal: np.ndarray) -> np.ndarray:
    """P(X_i = k | Pa_i = j) from a (q_i, q_pa) marginal P(X_i = k, Pa_i = j);
    a parent configuration of probability 0 gets the uniform column."""
    p_j = marginal.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_j > 0, marginal / p_j, 1.0 / marginal.shape[0])


def induced_joint(g: Dag, net0: BayesNet) -> np.ndarray:
    """Flat joint of the distribution induced by reading net0 through g."""
    cpt = Cpt(conditional(t).T for t in induced_theta_mcar(g, joint_cube(net0)))
    return joint_distribution(BayesNet(net0.variables, g, cpt))


def is_subgraph(g1: Dag, g2: Dag) -> bool:
    """True iff every directed edge of g1 is also in g2."""
    if g1.num_nodes != g2.num_nodes:
        raise NodeCountMismatch(f"{g1.num_nodes} != {g2.num_nodes}")
    return all(set(p1) <= set(p2) for p1, p2 in zip(g1.parents, g2.parents))


def is_compatible_with_order(dag: Dag, order: Sequence[int]) -> bool:
    """True iff every parent precedes its child in the given node order."""
    rank = {node: r for r, node in enumerate(order)}
    return all(rank[p] < rank[i] for i, ps in enumerate(dag.parents) for p in ps)


# ---------------------------------------------------------------------------
# The identifiability report, one candidate DAG at a time
# ---------------------------------------------------------------------------

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
    true_nal: float
    candidates: tuple[CandidateReport, ...]
    minimal_maximizers: tuple[Dag, ...]
    identifiable: bool  # the distinct minimal maximizers are exactly {true dag}


def _edge_mask(g: Dag) -> int:
    """Edge set of g as a bitmask: bit child * N + parent."""
    N = g.num_nodes
    return sum(1 << (i * N + p) for i, ps in enumerate(g.parents) for p in ps)


def check_identifiability(net0: BayesNet, candidates: Sequence[Dag],
                          tol: float = 1e-9) -> IdentifiabilityReport:
    """l(G|G0) of each candidate Dag and the minimal maximizers, by a pairwise scan."""
    N = net0.num_nodes
    for g in candidates:
        if g.num_nodes != N:
            raise NodeCountMismatch(f"candidate has {g.num_nodes} nodes, the net {N}")
        validate_dag(g)
    joint = joint_cube(net0)

    def nal_of(g: Dag) -> float:
        return population_nal(induced_theta_mcar(g, joint))

    true_nal = nal_of(net0.dag)
    values = [nal_of(g) for g in candidates]
    best = max(values) if values else true_nal
    maximizer_flags = [abs(v - best) <= tol for v in values]
    masks = [_edge_mask(g) for g in candidates]
    maximizer_masks = {m for m, f in zip(masks, maximizer_flags) if f}
    minimal_masks = {m for m in maximizer_masks
                     if not any(h != m and h & ~m == 0 for h in maximizer_masks)}
    true_mask = _edge_mask(net0.dag)
    reports = tuple(
        CandidateReport(dag=g, df=df_complexity(g, net0.variables), nal=v,
                        is_superset_of_true=true_mask & ~m == 0, is_maximizer=f,
                        is_minimal_maximizer=m in minimal_masks)
        for g, v, f, m in zip(candidates, values, maximizer_flags, masks))
    return IdentifiabilityReport(
        true_nal=true_nal,
        candidates=reports,
        minimal_maximizers=tuple(g for g, m in zip(candidates, masks) if m in minimal_masks),
        identifiable=minimal_masks == {true_mask},
    )


def beta_of_collection(candidates: Sequence[Dag], missing, num_vars: int) -> float:
    """Minimum observation probability over every candidate's every family;
    ConfigError naming the first that is never observed."""
    families = [(i, ps) for g in candidates for i, ps in enumerate(g.parents)]
    probs = [observation_probability(i, ps, missing, num_vars) for i, ps in families]
    if 0 in probs:
        i, ps = families[probs.index(0)]
        raise ConfigError(f"node {i} with parents {list(ps)} is never observed "
                          "under this missingness")
    return min(probs, default=1.0)
