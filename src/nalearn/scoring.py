"""Node-average log-likelihood, penalty schedules and penalized scores.

All logarithms are natural. Entropy conventions: 0*ln(0) = 0 and parent
configurations with zero count contribute nothing. A node whose counts are
entirely empty (n_i = 0) scores -inf, which keeps search total while
excluding unobservable candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SufficientCounts, count_sufficient_stats
from .errors import ConfigError, SchemaMismatch, ZeroSampleSize
from .model import Dag, df_complexity, json_number, node_df

NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class Penalty:
    """A lambda_n schedule: AIC, BIC, a power law c*n^(-alpha), or none."""

    kind: str  # "aic" | "bic" | "power" | "none"
    coefficient: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in ("aic", "bic", "power", "none"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "power":
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("power-law alpha must lie in (0,1)")
            if not self.coefficient > 0:  # also rejects NaN
                raise ValueError("power-law coefficient must be positive")

    def label(self) -> str:
        if self.kind == "power":
            return f"power(c={self.coefficient:g},a={self.alpha:g})"
        return self.kind


AIC = Penalty("aic")
BIC = Penalty("bic")
NO_PENALTY = Penalty("none")


def power_law(coefficient: float, alpha: float) -> Penalty:
    return Penalty("power", coefficient, alpha)


def parse_penalty(spec, num_vars: int) -> Penalty:
    """Penalty from "aic" | "bic" | "none" | "a<alpha>", a dict {kind, alpha,
    coef} whose kind defaults to "power", or a Penalty. The power-law
    coefficient defaults to 1/num_vars; a null alpha or coef counts as absent,
    and only a power law takes either. Raises ConfigError quoting `spec`.
    """
    if isinstance(spec, Penalty):
        return spec
    if spec in ("aic", "bic", "none"):
        return Penalty(spec)
    fields = {"alpha": spec[1:]} if isinstance(spec, str) and spec.startswith("a") else spec
    if not isinstance(fields, dict) or not set(fields) <= {"kind", "alpha", "coef"}:
        raise ConfigError(f"unknown penalty spec {spec!r}")
    kind, alpha, coef = fields.get("kind", "power"), fields.get("alpha"), fields.get("coef")
    if kind == "power" and alpha is None:
        raise ConfigError(f"penalty spec {spec!r}: a power law needs alpha")
    if kind != "power" and (alpha is not None or coef is not None):
        raise ConfigError(f"penalty spec {spec!r}: {kind!r} takes no alpha or coef")
    try:
        if kind != "power":
            return Penalty(kind)
        coef = 1.0 / num_vars if coef is None else float(json_number(coef))
        return power_law(coef, float(json_number(alpha)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"penalty spec {spec!r}: {exc}") from None


def lambda_value(penalty: Penalty, m: int | float) -> float:
    """Evaluate the penalty weight lambda at sample size m."""
    if penalty.kind == "none":
        return 0.0
    if m <= 0:
        raise ZeroSampleSize("penalty undefined at sample size 0")
    if penalty.kind == "aic":
        return 1.0 / m
    if penalty.kind == "bic":
        return 0.5 * math.log(m) / m
    return penalty.coefficient * float(m) ** (-penalty.alpha)


@dataclass(frozen=True)
class NodeScore:
    """Per-node scoring breakdown for the decomposable score."""

    node: int
    parents: tuple[int, ...]
    nal: float
    n_i: int
    df: int
    penalized: float


def node_nal_from_counts(counts: SufficientCounts) -> float:
    """Negative conditional entropy estimate for one node.

    Returns -inf when the node/parent combination is never jointly observed.
    """
    if counts.n_i == 0:
        return NEG_INFINITY
    n_ij = counts.n_ij
    return neg_conditional_entropy(n_ij / counts.n_i, counts.n_ikj / np.maximum(n_ij, 1))


def neg_conditional_entropy(weights: np.ndarray, theta: np.ndarray) -> float:
    """sum_j weights_j sum_k theta_kj ln theta_kj, theta of shape (q_i, q_pa).

    0 ln 0 = 0; fsum makes the total independent of the configuration order.
    """
    terms = theta * np.log(np.where(theta > 0, theta, 1.0))
    return math.fsum((weights * terms.sum(axis=0)).tolist())


def node_nal(data: Dataset, node: int, parents: Sequence[int]) -> float:
    return node_nal_from_counts(count_sufficient_stats(data, node, parents))


def _check_schema(data: Dataset, dag: Dag) -> None:
    if dag.num_nodes != data.num_variables:
        raise SchemaMismatch(
            f"dag has {dag.num_nodes} nodes, data has {data.num_variables} columns"
        )


def nal(data: Dataset, dag: Dag) -> float:
    """Sum of per-node average log-likelihoods; -inf if any node unobservable."""
    _check_schema(data, dag)
    parts = [node_nal(data, i, ps) for i, ps in enumerate(dag.parents)]
    if any(p == NEG_INFINITY for p in parts):
        return NEG_INFINITY
    return math.fsum(parts)


def standard_avg_loglik(data: Dataset, dag: Dag) -> float:
    """Sample average log-likelihood: (1/n) sum_i sum_jk n_ikj ln theta_ikj."""
    _check_schema(data, dag)
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


def penalized(nal: float, n_i: int | float, df: int, penalty: Penalty) -> float:
    """Penalized family score NAL_i - lambda(n_i) * df_i; -inf if unobservable."""
    if nal == NEG_INFINITY:
        return NEG_INFINITY
    return nal - lambda_value(penalty, n_i) * df


def score_global(data: Dataset, dag: Dag, penalty: Penalty) -> float:
    """Penalized score with a single lambda_n evaluated at the record count."""
    _check_schema(data, dag)
    return penalized(
        nal(data, dag), data.num_records, df_complexity(dag, data.variables), penalty
    )


def score_node(
    data: Dataset, node: int, parents: Sequence[int], penalty: Penalty
) -> NodeScore:
    """Decomposable per-node score with lambda evaluated at the node's n_i."""
    counts = count_sufficient_stats(data, node, parents)
    value = node_nal_from_counts(counts)
    df = node_df(node, counts.parents, data.variables)
    return NodeScore(
        node, counts.parents, value, counts.n_i, df, penalized(value, counts.n_i, df, penalty)
    )


def score_decomposable(
    data: Dataset, dag: Dag, penalty: Penalty
) -> tuple[float, list[NodeScore]]:
    """Sum of per-node penalized scores plus the per-node breakdown."""
    _check_schema(data, dag)
    breakdown = [score_node(data, i, ps, penalty) for i, ps in enumerate(dag.parents)]
    if any(b.penalized == NEG_INFINITY for b in breakdown):
        return NEG_INFINITY, breakdown
    return math.fsum(b.penalized for b in breakdown), breakdown
