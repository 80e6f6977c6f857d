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
from .model import Dag, df_complexity, node_df

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
            if not (self.coefficient > 0 and math.isfinite(self.coefficient)):  # and NaN
                raise ValueError("power-law coefficient must be positive and finite")

    def label(self, num_vars: int) -> str:
        """The spec parse_penalty reads back to this penalty on num_vars variables:
        the kind, or a<alpha> followed by c<coef> unless coef is the default 1/num_vars."""
        if self.kind != "power":
            return self.kind
        coef = "" if self.coefficient == 1.0 / num_vars else f"c{_shortest(self.coefficient)}"
        return f"a{_shortest(self.alpha)}{coef}"


def _shortest(x: float) -> str:
    """The shortest text float() reads back to x, without repr's trailing ".0"."""
    text = repr(float(x))  # float(): a numpy scalar's repr names its type
    return text[:-2] if text.endswith(".0") else text


AIC = Penalty("aic")
BIC = Penalty("bic")


def power_law(coefficient: float, alpha: float) -> Penalty:
    return Penalty("power", coefficient, alpha)


def parse_penalty(spec, num_vars: int) -> Penalty:
    """Penalty from "aic" | "bic" | "none" | "a<alpha>" | "a<alpha>c<coef>".
    The power-law coefficient defaults to 1/num_vars. Penalty.label writes
    this grammar. Raises ConfigError quoting `spec`, which must be a string.
    """
    if spec in ("aic", "bic", "none"):
        return Penalty(spec)
    if not (isinstance(spec, str) and spec.startswith("a")):
        raise ConfigError(f"unknown penalty spec {spec!r}; write aic, bic, none or "
                          "a<alpha>[c<coef>]")
    alpha, c, coef = spec[1:].partition("c")
    try:
        return power_law(float(coef) if c else 1.0 / num_vars, float(alpha))
    except ValueError as exc:
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
    return neg_conditional_entropy(n_ij / counts.n_i, counts.n_ikj / np.maximum(n_ij, 1),
                                   [n_ij.size])[0]


def stacked_nal(n_ikj: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(NAL, n_i) of one node's families whose n_ikj stand side by side, family
    f over widths[f] columns: the counts ``data.count_families`` yields, or the
    probability marginals P(X_i = k, Pa_i = j) that ``data.marginal`` reads
    off the true joint, one call per node in population.check_identifiability.
    Empty columns and families are divided by 1, never by their zero total.
    Each NAL equals this kernel's on the family's table alone, bit for bit,
    and on counts ``node_nal_from_counts`` of them."""
    n_ij = n_ikj.sum(axis=0)
    ends = np.cumsum(widths)
    n_i = np.add.reduceat(n_ij, ends - widths)
    weights = n_ij / np.repeat(np.where(n_i > 0, n_i, 1), widths)
    nal = np.array(neg_conditional_entropy(weights, n_ikj / np.where(n_ij > 0, n_ij, 1),
                                           ends.tolist()))
    nal[n_i == 0] = NEG_INFINITY
    return nal, n_i


def neg_conditional_entropy(
    weights: np.ndarray, theta: np.ndarray, ends: Sequence[int]
) -> list[float]:
    """sum_j weights_j sum_k theta_kj ln theta_kj per family, theta of shape (q_i, columns).

    Families stand side by side: family f owns columns ends[f-1]:ends[f] (from
    0 for the first), so one family over every column has ends [columns].
    0 ln 0 = 0; the sum over k runs down each column in child-state order, and
    fsum makes each family's total independent of its configuration order, so
    a family's value does not depend on its neighbours.
    """
    terms = theta * np.log(np.where(theta > 0, theta, 1.0))
    values = (weights * terms.sum(axis=0)).tolist()
    return [math.fsum(values[s:e]) for s, e in zip([0, *ends[:-1]], ends)]


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
