"""Monte Carlo harness: two-node consistency table, structure recovery and
convergence-rate probes, all emitting CSV.

Every replicate owns a seed derived from the base seed and the replicate
index, so results do not depend on execution order and a config plus seed
reproduces each CSV byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .data import Dataset, count_sufficient_stats
from .equivalence import edge_f_score
from .errors import ConfigError, InsufficientGrid
from .model import BayesNet, df_complexity, json_int, json_list, json_number, load_net, read_json
from .networks import eight_node_net, two_node_net
from .pool import pool_map
from .population import observation_probability
from .sampling import (
    Bernoulli, KPerRecord, MissingnessModel, apply_mcar, derive_seed, forward_sample,
    parse_missingness, splitmix64,
)
from .scoring import Penalty, lambda_value, node_nal_from_counts, parse_penalty
from .search import SearchSpace, learn_structure

# Replicates of one run, cells × replicates, above which monte_carlo refuses
# it before listing a task. A listed replicate took about 230 bytes and 15 us
# before it ran (a million, under tracemalloc), so a run at the cap holds some
# 240 MiB of tasks; the paper's table at R = 1000 is 20,000 replicates.
REPLICATE_CAP = 1 << 20


@dataclass
class ExperimentConfig:
    """Shared knobs for the Monte Carlo runners."""

    net: str = "two-node"  # "two-node", "eight-node" or a network file path
    sample_sizes: tuple[int, ...] = (100, 1000, 10000, 100000)
    betas: tuple[float, ...] = (1.0, 0.99, 0.95, 0.90, 0.75)  # two-node masking
    missingness: tuple[str, ...] = ("none",)  # recovery and rate-probe masking specs
    penalties: tuple[str, ...] = ("aic", "bic")  # specs
    replicates: int = 1000
    seed: int = 20240901
    max_parents: int = 3
    order: tuple[int, ...] | None = None

    def validate(self) -> None:
        if not isinstance(self.net, str):
            raise ConfigError(f"net must be a string, got {self.net!r}")
        for name in ("sample_sizes", "betas", "penalties", "missingness"):
            if not getattr(self, name):
                raise InsufficientGrid(f"{name} must not be empty")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be >= 1")
        if any(not 0.0 < b <= 1.0 for b in self.betas):
            raise ConfigError("betas must lie in (0, 1]")
        for name in ("sample_sizes", "betas"):  # a repeat would write rows that share a key
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {list(values)}")
        if self.max_parents < 0:
            raise ConfigError(f"max_parents must be >= 0, got {self.max_parents}")
        if self.order is not None and sorted(self.order) != list(range(len(self.order))):
            raise ConfigError(f"order must be a permutation of 0..N-1, got {list(self.order)}")


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise TypeError(f"a config must be a JSON object, got {type(obj).__name__}")
    cfg = ExperimentConfig()
    known = {
        "net": lambda v: v,  # validate refuses a non-string; str() would read 5 as "5"
        "sample_sizes": lambda v: tuple(json_int(x) for x in json_list(v)),
        "betas": lambda v: tuple(float(json_number(x)) for x in json_list(v)),
        "missingness": lambda v: tuple(json_list(v)),
        "penalties": lambda v: tuple(json_list(v)),
        "replicates": json_int,
        "seed": json_int,
        "max_parents": json_int,
        "order": lambda v: tuple(json_int(x) for x in json_list(v)) if v is not None else None,
    }
    for key, value in obj.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
        try:
            setattr(cfg, key, known[key](value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config field {key!r}: {exc}") from None
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    return read_json(path, config_from_dict)


def resolve_net(spec: str) -> BayesNet:
    if spec == "two-node":
        return two_node_net()
    if spec == "eight-node":
        return eight_node_net()
    return load_net(spec)


def missingness_label(model: MissingnessModel | None) -> str:
    """CSV label of a parsed regime; p is one probability when all are equal."""
    if model is None:
        return "complete"
    if isinstance(model, KPerRecord):
        return f"kper(k={model.k})"
    ps = model.observe_probs
    return f"bernoulli(p={ps[0] if len(set(ps)) == 1 else list(ps)!r})"


def _distinct_labels(labels: list[str], field: str) -> list[str]:
    """Labels written from parsed models, so a repeated one is one model given
    twice, however it was spelled: it would merge rows and run the model twice."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"{field} repeat the label {', '.join(map(repr, repeated))}")
    return labels


def _replicate(shared, task):
    """statistic(data) of n records forward-sampled at rep_seed, then MCAR-masked
    at a seed derived from it."""
    net, statistic = shared
    n, missing, rep_seed = task
    data = forward_sample(net, n, rep_seed)
    if missing is not None:
        data = apply_mcar(data, missing, derive_seed(rep_seed, 1))
    return statistic(data)


def monte_carlo(net: BayesNet, cells, replicates: int, statistic, families: int) -> list[list]:
    """statistic(data) of every replicate of every cell: one list per cell, in replicate order.

    A cell is (n, missing, cell_seed); its replicate r draws at derive_seed(cell_seed, r).
    families is the number of (node, parent set) families statistic counts in
    a replicate, and pool_map weighs a replicate of n records as families × n.
    That weight orders the replicates, the largest cells' first; it no longer
    measures their cost, since a dataset whose joint cube has at most n cells
    counts every family off one histogram (data.Dataset.histogram), and
    sampling and masking then dominate. Every runner makes one call,
    and one pool, if any, serves every cell of it. More than REPLICATE_CAP
    replicates in all are refused before any is listed.
    """
    if len(cells) * replicates > REPLICATE_CAP:
        raise ConfigError(f"the run has {len(cells)} cells of {replicates} replicates, above the "
                          f"cap of {REPLICATE_CAP} replicates in all; lower replicates or the grid")
    tasks = [(n, missing, derive_seed(cell_seed, r))
             for n, missing, cell_seed in cells for r in range(replicates)]
    results = pool_map(_replicate, (net, statistic), tasks, [families * n for n, _, _ in tasks])
    return [results[i:i + replicates] for i in range(0, len(results), replicates)]


# ---------------------------------------------------------------------------
# Two-node benchmark (the consistency/inconsistency table)
# ---------------------------------------------------------------------------

def spurious_edge_gain(data: Dataset) -> float:
    """NAL gain of the spurious edge X1 -> X2: node 2's NAL with parent X1 minus without.

    It is -inf when X1 and X2 are never observed together (nan if X2 never is),
    and then exceeds no lambda_n.
    """
    nal_empty = node_nal_from_counts(count_sufficient_stats(data, 1, ()))
    nal_chain = node_nal_from_counts(count_sufficient_stats(data, 1, (0,)))
    return nal_chain - nal_empty


def two_node_wrong_fraction(
    gains: Sequence[float], n: int, penalties: Sequence[Penalty], replicates: int
) -> list[float]:
    """Per penalty, the fraction of a cell's replicates in which the spurious
    edge wins: gains holds the gain of each of the cell's replicates, each
    drawn at n records.

    The one-edge and independence models differ by one parameter, so the edge
    wins exactly when its gain exceeds lambda_n; ties count as correct.
    """
    lams = [lambda_value(pen, n) for pen in penalties]
    return [sum(gain > lam for gain in gains) / replicates for lam in lams]


def run_two_node(config: ExperimentConfig) -> list[dict]:
    """Wrong-selection percentages over the (beta, n, penalty) grid: one
    monte_carlo call draws every (beta, n) cell, then two_node_wrong_fraction
    scores each cell's gains."""
    config.validate()
    if config.net != "two-node" or tuple(config.missingness) != ("none",):  # betas mask X1
        raise ConfigError("the two-node table runs on the two-node net without missingness, got "
                          f"{config.net!r} and {list(config.missingness)}")
    penalties = [parse_penalty(p, 2) for p in config.penalties]
    labels = _distinct_labels([p.label(2) for p in penalties], "penalties")
    keys = [(beta, n, derive_seed(config.seed, splitmix64(bi * 1009 + ni)))
            for bi, beta in enumerate(config.betas) for ni, n in enumerate(config.sample_sizes)]
    cells = [(n, Bernoulli((beta, 1.0)) if beta < 1.0 else None, seed)  # X1 observed at beta
             for beta, n, seed in keys]
    per_cell = monte_carlo(two_node_net(), cells, config.replicates, spurious_edge_gain, 2)
    rows = []
    for (beta, n, _), gains in zip(keys, per_cell):
        fractions = two_node_wrong_fraction(gains, n, penalties, config.replicates)
        for label, frac in zip(labels, fractions):
            se = math.sqrt(max(frac * (1 - frac), 0.0) / config.replicates)
            rows.append({"beta": beta, "n": n, "penalty": label,
                         "wrong_pct": 100.0 * frac, "mc_se": 100.0 * se})
    return rows


# Reference wrong-selection percentages for the two-node benchmark at
# R = 1000 (rows: beta, columns: penalty label), used by check mode and keyed
# by (beta, n, the label's Penalty on two variables).
TWO_NODE_REFERENCE: dict[tuple[float, int, Penalty], float] = {}

_REF_COLUMNS = ["a0.2", "a0.3", "a0.4", "a0.5", "a0.6", "a0.7", "a0.8", "bic", "aic"]
_REF_ROWS = {
    (1.0, 100): [0.0, 0.0, 0.0, 0.3, 0.9, 3.5, 10.6, 2.8, 16.0],
    (0.99, 100): [0.0, 0.0, 0.0, 0.5, 1.7, 6.6, 17.0, 4.5, 22.9],
    (0.95, 100): [0.0, 0.0, 0.2, 0.9, 3.8, 12.8, 24.0, 8.7, 31.2],
    (0.90, 100): [0.0, 0.0, 0.0, 0.7, 6.9, 16.6, 31.5, 12.5, 37.0],
    (0.75, 100): [0.0, 0.0, 1.1, 7.0, 18.5, 29.9, 40.2, 27.3, 44.4],
    (1.0, 1000): [0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 3.6, 0.7, 13.9],
    (0.99, 1000): [0.0, 0.0, 0.0, 0.0, 0.0, 1.6, 13.3, 2.9, 33.5],
    (0.95, 1000): [0.0, 0.0, 0.0, 0.0, 0.4, 12.1, 28.8, 17.1, 42.0],
    (0.90, 1000): [0.0, 0.0, 0.0, 0.1, 3.6, 19.1, 34.7, 23.0, 43.9],
    (0.75, 1000): [0.0, 0.0, 0.0, 1.9, 15.8, 33.2, 42.4, 36.2, 47.2],
    (1.0, 10000): [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.2, 15.0],
    (0.99, 10000): [0.0, 0.0, 0.0, 0.0, 0.0, 2.7, 24.7, 13.9, 44.1],
    (0.95, 10000): [0.0, 0.0, 0.0, 0.0, 1.5, 21.3, 37.7, 31.6, 47.8],
    (0.90, 10000): [0.0, 0.0, 0.0, 0.0, 7.0, 28.9, 41.5, 36.5, 47.5],
    (0.75, 10000): [0.0, 0.0, 0.0, 1.8, 22.3, 41.2, 50.5, 47.3, 53.8],
    (1.0, 100000): [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 17.7],
    (0.99, 100000): [0.0, 0.0, 0.0, 0.0, 0.0, 11.8, 37.8, 35.8, 50.4],
    (0.95, 100000): [0.0, 0.0, 0.0, 0.0, 3.5, 31.3, 44.6, 43.3, 49.8],
    (0.90, 100000): [0.0, 0.0, 0.0, 0.0, 13.1, 36.1, 47.2, 46.0, 50.5],
    (0.75, 100000): [0.0, 0.0, 0.0, 1.0, 21.4, 38.5, 45.5, 45.3, 48.2],
}
for (b, nn), vals in _REF_ROWS.items():
    for col, v in zip(_REF_COLUMNS, vals):
        TWO_NODE_REFERENCE[(b, nn, parse_penalty(col, 2))] = v


def check_two_node(rows: Sequence[dict]) -> list[str]:
    """Compare measured cells against TWO_NODE_REFERENCE; return failures.

    Tolerance per cell is 3 * sqrt(p (1-p) / 1000) with p the reference
    fraction; reference zeros must measure at most 0.5%. A row matches the
    reference by the Penalty its label parses to on two variables, so the
    labels a0.8 and a0.8c0.5 meet the same cells; a label that does not parse
    raises ConfigError.
    """
    failures = []
    for row in rows:
        key = (row["beta"], row["n"], row["penalty"])
        ref = TWO_NODE_REFERENCE.get((row["beta"], row["n"], parse_penalty(row["penalty"], 2)))
        if ref is None:
            continue
        got = row["wrong_pct"]
        if ref == 0.0:
            if got > 0.5:
                failures.append(f"{key}: expected ~0, measured {got:.2f}%")
        else:
            p = ref / 100.0
            tol = 300.0 * math.sqrt(p * (1 - p) / 1000.0)
            if abs(got - ref) > tol:
                failures.append(
                    f"{key}: expected {ref:.1f} +- {tol:.2f}, measured {got:.2f}%"
                )
    return failures


# ---------------------------------------------------------------------------
# Structure recovery (F-score and complexity trends)
# ---------------------------------------------------------------------------

def _learn_per_penalty(net: BayesNet, space: SearchSpace, penalties, data: Dataset) -> list:
    """(edge F-score, learned df) per penalty; the penalties share data's family scores."""
    learned = [learn_structure(data, space, penalty) for penalty in penalties]
    return [(edge_f_score(net.dag, dag), df_complexity(dag, net.variables)) for dag in learned]


def run_recovery(config: ExperimentConfig) -> list[dict]:
    """Mean F-score, mean learned complexity and exact-recovery rate."""
    config.validate()
    net = resolve_net(config.net)
    order = config.order if config.order is not None else tuple(
        net.dag.topological_order()
    )
    if len(order) != net.num_nodes:
        raise ConfigError(f"order has {len(order)} nodes, the net {net.num_nodes}")
    space = SearchSpace(order, config.max_parents)
    models = [parse_missingness(spec, net.num_nodes) for spec in config.missingness]
    penalties = tuple(parse_penalty(spec, net.num_nodes) for spec in config.penalties)
    cells = [(n, missing, derive_seed(config.seed, splitmix64(mi * 2003 + ni)))
             for mi, missing in enumerate(models) for ni, n in enumerate(config.sample_sizes)]
    regimes = _distinct_labels([missingness_label(m) for m in models], "missingness specs")
    labels = _distinct_labels([p.label(net.num_nodes) for p in penalties], "penalties")
    keys = [(regime, n) for regime in regimes for n in config.sample_sizes]
    statistic = partial(_learn_per_penalty, net, space, penalties)
    true_df = net.df()
    rows = []
    families = sum(space.num_candidates(i) for i in range(net.num_nodes))
    per_cell = monte_carlo(net, cells, config.replicates, statistic, families)
    for (regime, n), results in zip(keys, per_cell):
        for pi, label in enumerate(labels):
            fs, dfs = zip(*(res[pi] for res in results))
            rows.append({"n": n, "missingness": regime, "penalty": label,
                         "mean_f": float(np.mean(fs)), "mean_df": float(np.mean(dfs)),
                         "recovery_rate": float(np.mean([f == 1.0 for f in fs])),
                         "true_df": true_df})
    return rows


# ---------------------------------------------------------------------------
# Convergence-rate probe for the nested NAL difference
# ---------------------------------------------------------------------------

def run_rate_probe(config: ExperimentConfig) -> list[dict]:
    """Sd of the spurious-edge gain per n, with a log-log slope per regime.

    The gain is the two-node table's: the NAL difference between the one-edge
    model and the independence model nested in it. A regime that never observes
    X1 and X2 together is refused before sampling, and a cell whose gains are
    not finite or do not vary raises InsufficientGrid instead of writing nan.
    One monte_carlo call draws every regime's cells.
    """
    config.validate()
    if len(config.sample_sizes) < 2:
        raise InsufficientGrid("rate probe needs at least two sample sizes")
    if config.replicates < 2:
        raise InsufficientGrid("rate probe needs at least two replicates for an sd")
    if config.net != "two-node":
        raise ConfigError(f"the rate probe runs on the two-node net only, got {config.net!r}")
    net = two_node_net()
    models = [parse_missingness(spec, net.num_nodes) for spec in config.missingness]
    regimes = _distinct_labels([missingness_label(m) for m in models], "missingness specs")
    for missing, label in zip(models, regimes):
        if observation_probability(1, (0,), missing, net.num_nodes) == 0:
            raise ConfigError(f"rate probe: {label} never observes X1 and X2 together")
    cells = [(n, missing, derive_seed(config.seed, splitmix64(ri * 4001 + ni)))
             for ri, missing in enumerate(models) for ni, n in enumerate(config.sample_sizes)]
    per_cell = monte_carlo(net, cells, config.replicates, spurious_edge_gain, 2)
    rows = []
    for ri, label in enumerate(regimes):
        gains = per_cell[ri * len(config.sample_sizes):(ri + 1) * len(config.sample_sizes)]
        for n, cell in zip(config.sample_sizes, gains):
            if not all(map(math.isfinite, cell)):
                raise InsufficientGrid(f"rate probe: under {label} at n = {n} some replicate "
                                       "never observes X1 and X2 together")
            if min(cell) == max(cell):
                raise InsufficientGrid(f"rate probe: under {label} at n = {n} the gain does "
                                       "not vary, so its sd is 0")
        sds = [float(np.std(cell, ddof=1)) for cell in gains]
        slope = float(
            np.polyfit(np.log(np.asarray(config.sample_sizes, float)), np.log(sds), 1)[0]
        )
        for n, sd in zip(config.sample_sizes, sds):
            rows.append({"regime": label, "n": n, "sd": sd, "slope": slope})
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_rows(rows: Sequence[dict], path) -> None:
    """CSV with the first row's keys as columns; every runner builds rows in column order."""
    columns = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.DictWriter(f, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row[k]) for k in columns})


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".10g")
    return v
