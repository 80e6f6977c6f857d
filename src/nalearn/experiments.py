"""Monte Carlo harness: two-node consistency table, structure recovery and
convergence-rate probes, all emitting CSV.

Every replicate owns a seed derived from the base seed and the replicate
index, so results do not depend on execution order and a config plus seed
reproduces each CSV byte for byte.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, count_sufficient_stats
from .equivalence import edge_f_score
from .errors import ConfigError, InsufficientGrid
from .model import BayesNet, df_complexity, json_int, json_number, load_net, read_json
from .networks import eight_node_net, two_node_net
from .sampling import (
    Bernoulli, MissingnessModel, apply_mcar, derive_seed, forward_sample, parse_missingness,
    splitmix64,
)
from .scoring import NEG_INFINITY, Penalty, lambda_value, node_nal, node_nal_from_counts, parse_penalty
from .search import SearchSpace, learn_structure


@dataclass
class ExperimentConfig:
    """Shared knobs for the Monte Carlo runners."""

    net: str = "two-node"  # "two-node", "eight-node" or a network file path
    sample_sizes: tuple[int, ...] = (100, 1000, 10000, 100000)
    betas: tuple[float, ...] = (1.0, 0.99, 0.95, 0.90, 0.75)  # two-node masking
    missingness: tuple[dict, ...] = ({"mode": "none"},)  # recovery masking specs
    penalties: tuple = ("aic", "bic")
    replicates: int = 1000
    seed: int = 20240901
    max_parents: int = 3
    order: tuple[int, ...] | None = None

    def validate(self) -> None:
        for name in ("sample_sizes", "betas", "penalties", "missingness"):
            if not getattr(self, name):
                raise InsufficientGrid(f"{name} must not be empty")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be >= 1")
        if any(not 0.0 < b <= 1.0 for b in self.betas):
            raise ConfigError("betas must lie in (0, 1]")
        if self.max_parents < 0:
            raise ConfigError(f"max_parents must be >= 0, got {self.max_parents}")
        if self.order is not None and sorted(self.order) != list(range(len(self.order))):
            raise ConfigError(f"order must be a permutation of 0..N-1, got {list(self.order)}")


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise TypeError(f"a config must be a JSON object, got {type(obj).__name__}")
    cfg = ExperimentConfig()
    known = {
        "net": str,
        "sample_sizes": lambda v: tuple(json_int(x) for x in v),
        "betas": lambda v: tuple(float(json_number(x)) for x in v),
        "missingness": lambda v: tuple(dict(d) for d in v),
        "penalties": tuple,
        "replicates": json_int,
        "seed": json_int,
        "max_parents": json_int,
        "order": lambda v: tuple(json_int(x) for x in v) if v is not None else None,
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


def penalty_label(spec) -> str:
    if isinstance(spec, str):
        return spec
    if isinstance(spec, Penalty):
        return spec.label()
    if isinstance(spec, dict) and spec.get("kind", "power") == "power":
        return f"a{spec['alpha']}"
    return str(spec.get("kind"))


def resolve_net(spec: str) -> BayesNet:
    if spec == "two-node":
        return two_node_net()
    if spec == "eight-node":
        return eight_node_net()
    return load_net(spec)


def missingness_label(spec: dict) -> str:
    mode = spec.get("mode", "none")
    if mode == "none":
        return "complete"
    if mode == "bernoulli":
        return f"bernoulli(p={spec['p']})"
    return f"kper(k={spec['k']})"


def _draw_replicate(
    net: BayesNet, n: int, missing: MissingnessModel | None, rep_seed: int
) -> Dataset:
    """n records forward-sampled at rep_seed, then MCAR-masked at a seed derived from it."""
    data = forward_sample(net, n, rep_seed)
    if missing is not None:
        data = apply_mcar(data, missing, derive_seed(rep_seed, 1))
    return data


# ---------------------------------------------------------------------------
# Two-node benchmark (the consistency/inconsistency table)
# ---------------------------------------------------------------------------

def two_node_wrong_fraction(
    beta: float, n: int, penalties: Sequence[Penalty], replicates: int, seed: int
) -> list[float]:
    """Fraction of replicates where the spurious edge wins, per penalty.

    The decision compares the penalized scores of the independence model and
    the one-edge model; their structures differ by one parameter, so the
    spurious model wins exactly when its NAL gain exceeds lambda_n. Exact
    ties count as correct (minimal-complexity convention).
    """
    net = two_node_net()
    mask = Bernoulli((beta, 1.0)) if beta < 1.0 else None
    lams = [lambda_value(pen, n) for pen in penalties]
    wrong = [0] * len(penalties)
    for r in range(replicates):
        data = _draw_replicate(net, n, mask, derive_seed(seed, r))
        # node 2's NAL under no parents vs parent {X1}; node 1 is shared
        nal_empty = node_nal_from_counts(count_sufficient_stats(data, 1, ()))
        nal_chain = node_nal_from_counts(count_sufficient_stats(data, 1, (0,)))
        if nal_chain == NEG_INFINITY:
            continue  # spurious model unobservable, never selected
        gain = nal_chain - nal_empty
        for idx, lam in enumerate(lams):
            if gain > lam:
                wrong[idx] += 1
    return [w / replicates for w in wrong]


def run_two_node(config: ExperimentConfig) -> list[dict]:
    """Wrong-selection percentages over the (beta, n, penalty) grid."""
    config.validate()
    if config.net != "two-node":
        raise ConfigError(f"the two-node table runs on the two-node net only, got {config.net!r}")
    penalties = [parse_penalty(p, 2) for p in config.penalties]
    labels = [penalty_label(p) for p in config.penalties]
    rows = []
    for bi, beta in enumerate(config.betas):
        for ni, n in enumerate(config.sample_sizes):
            cell_seed = derive_seed(config.seed, splitmix64(bi * 1009 + ni))
            fractions = two_node_wrong_fraction(
                beta, n, penalties, config.replicates, cell_seed
            )
            for label, frac in zip(labels, fractions):
                se = math.sqrt(max(frac * (1 - frac), 0.0) / config.replicates)
                rows.append(
                    {
                        "beta": beta,
                        "n": n,
                        "penalty": label,
                        "wrong_pct": 100.0 * frac,
                        "mc_se": 100.0 * se,
                    }
                )
    return rows


# Reference wrong-selection percentages for the two-node benchmark at
# R = 1000 (rows: beta, columns: penalty label), used by check mode.
TWO_NODE_REFERENCE: dict[tuple[float, int, str], float] = {}

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
        TWO_NODE_REFERENCE[(b, nn, col)] = v


def check_two_node(rows: Sequence[dict]) -> list[str]:
    """Compare measured cells against TWO_NODE_REFERENCE; return failures.

    Tolerance per cell is 3 * sqrt(p (1-p) / 1000) with p the reference
    fraction; reference zeros must measure at most 0.5%.
    """
    failures = []
    for row in rows:
        key = (row["beta"], row["n"], row["penalty"])
        if key not in TWO_NODE_REFERENCE:
            continue
        ref = TWO_NODE_REFERENCE[key]
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

def _recovery_replicate(args):
    (net, space, n, missing, penalties, rep_seed) = args
    data = _draw_replicate(net, n, missing, rep_seed)
    out = []
    for penalty in penalties:  # the penalties share data's family scores
        learned = learn_structure(data, space, penalty)
        out.append(
            (
                edge_f_score(net.dag, learned),
                df_complexity(learned, net.variables),
            )
        )
    return out


def run_recovery(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
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
    true_df = net.df()
    rows = []
    for mi, (miss_spec, missing) in enumerate(zip(config.missingness, models)):
        for ni, n in enumerate(config.sample_sizes):
            cell_seed = derive_seed(config.seed, splitmix64(mi * 2003 + ni))
            tasks = [
                (net, space, n, missing, penalties, derive_seed(cell_seed, r))
                for r in range(config.replicates)
            ]
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    results = list(pool.map(_recovery_replicate, tasks))
            else:
                results = [_recovery_replicate(t) for t in tasks]
            for pi, spec in enumerate(config.penalties):
                fs = [res[pi][0] for res in results]
                dfs = [res[pi][1] for res in results]
                rows.append(
                    {
                        "n": n,
                        "missingness": missingness_label(miss_spec),
                        "penalty": penalty_label(spec),
                        "mean_f": float(np.mean(fs)),
                        "mean_df": float(np.mean(dfs)),
                        "recovery_rate": float(np.mean([f == 1.0 for f in fs])),
                        "true_df": true_df,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Convergence-rate probe for the nested NAL difference
# ---------------------------------------------------------------------------

def run_rate_probe(config: ExperimentConfig) -> list[dict]:
    """Sd of the nested NAL difference per n, with a log-log slope per regime.

    The pair is the two-node benchmark's: the independence model inside the
    chain, so the difference is node 1's NAL with parent 0 minus without.
    """
    config.validate()
    if len(set(config.sample_sizes)) < 2:
        raise InsufficientGrid("rate probe needs at least two sample sizes")
    if config.replicates < 2:
        raise InsufficientGrid("rate probe needs at least two replicates for an sd")
    if config.net != "two-node":
        raise ConfigError(f"the rate probe runs on the two-node net only, got {config.net!r}")
    net = two_node_net()
    regimes = [
        (parse_missingness(spec, net.num_nodes), missingness_label(spec))
        for spec in config.missingness
    ]
    rows = []
    for ri, (missing, label) in enumerate(regimes):
        sds = []
        for ni, n in enumerate(config.sample_sizes):
            cell_seed = derive_seed(config.seed, splitmix64(ri * 4001 + ni))
            diffs = []
            for r in range(config.replicates):
                data = _draw_replicate(net, n, missing, derive_seed(cell_seed, r))
                diffs.append(node_nal(data, 1, (0,)) - node_nal(data, 1, ()))
            sds.append(float(np.std(diffs, ddof=1)))
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
