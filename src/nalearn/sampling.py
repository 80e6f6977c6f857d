"""Forward sampling and MCAR masking.

All randomness flows through numpy's PCG64 generator seeded from a 64-bit
integer. Per-replicate seeds are derived with splitmix64 so that replicates
are order-independent: seed_r = base_seed XOR splitmix64(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .data import MISSING, Dataset
from .errors import ConfigError
from .model import BayesNet

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for replicate `index`, independent of execution order."""
    return (base_seed & _MASK64) ^ splitmix64(index & _MASK64)


@dataclass(frozen=True)
class Bernoulli:
    """Independent per-variable observation probabilities p_i."""

    observe_probs: tuple[float, ...]

    def __init__(self, observe_probs: Sequence[float]):
        ps = tuple(float(p) for p in observe_probs)
        if any(not 0.0 <= p <= 1.0 for p in ps):
            raise ValueError("observation probabilities must lie in [0,1]")
        object.__setattr__(self, "observe_probs", ps)


@dataclass(frozen=True)
class KPerRecord:
    """Exactly k cells deleted uniformly at random in every record."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")


MissingnessModel = Bernoulli | KPerRecord


def parse_missingness(spec, num_vars: int) -> MissingnessModel | None:
    """MCAR model from "none" | "bernoulli:p[,p...]" | "kper:k" or a dict
    {mode, p, k}, mode defaulting to "none" (which gives None). Bernoulli takes
    1 probability (for every variable) or num_vars, as a number, list or comma
    list; k-per-record needs 0 <= k < num_vars. Raises ConfigError quoting `spec`.
    """
    fields = spec
    if isinstance(spec, str):
        mode, _, arg = spec.partition(":")
        fields = {"mode": mode, "p" if mode == "bernoulli" else "k": arg or None}
    mode = fields.get("mode", "none") if isinstance(fields, dict) else None
    if mode not in ("none", "bernoulli", "kper"):
        raise ConfigError(f"unknown missingness spec {spec!r}")
    given = sorted(key for key, value in fields.items() if key != "mode" and value is not None)
    wanted = {"none": [], "bernoulli": ["p"], "kper": ["k"]}[mode]
    if given != wanted:
        raise ConfigError(f"missingness spec {spec!r}: mode {mode!r} takes {wanted or 'nothing'}")
    try:
        if mode == "bernoulli":
            p = fields["p"].split(",") if isinstance(fields["p"], str) else fields["p"]
            probs = [float(x) for x in (p if isinstance(p, (list, tuple)) else [p])]
            if len(probs) not in (1, num_vars):
                raise ValueError(f"needs 1 or {num_vars} probabilities, got {len(probs)}")
            return Bernoulli(probs * (num_vars // len(probs)))
        if mode == "kper":
            k = int(fields["k"])
            if k != float(fields["k"]) or not 0 <= k < num_vars:
                raise ValueError(f"k must be an integer with 0 <= k < {num_vars}")
            return KPerRecord(k)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"missingness spec {spec!r}: {exc}") from None
    return None


def forward_sample(net: BayesNet, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. complete records from the network.

    Nodes are visited in the lowest-index-first topological order; each
    column is drawn from the CPT row selected by the realized parents.
    """
    rng = np.random.default_rng(seed)
    N = net.num_nodes
    vals = np.zeros((n, N), dtype=np.int16)
    if n == 0:
        return Dataset(net.variables, vals)
    order = net.dag.topological_order()
    u = rng.random((n, N))
    for i in order:
        table = net.cpt.tables[i]  # (q_pa, q_i)
        parents = net.dag.parents[i]
        if parents:
            j = np.zeros(n, dtype=np.int64)
            for p in parents:
                j = j * net.variables[p].cardinality + vals[:, p]
            cum = np.cumsum(table, axis=1)
            rows = cum[j]
        else:
            rows = np.broadcast_to(np.cumsum(table[0]), (n, table.shape[1]))
        # inverse-CDF draw per record
        vals[:, i] = (u[:, i][:, None] >= rows).sum(axis=1).astype(np.int16)
        np.minimum(vals[:, i], net.variables[i].cardinality - 1, out=vals[:, i])
    return Dataset(net.variables, vals)


def apply_mcar(data: Dataset, model: MissingnessModel, seed: int) -> Dataset:
    """Mask cells completely at random; already-missing cells stay missing."""
    rng = np.random.default_rng(seed)
    n, N = data.values.shape
    vals = data.values.copy()
    if isinstance(model, Bernoulli):
        if len(model.observe_probs) != N:
            raise ValueError("one observation probability per variable required")
        p = np.asarray(model.observe_probs)
        drop = rng.random((n, N)) >= p[None, :]
        vals[drop] = MISSING
    else:
        if not 0 <= model.k < N:
            raise ValueError(f"k must satisfy 0 <= k < {N}")
        if model.k > 0 and n > 0:
            # uniform k-subset per record via argpartition of random keys
            keys = rng.random((n, N))
            idx = np.argpartition(keys, model.k - 1, axis=1)[:, : model.k]
            vals[np.arange(n)[:, None], idx] = MISSING
    return Dataset(data.variables, vals)


def subset_observation_probability(N: int, k: int, s: int) -> float:
    """Chance a fixed s-subset of a record survives k uniform deletions.

    Equals C(N-k, s) / C(N, s); zero when s + k > N.
    """
    if s <= 0:
        raise ValueError("subset size must be positive")
    if k < 0 or N <= 0:
        raise ValueError("invalid N or k")
    if s + k > N:
        return 0.0
    return comb(N - k, s) / comb(N, s)
