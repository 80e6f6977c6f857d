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
        ps = tuple(float(p) + 0.0 for p in observe_probs)  # -0.0 reads 0.0: equal models, one label
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
    """MCAR model from "none" (which gives None) | "bernoulli:p[,p...]" |
    "kper:k". Bernoulli takes 1 probability (for every variable) or
    num_vars; k-per-record needs 0 <= k < num_vars. Raises ConfigError
    quoting `spec`, which must be a string.
    """
    if spec == "none":
        return None
    mode, _, arg = spec.partition(":") if isinstance(spec, str) else (None, None, None)
    if mode not in ("bernoulli", "kper") or not arg:
        raise ConfigError(f"unknown missingness spec {spec!r}; write none, "
                          "bernoulli:p[,p...] or kper:k")
    try:
        if mode == "bernoulli":
            probs = [float(p) for p in arg.split(",")]
            if len(probs) not in (1, num_vars):
                raise ValueError(f"needs 1 or {num_vars} probabilities, got {len(probs)}")
            return Bernoulli(probs * (num_vars // len(probs)))
        k = int(arg)
        if not 0 <= k < num_vars:
            raise ValueError(f"k must satisfy 0 <= k < {num_vars}")
        return KPerRecord(k)
    except ValueError as exc:
        raise ConfigError(f"missingness spec {spec!r}: {exc}") from None


def forward_sample(net: BayesNet, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. complete records from the network.

    The random stream is one ``rng.random((n, N))`` block, record-major: cell
    (r, i) is the uniform u behind node i of record r. Nodes are drawn in the
    lowest-index-first topological order, and node i's value is the number of
    the first q_i - 1 cumulative bounds of its CPT row (selected by the
    realized parents) that are <= u; leaving out the last bound caps the value
    at q_i - 1 when a row sums to just under 1. The columns are filled one
    variable at a time in an (N, n) array, and the Dataset gets its transpose.
    """
    rng = np.random.default_rng(seed)
    N = net.num_nodes
    vals = np.zeros((N, n), dtype=np.int16)
    u = rng.random((n, N)).T
    for i in net.dag.topological_order():
        bounds = np.cumsum(net.cpt.tables[i], axis=1)[:, :-1].T  # (q_i - 1, q_pa)
        j = np.intp(0)  # parent configuration, the last parent varying fastest
        for p in net.dag.parents[i]:
            j = j * net.variables[p].cardinality + vals[p]
        for bound in bounds:
            vals[i] += u[i] >= bound[j]
    return Dataset(net.variables, vals.T)


def apply_mcar(data: Dataset, model: MissingnessModel, seed: int) -> Dataset:
    """Mask cells completely at random; already-missing cells stay missing.

    Either model draws one ``rng.random((n, N))`` block, record-major like
    forward_sample's. Bernoulli drops cell (r, i) when its uniform is >=
    p_i; k-per-record drops the k cells of smallest uniform in each record.
    """
    rng = np.random.default_rng(seed)
    n, N = data.values.shape
    vals = np.array(data.values.T, order="C")  # (N, n): one row per variable
    if isinstance(model, Bernoulli):
        if len(model.observe_probs) != N:
            raise ValueError("one observation probability per variable required")
        u = rng.random((n, N)).T
        for i, p in enumerate(model.observe_probs):
            if p < 1.0:  # every uniform is < 1, so p = 1 drops nothing
                np.putmask(vals[i], u[i] >= p, MISSING)
    else:
        if not 0 <= model.k < N:
            raise ValueError(f"k must satisfy 0 <= k < {N}")
        if model.k > 0 and n > 0:
            keys = rng.random((n, N))
            idx = np.argpartition(keys, model.k - 1, axis=1)[:, : model.k]
            vals[idx, np.arange(n)[:, None]] = MISSING
    return Dataset(data.variables, vals.T)


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
