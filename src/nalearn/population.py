"""Exact population-level quantities via enumeration of the joint state space.

All computations marginalize the exact joint distribution of the generating
network, so they are limited to at most STATE_SPACE_CAP joint states. A
family's table is the plain array ``data.marginal`` reads off the joint, as
it reads sample counts off a histogram, and it is scored by the same kernel
as those counts, ``scoring.stacked_nal``: check_identifiability scores each
node's distinct families side by side in one call, as search does with each
node's counts. Under MCAR the records where a family is observed follow
that marginal whatever the chance theta_i of observing it, so missingness
enters only through beta, which reads theta_i from
``sampling.observation_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .data import STATE_SPACE_CAP, marginal
from .errors import ConfigError, StateSpaceTooLarge
from .model import BayesNet, Dag, node_df, parent_masks
from .sampling import MissingnessModel, observation_probability
from .scoring import stacked_nal


def _joint_array(net: BayesNet) -> np.ndarray:
    shape = tuple(v.cardinality for v in net.variables)
    total = math.prod(int(q) for q in shape)  # Python ints: a numpy product would wrap
    if total > STATE_SPACE_CAP:
        raise StateSpaceTooLarge(f"{total} joint states exceeds cap {STATE_SPACE_CAP}")
    joint = np.ones(shape)
    for i, parents in enumerate(net.dag.parents):
        axes = [*parents, i]  # the CPT's axes, the child last
        table = net.cpt.tables[i].reshape([shape[a] for a in axes])
        table = np.moveaxis(table, range(len(axes)), [sorted(axes).index(a) for a in axes])
        joint = joint * table.reshape([q if a in axes else 1 for a, q in enumerate(shape)])
    return joint


def joint_distribution(net: BayesNet) -> np.ndarray:
    """Flat joint probability vector, node 0 slowest (C-order ravel)."""
    return _joint_array(net).ravel()


def induced_theta_mcar(g: Dag, joint: np.ndarray) -> tuple[np.ndarray, ...]:
    """The marginals P(X_i = k, Pa_i = j), of shape (q_i, q_pa), of g's families
    in node order, read off the true net's joint as _joint_array builds it:
    the population tables theta(G | G0), the same under every MCAR missingness."""
    return tuple(marginal(joint, i, ps, sentinels=False) for i, ps in enumerate(g.parents))


def population_nal(tables: Sequence[np.ndarray]) -> float:
    """Population NAL l(G | G0) from the family marginals of G."""
    return math.fsum(stacked_nal(t, [t.shape[1]])[0][0] for t in tables)


def population_nal_of(g: Dag, net0: BayesNet) -> float:
    """l(G | G0), building the joint of net0 for this call alone."""
    return population_nal(induced_theta_mcar(g, _joint_array(net0)))


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


def _family_nals(joint: np.ndarray, families: Sequence[tuple[int, tuple[int, ...]]]
                 ) -> np.ndarray:
    """The population NAL of each family, the families sorted node-major: each
    node's marginals stand side by side in one stacked_nal call."""
    nal = [np.empty(0)]
    for node, group in groupby(families, itemgetter(0)):
        tables = [marginal(joint, node, ps, sentinels=False) for _, ps in group]
        nal.append(stacked_nal(np.hstack(tables), [t.shape[1] for t in tables])[0])
    return np.concatenate(nal)


def check_identifiability(
    net0: BayesNet,
    candidates: Sequence[Sequence[Sequence[int]]],
    tol: float = 1e-9,
) -> IdentifiabilityReport:
    """Evaluate l(G|G0) over candidates, each a list of parent lists (a Dag's
    parents), and locate the minimal maximizers.

    NAL and df are sums over families, so each distinct (node, parent set)
    family is scored once, in one stacked_nal call per node. MCAR missingness
    leaves the population NAL, hence the report, unchanged.
    """
    N = net0.num_nodes
    joint = _joint_array(net0)  # refuses N above 24, so every key below fits int64
    true_nal = population_nal(induced_theta_mcar(net0.dag, joint))
    masks = parent_masks(candidates, N)
    del candidates  # the parsed lists go before scoring
    keys, owner = np.unique((np.arange(N, dtype=np.int64) << N) | masks, return_inverse=True)
    owner = owner.reshape(masks.shape).astype(np.int32)
    families = tuple((key >> N, _parents_of(key & ((1 << N) - 1))) for key in keys.tolist())
    family_nal = _family_nals(joint, families)
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
    """Minimum observation probability over (node, parents) families, such as an
    IdentifiabilityReport's distinct families; 1 over none. A family that is
    never observed has no available-case estimate, so it is refused."""
    beta = 1.0
    for i, ps in families:
        prob = observation_probability(i, ps, missing, num_vars)
        if prob == 0:
            raise ConfigError(f"node {i} with parents {list(ps)} is never observed "
                              "under this missingness")
        beta = min(beta, prob)
    return beta
