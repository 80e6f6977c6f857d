"""The expected-fill-in objective and its plug-in maximizer (the reference
implementation in oracles.py)."""

import numpy as np
import pytest

from nalearn import (
    Bernoulli,
    Dag,
    Dataset,
    Variable,
    apply_mcar,
    count_sufficient_stats,
    forward_sample,
    nal,
)

from oracles import (
    NodeParams,
    NonNormalizedParameters,
    QStarInput,
    UnobservableNode,
    q_star,
    q_star_at_maximizer,
    q_star_maximizer,
)
from util import random_net

BIN2 = [Variable("X1", 2), Variable("X2", 2)]
FOUR = Dataset(BIN2, [(0, 0), (0, 1), (1, 1), (1, 1)])


def counts_for(data, dag):
    return tuple(
        count_sufficient_stats(data, i, ps) for i, ps in enumerate(dag.parents)
    )


def random_node_params(counts, rng):
    out = []
    for c in counts:
        q_i, q_pa = c.n_ikj.shape
        p_j = rng.dirichlet([1.0] * q_pa) if q_pa > 1 else np.ones(1)
        p_kj = rng.dirichlet([1.0] * q_i, size=q_pa).T
        out.append(NodeParams(p_j, p_kj))
    return tuple(out)


def test_complete_data_reduces_to_loglik():
    rng = np.random.default_rng(89)
    net = random_net(3, rng)
    data = forward_sample(net, 120, seed=11)
    counts = counts_for(data, net.dag)
    params = random_node_params(counts, rng)
    got = q_star(QStarInput(counts, random_node_params(counts, rng), params))
    expect = sum(
        float((c.n_ikj * np.log(np.where(p.p_kj > 0, p.p_kj, 1.0))).sum())
        for c, p in zip(counts, params)
    )
    # complete data: the fill-in weight (n - n_i) vanishes, reference irrelevant
    assert got == pytest.approx(expect, abs=1e-9)


def test_maximizer_hand_case():
    counts = (count_sufficient_stats(FOUR, 1, (0,)),)
    params, cpt = q_star_maximizer(counts)
    np.testing.assert_allclose(params[0].p_kj, [[0.5, 0.0], [0.5, 1.0]])
    np.testing.assert_allclose(cpt.tables[0], [[0.5, 0.5], [0.0, 1.0]])


def test_maximizer_point_mass_rows():
    data = Dataset(BIN2, [(0, 1)] * 8)
    params, _ = q_star_maximizer(counts_for(data, Dag([[], [0]])))
    np.testing.assert_allclose(params[1].p_kj[:, 0], [0.0, 1.0])


def test_maximizer_uniform_padding_for_empty_columns():
    data = Dataset(BIN2, [(0, 0), (0, 1)])
    counts = (count_sufficient_stats(data, 1, (0,)),)
    params, _ = q_star_maximizer(counts)
    np.testing.assert_allclose(params[0].p_kj[:, 1], [0.5, 0.5])


def test_maximizer_unobservable_node():
    data = Dataset(BIN2, [(-1, 0), (-1, 1)])
    with pytest.raises(UnobservableNode):
        q_star_maximizer((count_sufficient_stats(data, 0, ()),))


def test_q_star_rejects_unnormalized():
    counts = counts_for(FOUR, Dag([[], []]))
    bad = (
        NodeParams(np.ones(1), np.array([[0.7], [0.7]])),
        NodeParams(np.ones(1), np.array([[0.5], [0.5]])),
    )
    with pytest.raises(NonNormalizedParameters):
        q_star(QStarInput(counts, bad, bad))


def test_identity_q_star_equals_n_times_nal():
    rng = np.random.default_rng(97)
    checked = 0
    trial = 0
    while checked < 60:
        trial += 1
        net = random_net(3, rng)
        data = forward_sample(net, 150, seed=6000 + trial)
        masked = apply_mcar(data, Bernoulli((0.85, 0.9, 0.8)), seed=7000 + trial)
        counts = counts_for(masked, net.dag)
        if any(c.n_i == 0 for c in counts):
            continue
        got = q_star_at_maximizer(counts)
        expect = masked.num_records * nal(masked, net.dag)
        assert got == pytest.approx(expect, abs=1e-9)
        checked += 1


def test_maximizer_dominates_random_parameters():
    rng = np.random.default_rng(101)
    net = random_net(2, rng)
    data = forward_sample(net, 60, seed=15)
    masked = apply_mcar(data, Bernoulli((0.8, 0.8)), seed=16)
    counts = counts_for(masked, net.dag)
    params, _ = q_star_maximizer(counts)
    best = q_star(QStarInput(counts, params, params))
    for _ in range(1000):
        other = random_node_params(counts, rng)
        assert q_star(QStarInput(counts, params, other)) <= best + 1e-9
