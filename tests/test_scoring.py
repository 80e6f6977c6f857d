"""NAL, its match with the standard average log-likelihood, penalties and
penalized scores."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nalearn import (
    AIC,
    BIC,
    MISSING,
    NEG_INFINITY,
    Dag,
    Dataset,
    Penalty,
    Variable,
    count_sufficient_stats,
    df_complexity,
    forward_sample,
    lambda_value,
    nal,
    node_nal,
    power_law,
    score_decomposable,
    score_global,
)
from nalearn.errors import ZeroSampleSize
from nalearn.data import SufficientCounts
from nalearn.scoring import node_nal_from_counts, stacked_nal

from oracles import standard_avg_loglik
from util import random_dataset, random_net

BIN2 = [Variable("X1", 2), Variable("X2", 2)]
FOUR = Dataset(BIN2, [(0, 0), (0, 1), (1, 1), (1, 1)])


def rational_node_nal(data, node, parents):
    """Exact-rational oracle for the node-average log-likelihood."""
    c = count_sufficient_stats(data, node, parents)
    if c.n_i == 0:
        return NEG_INFINITY
    total = 0.0
    for j in range(c.n_ij.shape[0]):
        if c.n_ij[j] == 0:
            continue
        w = Fraction(int(c.n_ij[j]), c.n_i)
        for k in range(c.n_ikj.shape[0]):
            if c.n_ikj[k, j] == 0:
                continue
            r = Fraction(int(c.n_ikj[k, j]), int(c.n_ij[j]))
            total += float(w) * float(r) * math.log(r)
    return total


def loop_node_nal(c):
    """The NAL kernel as first written: masked float arrays and a generator fsum."""
    if c.n_i == 0:
        return NEG_INFINITY
    n_ij = c.n_ij.astype(float)
    n_ikj = c.n_ikj.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = n_ikj / np.where(n_ij > 0, n_ij, 1.0)[None, :]
        terms = np.where(n_ikj > 0, theta * np.log(np.where(theta > 0, theta, 1.0)), 0.0)
    inner = terms.sum(axis=0)
    weights = np.where(n_ij > 0, n_ij / c.n_i, 0.0)
    return float(math.fsum(w * v for w, v in zip(weights, inner) if w > 0))


def test_node_nal_kernel_bit_identical_to_loop_form():
    rng = np.random.default_rng(2011)
    for trial in range(400):
        q_i, q_pa = int(rng.integers(2, 6)), int(rng.integers(1, 30))
        n_ikj = rng.integers(0, 50, size=(q_i, q_pa)) * (rng.random((q_i, q_pa)) < 0.6)
        n_ikj[:, rng.random(q_pa) < 0.3] = 0  # unobserved parent configurations
        if trial % 50 == 0:
            n_ikj[:] = 0
        n_ij = n_ikj.sum(axis=0)
        c = SufficientCounts(0, (), int(n_ij.sum()) + 7, int(n_ij.sum()), n_ij, n_ikj)
        value = node_nal_from_counts(c)
        assert value == loop_node_nal(c)  # -inf == -inf when n_i = 0
        perm = rng.permutation(q_pa)
        shuffled = SufficientCounts(0, (), c.n, c.n_i, n_ij[perm], n_ikj[:, perm])
        assert node_nal_from_counts(shuffled) == value


def test_stacked_nal_bit_identical_to_per_family_kernel_on_counts():
    # the kernel divides by np.where(n > 0, n, 1) so that it also scores
    # probabilities; on counts that must be np.maximum(n, 1) to the bit
    rng = np.random.default_rng(2017)
    for trial in range(200):
        q_i = int(rng.integers(2, 6))
        widths = rng.integers(1, 12, size=int(rng.integers(1, 8)))
        n_ikj = rng.integers(0, 40, size=(q_i, int(widths.sum()))) * (
            rng.random((q_i, int(widths.sum()))) < 0.6)
        n_ikj[:, rng.random(n_ikj.shape[1]) < 0.3] = 0  # unobserved parent configurations
        starts = np.cumsum(widths) - widths
        for f in np.flatnonzero(rng.random(len(widths)) < 0.2):  # whole families with n_i = 0
            n_ikj[:, starts[f]:starts[f] + widths[f]] = 0
        nal_values, n_i = stacked_nal(n_ikj, widths)
        for f, (s, w) in enumerate(zip(starts, widths)):
            family = n_ikj[:, s:s + w]
            n_ij = family.sum(axis=0)
            c = SufficientCounts(0, (), int(n_ij.sum()), int(n_ij.sum()), n_ij, family)
            assert n_i[f] == c.n_i
            assert nal_values[f] == node_nal_from_counts(c)  # -inf == -inf when n_i = 0
            assert (nal_values[f] == NEG_INFINITY) == (c.n_i == 0)


def test_node_nal_hand_marginal():
    assert node_nal(FOUR, 1, []) == pytest.approx(
        0.25 * math.log(0.25) + 0.75 * math.log(0.75), abs=1e-12
    )


def test_node_nal_hand_conditional():
    assert node_nal(FOUR, 1, [0]) == pytest.approx(0.5 * math.log(0.5), abs=1e-12)


def test_node_nal_deterministic_column_is_zero():
    data = Dataset(BIN2, [(1, 0)] * 6)
    assert node_nal(data, 0, []) == 0.0


def test_node_nal_matches_rational_oracle():
    rng = np.random.default_rng(17)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(3)]
    for trial in range(40):
        data = random_dataset(variables, int(rng.integers(1, 60)), rng, 0.3)
        node = int(rng.integers(0, 3))
        parents = [p for p in range(3) if p != node and rng.random() < 0.5]
        got = node_nal(data, node, parents)
        want = rational_node_nal(data, node, parents)
        if want == NEG_INFINITY:
            assert got == NEG_INFINITY
        else:
            assert got == pytest.approx(want, abs=1e-10)


def test_node_nal_unobservable_sentinel():
    data = Dataset(BIN2, [(MISSING, 0), (MISSING, 1)])
    assert node_nal(data, 0, []) == NEG_INFINITY


def test_nal_empty_dag_hand_value():
    empty = Dag([[], []])
    expect = math.log(0.5) + (0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert nal(FOUR, empty) == pytest.approx(expect, abs=1e-12)


def test_nal_neg_infinity_propagates():
    data = Dataset(BIN2, [(MISSING, 0), (MISSING, 1)])
    assert nal(data, Dag([[], []])) == NEG_INFINITY


def test_nal_is_nonpositive():
    rng = np.random.default_rng(23)
    for trial in range(20):
        net = random_net(4, rng)
        data = forward_sample(net, 200, seed=1000 + trial)
        assert nal(data, net.dag) <= 1e-12


def test_complete_data_identity():
    rng = np.random.default_rng(29)
    for trial in range(50):
        net = random_net(4, rng)
        data = forward_sample(net, int(rng.integers(1, 300)), seed=2000 + trial)
        for dag in (net.dag, Dag([[]] * 4)):
            assert abs(nal(data, dag) - standard_avg_loglik(data, dag)) <= 1e-12


def test_standard_differs_from_nal_on_masked_data():
    variables = [Variable(f"X{i}", 2) for i in range(3)]
    values = [
        (0, 0, 1),
        (MISSING, 1, 0),
        (1, 1, 1),
        (1, 0, 0),
        (0, 1, 1),
        (1, 1, 0),
    ]
    data = Dataset(variables, values)
    dag = Dag([[], [0], [1]])
    a = nal(data, dag)
    b = standard_avg_loglik(data, dag)
    assert abs(a - b) > 1e-6


def test_standard_single_record_is_zero():
    data = Dataset(BIN2, [(0, 1)])
    assert standard_avg_loglik(data, Dag([[], [0]])) == 0.0


def test_lambda_values():
    assert lambda_value(BIC, math.e**2) == pytest.approx(math.e**-2, rel=1e-12)
    assert lambda_value(AIC, 100) == 0.01
    assert lambda_value(power_law(0.5, 0.5), 100) == pytest.approx(0.05)
    assert lambda_value(Penalty("none"), 100) == 0.0
    assert lambda_value(Penalty("none"), 0) == 0.0  # no penalty needs no sample size
    with pytest.raises(ZeroSampleSize):
        lambda_value(AIC, 0)


def test_penalty_validation():
    with pytest.raises(ValueError):
        power_law(0.5, 1.5)
    with pytest.raises(ValueError):
        power_law(-1.0, 0.5)


def test_score_global_none_equals_nal():
    assert score_global(FOUR, Dag([[], [0]]), Penalty("none")) == nal(FOUR, Dag([[], [0]]))


def test_score_global_hand_arithmetic():
    dag = Dag([[], []])  # df = 2
    base = nal(FOUR, dag)
    penalty = power_law(0.1, 0.5)  # lambda = 0.1 * 4^-0.5 = 0.05 at n = 4
    assert lambda_value(penalty, 4) == pytest.approx(0.05)
    assert score_global(FOUR, dag, penalty) == pytest.approx(base - 0.1, abs=1e-12)


def test_score_decomposable_equals_global_on_complete_data():
    rng = np.random.default_rng(31)
    for trial in range(20):
        net = random_net(3, rng)
        data = forward_sample(net, 150, seed=3000 + trial)
        for penalty in (AIC, BIC, power_law(0.3, 0.4)):
            total, breakdown = score_decomposable(data, net.dag, penalty)
            assert total == pytest.approx(score_global(data, net.dag, penalty), abs=1e-12)
            assert len(breakdown) == 3


def test_score_decomposable_none_equals_nal():
    total, _ = score_decomposable(FOUR, Dag([[], [0]]), Penalty("none"))
    assert total == pytest.approx(nal(FOUR, Dag([[], [0]])), abs=1e-15)


def test_decomposable_bic_matches_per_node_form():
    """Per-node BIC written as nal_i - 0.5 ln(n_i)/n_i * df_i on masked data."""
    variables = [Variable("X1", 2), Variable("X2", 2)]
    values = [(0, 0), (1, 1), (MISSING, 1), (0, 0), (1, 0), (MISSING, 0)]
    data = Dataset(variables, values)
    dag = Dag([[], [0]])
    total, breakdown = score_decomposable(data, dag, BIC)
    expect = 0.0
    for part in breakdown:
        c = count_sufficient_stats(data, part.node, part.parents)
        lam = 0.5 * math.log(c.n_i) / c.n_i
        expect += node_nal_from_counts(c) - lam * part.df
    assert total == pytest.approx(expect, abs=1e-12)


def test_score_global_decreasing_in_coefficient():
    dag = Dag([[], [0]])
    assert df_complexity(dag, BIN2) > 0
    scores = [score_global(FOUR, dag, power_law(c, 0.3)) for c in (0.1, 0.5, 2.0)]
    assert scores[0] > scores[1] > scores[2]


def test_nal_monotone_overfit_on_complete_data():
    """Unpenalized node NAL never decreases when the parent set grows."""
    rng = np.random.default_rng(37)
    for trial in range(20):
        net = random_net(3, rng)
        data = forward_sample(net, 120, seed=4000 + trial)
        for node in range(3):
            others = [p for p in range(3) if p != node]
            small = node_nal(data, node, [])
            for p in others:
                mid = node_nal(data, node, [p])
                assert mid >= small - 1e-12
                assert node_nal(data, node, others) >= mid - 1e-12
