"""Parent-set search, structure learning and complexity profiles vs brute force."""

import math
from itertools import product

import numpy as np
import pytest

from nalearn import (
    AIC,
    BIC,
    NEG_INFINITY,
    NO_PENALTY,
    Dag,
    Dataset,
    SearchSpace,
    Variable,
    best_parent_set,
    complexity_profile,
    forward_sample,
    lambda_value,
    learn_structure,
    power_law,
    select_from_profile,
    two_node_net,
)
from nalearn.errors import AllCandidatesUnobservable
from nalearn.model import is_compatible_with_order, node_df
from nalearn.scoring import node_nal

from util import random_dataset, random_net


def brute_force_learn(data, space, penalty):
    """Argmax of the decomposable score over every order-compatible DAG."""
    best = None
    for combo in product(*(space.candidate_parent_sets(i) for i in range(space.num_nodes))):
        total = []
        total_df = 0
        dead = False
        for node, parents in enumerate(combo):
            value = node_nal(data, node, parents)
            if value == NEG_INFINITY:
                dead = True
                break
            from nalearn import count_sufficient_stats

            n_i = count_sufficient_stats(data, node, parents).n_i
            df = node_df(node, parents, data.variables)
            lam = 0.0 if penalty.kind == "none" else lambda_value(penalty, n_i)
            total.append(value - lam * df)
            total_df += df
        if dead:
            continue
        key = (-math.fsum(total), total_df, combo)
        if best is None or key < best[0]:
            best = (key, Dag(combo))
    if best is None:
        raise AllCandidatesUnobservable("all DAGs unobservable")
    return best[1]


def brute_force_profile(data, space):
    """Best sequentially-accumulated total NAL at each achievable total df."""
    by_t = {}
    for combo in product(*(space.candidate_parent_sets(i) for i in range(space.num_nodes))):
        total = 0.0
        total_df = 0
        dead = False
        for node, parents in enumerate(combo):
            value = node_nal(data, node, parents)
            if value == NEG_INFINITY:
                dead = True
                break
            total = total + value
            total_df += node_df(node, parents, data.variables)
        if dead:
            continue
        cur = by_t.get(total_df)
        if cur is None or total > cur[0] or (total == cur[0] and combo < cur[1]):
            by_t[total_df] = (total, combo)
    points = []
    best = NEG_INFINITY
    for t in sorted(by_t):
        score, combo = by_t[t]
        if score > best:
            points.append((t, score, Dag(combo)))
            best = score
    return points


def test_node_without_predecessors_gets_empty_set():
    data = forward_sample(two_node_net(), 100, seed=1)
    space = SearchSpace([0, 1])
    assert best_parent_set(data, 0, space, AIC).parents == ()


def test_independent_net_large_n_selects_empty():
    data = forward_sample(two_node_net(), 100_000, seed=2)
    space = SearchSpace([0, 1])
    winner = best_parent_set(data, 1, space, power_law(0.5, 0.3))
    assert winner.parents == ()


def test_no_penalty_selects_maximal_candidate():
    rng = np.random.default_rng(61)
    net = random_net(3, rng)
    data = forward_sample(net, 500, seed=3)
    space = SearchSpace([0, 1, 2])
    winner = best_parent_set(data, 2, space, NO_PENALTY)
    assert winner.parents == (0, 1)


def test_all_candidates_unobservable():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    data = Dataset(variables, [(-1, 0), (-1, 1)])
    space = SearchSpace([0, 1])
    with pytest.raises(AllCandidatesUnobservable):
        best_parent_set(data, 0, space, AIC)


def test_learn_structure_empty_dataset():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    data = Dataset(variables, np.empty((0, 2)))
    with pytest.raises(AllCandidatesUnobservable):
        learn_structure(data, SearchSpace([0, 1]), AIC)


def test_learn_recovers_strong_chain():
    variables = [Variable(f"X{i + 1}", 2) for i in range(3)]
    from nalearn import BayesNet, Cpt

    strong = np.array([[0.9, 0.1], [0.1, 0.9]])
    net = BayesNet(
        variables,
        Dag([[], [0], [1]]),
        Cpt([np.array([[0.5, 0.5]]), strong, strong]),
    )
    hits = 0
    for rep in range(20):
        data = forward_sample(net, 10_000, seed=100 + rep)
        learned = learn_structure(data, SearchSpace([0, 1, 2]), power_law(1 / 3, 0.3))
        hits += learned == net.dag
    assert hits >= 19


def test_learned_dag_is_order_compatible():
    rng = np.random.default_rng(67)
    for trial in range(10):
        net = random_net(4, rng)
        data = forward_sample(net, 300, seed=200 + trial)
        order = list(rng.permutation(4))
        learned = learn_structure(data, SearchSpace(order, 2), BIC)
        assert is_compatible_with_order(learned, order)
        learned.topological_order()  # acyclic


def test_candidate_set_enumeration():
    space = SearchSpace([0, 1, 2, 3], max_parents=2)
    sets = space.candidate_parent_sets(3)
    assert sets == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert space.candidate_parent_sets(0) == [()]


def test_profile_two_node_complete():
    data = forward_sample(two_node_net(), 200, seed=5)
    profile = complexity_profile(data, SearchSpace([0, 1]))
    ts = [p.t for p in profile]
    assert ts[0] == 2 and set(ts) <= {2, 3}
    assert profile[0].dag == Dag([[], []])
    if len(profile) == 2:
        assert profile[1].dag == Dag([[], [0]])


def test_profile_scores_strictly_increasing():
    rng = np.random.default_rng(71)
    for trial in range(10):
        net = random_net(4, rng)
        data = forward_sample(net, 250, seed=300 + trial)
        profile = complexity_profile(data, SearchSpace(list(range(4))))
        ts = [p.t for p in profile]
        scores = [p.best_score for p in profile]
        assert ts == sorted(set(ts))
        assert scores == sorted(set(scores))
        for p in profile:
            from nalearn import df_complexity

            assert df_complexity(p.dag, data.variables) == p.t


def test_learn_matches_brute_force():
    rng = np.random.default_rng(73)
    for trial in range(30):
        num = int(rng.integers(2, 5))
        variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(num)]
        data = random_dataset(variables, int(rng.integers(5, 80)), rng, 0.25)
        order = list(rng.permutation(num))
        space = SearchSpace(order, int(rng.integers(1, 4)))
        for penalty in (AIC, BIC, power_law(0.5, 0.3), NO_PENALTY):
            try:
                got = learn_structure(data, space, penalty)
            except AllCandidatesUnobservable:
                with pytest.raises(AllCandidatesUnobservable):
                    brute_force_learn(data, space, penalty)
                continue
            assert got == brute_force_learn(data, space, penalty)


def test_profile_matches_brute_force():
    rng = np.random.default_rng(79)
    for trial in range(30):
        num = int(rng.integers(2, 5))
        variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(num)]
        data = random_dataset(variables, int(rng.integers(5, 80)), rng, 0.2)
        space = SearchSpace(list(rng.permutation(num)), int(rng.integers(1, 4)))
        try:
            got = complexity_profile(data, space)
        except AllCandidatesUnobservable:
            continue
        want = brute_force_profile(data, space)
        assert [(p.t, p.dag) for p in got] == [(t, d) for t, _, d in want]
        for p, (_, score, _) in zip(got, want):
            assert p.best_score == pytest.approx(score, abs=1e-12)


def test_shared_family_scores_match_fresh_ones():
    """Searches over one Dataset share its family scores; a new Dataset starts empty."""
    rng = np.random.default_rng(89)
    for trial in range(10):
        variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(4)]
        data = random_dataset(variables, 60, rng, 0.2)
        space = SearchSpace(list(rng.permutation(4)), 2)
        for penalty in (AIC, BIC, power_law(0.5, 0.3)):
            assert learn_structure(data, space, penalty) == learn_structure(
                Dataset(variables, data.values), space, penalty
            )
        assert complexity_profile(data, space) == complexity_profile(
            Dataset(variables, data.values), space
        )
        assert Dataset(variables, data.values).family_scores == {}
        families = [(i, ps) for i in range(4) for ps in space.candidate_parent_sets(i)]
        assert sorted(data.family_scores) == sorted(families)
        for (node, parents), (value, _, df) in data.family_scores.items():
            assert value == node_nal(data, node, parents)
            assert df == node_df(node, parents, variables)


def test_select_from_profile_matches_global_learning():
    """Profile selection under a global-lambda penalty agrees with direct search
    whenever all nodes are fully observed (lambda at n_i = lambda at n)."""
    rng = np.random.default_rng(83)
    for trial in range(10):
        net = random_net(3, rng)
        data = forward_sample(net, 400, seed=400 + trial)
        space = SearchSpace([0, 1, 2])
        profile = complexity_profile(data, space)
        for penalty in (AIC, BIC, power_law(1 / 3, 0.3)):
            point = select_from_profile(profile, penalty, data.num_records)
            direct = learn_structure(data, space, penalty)
            assert point.dag == direct
