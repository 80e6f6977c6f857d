"""Exact population quantities: joints, induced tables, NAL, identifiability."""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalearn import (
    BayesNet,
    Bernoulli,
    Cpt,
    Dag,
    KPerRecord,
    Variable,
    beta_of_collection,
    check_identifiability,
    count_sufficient_stats,
    forward_sample,
    induced_theta_mcar,
    joint_distribution,
    population_nal,
    population_nal_of,
    two_node_chain_dag,
    two_node_net,
)
import nalearn.population
from nalearn.data import marginal
from nalearn.errors import (ConfigError, CycleDetected, MalformedParents, NodeCountMismatch,
                            StateSpaceTooLarge)
from nalearn.networks import eight_node_net
from nalearn.population import observation_probability
from nalearn.sampling import parse_missingness
from nalearn.scoring import node_nal_from_counts, stacked_nal
from nalearn.search import SearchSpace

import oracles
from oracles import conditional, family_marginal, induced_joint, is_subgraph, joint_cube
from util import all_dags, random_cpt, random_net


def families(*dags):
    """The distinct (node, parents) families of dags."""
    return {(i, ps) for g in dags for i, ps in enumerate(g.parents)}


def entropy(ps):
    return -sum(p * math.log(p) for p in ps if p > 0)


def dependent_two_node():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    cpt = Cpt([np.array([[0.4, 0.6]]), np.array([[0.9, 0.1], [0.2, 0.8]])])
    return BayesNet(variables, Dag([[], [0]]), cpt)


def test_joint_two_independent_nodes():
    np.testing.assert_allclose(
        joint_distribution(two_node_net()), [0.12, 0.28, 0.18, 0.42], atol=1e-15
    )


def test_joint_single_node():
    net = BayesNet([Variable("X", 3)], Dag([[]]), Cpt([np.array([[0.2, 0.3, 0.5]])]))
    np.testing.assert_allclose(joint_distribution(net), [0.2, 0.3, 0.5])


def test_joint_deterministic_chain():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    cpt = Cpt([np.array([[0.4, 0.6]]), np.eye(2)])
    net = BayesNet(variables, Dag([[], [0]]), cpt)
    np.testing.assert_allclose(joint_distribution(net), [0.4, 0.0, 0.0, 0.6])


def test_joint_state_space_cap():
    # 2**25 states exceed the cap; 2**64 and 3**41 also wrap to 0 and below 0 in int64
    for q, num in ((2, 25), (2, 64), (3, 41)):
        variables = [Variable(f"X{i}", q) for i in range(num)]
        net = BayesNet(variables, Dag([[]] * num), Cpt([np.full((1, q), 1 / q)] * num))
        with pytest.raises(StateSpaceTooLarge):
            joint_distribution(net)


def shuffled_net(num_nodes, rng):
    """A random net over q of 2 or 3 whose parents may follow their child in
    index order, with up to three parents each."""
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(num_nodes)]
    order = rng.permutation(num_nodes).tolist()
    parents = [[] for _ in range(num_nodes)]
    for place, node in enumerate(order):
        size = int(rng.integers(0, min(3, place) + 1))
        parents[node] = rng.choice(order[:place], size, replace=False).tolist()
    dag = Dag(parents)
    return BayesNet(variables, dag, random_cpt(dag, variables, rng))


def test_each_joint_cell_is_the_node_order_product_of_its_cpt_entries():
    rng = np.random.default_rng(61)
    for trial in range(150):
        net = shuffled_net(int(rng.integers(1, 7)), rng)
        shape = [v.cardinality for v in net.variables]
        want = np.empty(shape)
        for state in np.ndindex(*shape):
            p = 1.0
            for i, parents in enumerate(net.dag.parents):
                j = 0  # the parents' configuration, the last parent fastest
                for parent in parents:
                    j = j * shape[parent] + state[parent]
                p *= net.cpt.tables[i][j, state[i]]
            want[state] = p
        got = nalearn.population._joint_array(net)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial


def test_joint_sums_to_one_random_nets():
    rng = np.random.default_rng(41)
    for trial in range(20):
        net = random_net(5, rng)
        joint = joint_distribution(net)
        assert abs(joint.sum() - 1.0) < 1e-10
        assert np.all(joint >= 0)


def test_induced_joint_of_true_dag_is_joint():
    rng = np.random.default_rng(43)
    for trial in range(10):
        net = random_net(4, rng)
        np.testing.assert_allclose(
            induced_joint(net.dag, net), joint_distribution(net), atol=1e-12
        )


def test_induced_joint_superset_recovers_truth():
    net = dependent_two_node()
    full = Dag([[], [0]])
    np.testing.assert_allclose(induced_joint(full, net), joint_distribution(net), atol=1e-12)


def test_induced_joint_empty_dag_is_product_of_marginals():
    net = dependent_two_node()
    joint = joint_distribution(net).reshape(2, 2)
    marg1, marg2 = joint.sum(axis=1), joint.sum(axis=0)
    np.testing.assert_allclose(
        induced_joint(Dag([[], []]), net), np.outer(marg1, marg2).ravel(), atol=1e-12
    )
    assert np.abs(np.outer(marg1, marg2).ravel() - joint.ravel()).max() > 0.01


def test_induced_theta_true_dag_matches_cpt():
    net = dependent_two_node()
    tables = induced_theta_mcar(net.dag, joint_cube(net))
    np.testing.assert_allclose(conditional(tables[1]), net.cpt.tables[1].T, atol=1e-12)
    assert observation_probability(0, (), None, 2) == 1.0  # complete data observes every family


def test_induced_theta_independent_net_chain_candidate():
    net = two_node_net()
    tables = induced_theta_mcar(two_node_chain_dag(), joint_cube(net))
    theta = conditional(tables[1])
    np.testing.assert_allclose(theta[:, 0], [0.3, 0.7], atol=1e-12)
    np.testing.assert_allclose(theta[:, 1], [0.3, 0.7], atol=1e-12)


def test_induced_theta_bernoulli_observation_probability():
    missing = Bernoulli((0.75, 1.0))
    assert observation_probability(1, (0,), missing, 2) == pytest.approx(0.75)
    assert observation_probability(0, (), missing, 2) == pytest.approx(0.75)
    assert observation_probability(1, (), missing, 2) == 1.0
    assert beta_of_collection(enumerate(two_node_chain_dag().parents), missing, 2) == \
        pytest.approx(0.75)
    with pytest.raises(TypeError):  # the tables take no missingness: MCAR leaves them unchanged
        induced_theta_mcar(two_node_chain_dag(), joint_cube(two_node_net()), missing)


def test_population_nal_independent_net():
    expect = -(entropy([0.4, 0.6]) + entropy([0.3, 0.7]))
    assert population_nal_of(Dag([[], []]), two_node_net()) == pytest.approx(
        expect, abs=1e-12
    )


def test_population_nal_noninformative_parent_unchanged():
    net = two_node_net()
    empty = population_nal_of(Dag([[], []]), net)
    chain = population_nal_of(two_node_chain_dag(), net)
    assert chain == pytest.approx(empty, abs=1e-12)


def test_population_nal_deterministic_net_is_zero():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    cpt = Cpt([np.array([[1.0, 0.0]]), np.eye(2)])
    net = BayesNet(variables, Dag([[], [0]]), cpt)
    assert population_nal_of(net.dag, net) == pytest.approx(0.0, abs=1e-15)


def kernel_free_nal(marginal):
    """sum_j P(Pa_i = j) sum_k theta_kj ln theta_kj, written out over conditional()."""
    theta, p_j = conditional(marginal), marginal.sum(axis=0)
    return math.fsum(p_j[j] * t * math.log(t) for (_, j), t in np.ndenumerate(theta) if t > 0)


def test_every_eight_node_family_nal_matches_the_conditional_entropy():
    # all 162 families of the eight-node net's order at max_parents 3; the
    # kernel divides by the joint's total, 1 + 2**-52, which the formula does not
    net = eight_node_net()
    joint = joint_cube(net)
    space = SearchSpace(list(range(8)), 3)
    families = [(i, ps) for i in range(8) for ps in space.candidate_parent_sets(i)]
    assert len(families) == 162
    for node, parents in families:
        table = marginal(joint, node, parents, sentinels=False)
        got, want = population_nal([table]), kernel_free_nal(table)
        assert abs(got - want) <= 1e-15, (node, parents)
        assert f"{got:.12g}" == f"{want:.12g}", (node, parents)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(num=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_family_tables_equal_the_oracle_marginal_bit_for_bit(num, seed):
    """Random nets of 1-5 variables of cardinality 2-4; every family of up to 3
    parents. check_identifiability scores each family among its node's others,
    bit for bit as stacked_nal scores the family's marginal alone."""
    net = random_net(num, np.random.default_rng(seed), max_card=4)
    joint = joint_cube(net)
    families = [(node, ps) for node in range(num)
                for others in [[i for i in range(num) if i != node]]
                for m in range(min(3, len(others)) + 1) for ps in combinations(others, m)]
    alone = {}
    for node, parents in families:
        got = marginal(joint, node, parents, sentinels=False)
        want = family_marginal(joint, node, parents)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                          want.tobytes()), (node, parents)
        alone[node, parents] = stacked_nal(got, [got.shape[1]])[0][0]
    scored = []
    real = nalearn.population._family_nals

    def spy(*args):
        scored.append(real(*args))
        return scored[-1]

    with mock.patch.object(nalearn.population, "_family_nals", spy):
        report = check_identifiability(
            net, [[ps if i == node else () for i in range(num)] for node, ps in families])
    assert sorted(report.families) == sorted(alone)
    assert scored[0].tobytes() == np.array([alone[f] for f in report.families]).tobytes()


def test_law_of_large_numbers():
    rng = np.random.default_rng(47)
    net = random_net(4, rng)
    data = forward_sample(net, 100_000, seed=501)
    tables = induced_theta_mcar(net.dag, joint_cube(net))
    for node in range(4):
        c = count_sufficient_stats(data, node, net.dag.parents[node])
        assert abs(node_nal_from_counts(c) - population_nal([tables[node]])) < 0.01


def test_identifiability_two_node_independent():
    net = two_node_net()
    report = check_identifiability(net, [Dag([[], []]).parents, two_node_chain_dag().parents])
    assert report.identifiable
    assert report.minimal_maximizers == (Dag([[], []]),)
    assert report.is_maximizer.all()


def test_identifiability_order_compatible_three_node():
    rng = np.random.default_rng(53)
    order_compatible = [
        g for g in all_dags(3) if all(p < i for i, ps in enumerate(g.parents) for p in ps)
    ]
    for trial in range(10):
        net = random_net(3, rng)
        report = check_identifiability(net, [g.parents for g in order_compatible])
        assert net.dag in report.minimal_maximizers
        for g in report.minimal_maximizers:
            assert population_nal_of(g, net) == pytest.approx(report.true_nal, abs=1e-9)


def test_identifiability_candidate_set_missing_truth():
    net = dependent_two_node()
    report = check_identifiability(net, [Dag([[], []]).parents])
    assert not report.identifiable
    assert report.nal[0] < report.true_nal - 1e-6


def test_beta_complete_is_one():
    assert beta_of_collection(enumerate(Dag([[], []]).parents), None, 2) == 1.0


def test_beta_bernoulli():
    beta = beta_of_collection(
        families(Dag([[], []]), two_node_chain_dag()), Bernoulli((0.75, 1.0)), 2
    )
    assert beta == pytest.approx(0.75)


def test_beta_kper_matches_paper():
    # any candidate with a (node + 2 parents) block gives the s = 3 value
    candidate = Dag([[0, 1] if i == 2 else [] for i in range(37)])
    beta = beta_of_collection(enumerate(candidate.parents), KPerRecord(2), 37)
    assert abs(beta - 0.8423) < 5e-4


def test_superset_population_nal_never_below_truth():
    rng = np.random.default_rng(59)
    for trial in range(10):
        net = random_net(3, rng)
        l0 = population_nal_of(net.dag, net)
        for g in all_dags(3):
            v = population_nal_of(g, net)
            assert v <= l0 + 1e-9
            if is_subgraph(net.dag, g):
                assert v == pytest.approx(l0, abs=1e-9)


def one_toggle_neighbourhood(dag):
    """dag and every order-compatible DAG one edge toggle away from it."""
    out = [dag]
    for i in range(dag.num_nodes):
        for p in range(i):
            parents = [set(ps) for ps in dag.parents]
            parents[i] ^= {p}
            out.append(Dag(parents))
    return out


def test_identifiability_nal_equals_population_nal_of():
    rng = np.random.default_rng(61)
    nets = [(random_net(3, rng), all_dags(3)) for _ in range(5)]
    net8 = eight_node_net()
    nets.append((net8, one_toggle_neighbourhood(net8.dag)))
    for net, candidates in nets:
        report = check_identifiability(net, [g.parents for g in candidates])
        assert report.true_nal == population_nal_of(net.dag, net)
        assert len(report.nal) == len(candidates)
        for k, g in enumerate(candidates):
            assert report.nal[k] == population_nal_of(g, net)
            assert report.is_superset_of_true[k] == is_subgraph(net.dag, g)


def pairwise_minimal_maximizers(candidates, report):
    """The pairwise is_subgraph scan over the maximizers (the reference)."""
    maximizers = [g for g, f in zip(candidates, report.is_maximizer) if f]
    return tuple(
        g for g in maximizers if not any(h != g and is_subgraph(h, g) for h in maximizers)
    )


@pytest.mark.parametrize("tol", [1e-9, 1e9])  # 1e9: every candidate is a maximizer
def test_minimal_maximizers_match_pairwise_scan(tol):
    rng = np.random.default_rng(67)
    dags = all_dags(3)
    for trial in range(5):
        net = random_net(3, rng)
        candidates = dags + [dags[i] for i in rng.choice(len(dags), size=6)]  # duplicates
        candidates = [candidates[i] for i in rng.permutation(len(candidates))]
        report = check_identifiability(net, [g.parents for g in candidates], tol=tol)
        minimal = pairwise_minimal_maximizers(candidates, report)
        assert report.minimal_maximizers == minimal
        assert report.is_minimal_maximizer.tolist() == [g in minimal for g in candidates]
    report = check_identifiability(two_node_net(), [Dag([[], []]).parents] * 2, tol=tol)
    assert report.minimal_maximizers == (Dag([[], []]),) * 2
    assert report.identifiable  # the repeated true DAG is one minimal maximizer


def test_identifiability_with_the_true_dag_repeated():
    net = eight_node_net()
    superset = Dag(ps + (0,) if i == 3 else ps for i, ps in enumerate(net.dag.parents))
    candidates = [net.dag, superset, net.dag, Dag([[]] * 8)]
    report = check_identifiability(net, [g.parents for g in candidates])
    assert report.is_maximizer.tolist() == [True, True, True, False]
    assert report.minimal_maximizers == (net.dag, net.dag)
    assert report.identifiable
    # a repeated DAG that is not the truth still leaves the net unidentified
    chain = two_node_chain_dag()
    assert not check_identifiability(two_node_net(), [chain.parents] * 2).identifiable


def test_identifiability_empty_candidate_list():
    net = dependent_two_node()
    report = check_identifiability(net, [])
    assert len(report.nal) == len(report.df) == len(report.is_maximizer) == 0
    assert report.minimal_maximizers == ()
    assert not report.identifiable
    assert report.true_nal == population_nal_of(net.dag, net)


def test_identifiability_rejects_a_candidate_of_another_size():
    for candidate in (Dag([[]]), Dag([[], [0], [1]])):
        with pytest.raises(NodeCountMismatch):
            check_identifiability(dependent_two_node(), [[[], []], candidate.parents])


@pytest.mark.parametrize("parents, error", [
    ([[], [0, 0]], MalformedParents),
    ([[], [5]], MalformedParents),
    ([[1], [0]], CycleDetected),
])
def test_identifiability_validates_every_candidate(parents, error):
    with pytest.raises(error):
        check_identifiability(dependent_two_node(), [[[], []], parents])


def test_identifiability_builds_the_joint_once(monkeypatch):
    import nalearn.population

    calls = []
    original = nalearn.population._joint_array

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nalearn.population, "_joint_array", counted)
    check_identifiability(dependent_two_node(), [g.parents for g in all_dags(2) * 3])
    assert len(calls) == 1
    population_nal_of(Dag([[], []]), dependent_two_node())  # no tables: one per call
    assert len(calls) == 2


def beta_or_refusal(beta, *args):
    """beta's value, or "refused" where a family is never observed."""
    try:
        return beta(*args)
    except ConfigError:
        return "refused"


def test_beta_visits_each_family_once(monkeypatch):
    original = nalearn.population.observation_probability
    dags = all_dags(3) * 2
    report = check_identifiability(random_net(3, np.random.default_rng(71)),
                                   [g.parents for g in dags])
    for missing in (None, Bernoulli((0.5, 0.3, 0.9)), KPerRecord(1), Bernoulli((0.5, 0.0, 0.9)),
                    Bernoulli((0.0,) * 3)):
        # per candidate, per node
        expect = beta_or_refusal(oracles.beta_of_collection, dags, missing, 3)
        calls = []
        monkeypatch.setattr(nalearn.population, "observation_probability",
                            lambda *args: calls.append(args) or original(*args))
        assert beta_or_refusal(beta_of_collection, report.families, missing, 3) == expect
        assert len(calls) == len(set(calls))
        if expect != "refused":  # the refusal stops at the first unobservable family
            assert len(calls) == 3 * 4  # 3 nodes x 4 parent sets each


def random_candidates(net, size, rng):
    """size DAGs as parent lists in shuffled order: repeats, the truth, supersets
    of it and DAGs compatible with a random node order."""
    num = net.num_nodes
    candidates = []
    for _ in range(size):
        kind = int(rng.integers(4))
        if kind == 0 and candidates:
            candidates.append(candidates[int(rng.integers(len(candidates)))])
            continue
        rank = rng.permutation(num) if kind == 1 else np.arange(num)
        parents = [{p for p in range(num) if rank[p] < rank[i] and rng.random() < 0.3}
                   for i in range(num)]
        if kind >= 2:  # the truth, or a superset of it
            parents = [set(ps) | s if kind == 2 else set(ps)
                       for ps, s in zip(net.dag.parents, parents)]
        candidates.append([rng.permutation(sorted(ps)).tolist() for ps in parents])
    return candidates


@settings(max_examples=150, deadline=None, derandomize=True)
@given(num=st.integers(1, 5), size=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-9, 0.0]))
def test_the_array_report_equals_the_per_candidate_oracle(num, size, seed, tol):
    rng = np.random.default_rng(seed)
    net = random_net(num, rng, max_card=3)
    candidates = random_candidates(net, size, rng)
    report = check_identifiability(net, candidates, tol=tol)
    dags = [Dag(c) for c in candidates]
    want = oracles.check_identifiability(net, dags, tol=tol)
    assert report.true_nal == want.true_nal
    assert report.nal.tobytes() == np.array([c.nal for c in want.candidates]).tobytes()
    assert report.df.tolist() == [c.df for c in want.candidates]
    for flag in ("is_superset_of_true", "is_maximizer", "is_minimal_maximizer"):
        assert getattr(report, flag).tolist() == [getattr(c, flag) for c in want.candidates]
    assert report.minimal_maximizers == want.minimal_maximizers
    assert report.identifiable == want.identifiable
    probs = ",".join(str(p) for p in rng.choice([0.0, 0.3, 0.75, 1.0], size=num))
    for spec in ("none", f"bernoulli:{probs}", f"kper:{int(rng.integers(num))}"):
        missing = parse_missingness(spec, num)
        assert beta_or_refusal(beta_of_collection, report.families, missing, num) == \
            beta_or_refusal(oracles.beta_of_collection, dags, missing, num), spec
