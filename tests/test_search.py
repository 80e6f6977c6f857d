"""Parent-set search, structure learning and complexity profiles vs brute force."""

import gc
import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nalearn.data

from nalearn import (
    AIC,
    BIC,
    NEG_INFINITY,
    Dag,
    Dataset,
    Penalty,
    SearchSpace,
    Variable,
    best_parent_set,
    complexity_profile,
    count_sufficient_stats,
    forward_sample,
    lambda_value,
    learn_structure,
    power_law,
    select_from_profile,
    two_node_net,
)
from nalearn.errors import AllCandidatesUnobservable, SchemaMismatch
from nalearn.model import df_complexity, node_df
from nalearn.scoring import node_nal, node_nal_from_counts, score_node

from oracles import candidate_listing, is_compatible_with_order
from util import on_records, random_dataset, random_net


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
    winner = best_parent_set(data, 2, space, Penalty("none"))
    assert winner.parents == (0, 1)


def test_all_candidates_unobservable():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    data = Dataset(variables, [(-1, 0), (-1, 1)])
    space = SearchSpace([0, 1])
    with pytest.raises(AllCandidatesUnobservable):
        best_parent_set(data, 0, space, AIC)


@pytest.mark.parametrize("order", [[0], [0, 1, 2]], ids=["fewer nodes", "more nodes"])
def test_a_space_over_another_node_count_is_refused(order):
    data = forward_sample(two_node_net(), 20, seed=1)
    for search in (lambda space: learn_structure(data, space, AIC),
                   lambda space: best_parent_set(data, 0, space, AIC),
                   lambda space: complexity_profile(data, space)):
        with pytest.raises(SchemaMismatch, match="disagree on node count"):
            search(SearchSpace(order))
    assert data.family_scores == {}  # refused before any table was built


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
    assert list(sets) == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert list(space.candidate_parent_sets(0)) == [()]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.permutations(range(9)), st.integers(0, 8), st.data())
def test_lazy_candidate_sets_equal_the_combinations_listing(order, position, draw):
    # the node's predecessors are whatever the order puts before it: not
    # contiguous, and sorted only by the listing
    space_order = list(order)
    node = space_order[position]
    max_parents = draw.draw(st.integers(0, position + 1))
    sets = SearchSpace(space_order, max_parents).candidate_parent_sets(node)
    listing = candidate_listing(space_order[:position], max_parents)
    assert len(sets) == len(listing)
    assert [sets[k] for k in range(len(sets))] == listing
    assert [sets[k] for k in range(-len(sets), 0)] == listing
    for k in (len(sets), -len(sets) - 1):
        with pytest.raises(IndexError):
            sets[k]
    start, stop = draw.draw(st.integers(-len(sets) - 2, len(sets) + 2)), draw.draw(
        st.integers(-len(sets) - 2, len(sets) + 2))
    step = draw.draw(st.sampled_from([1, 2, 3, -1, -2]))
    assert sets[start:stop:step] == listing[start:stop:step]
    assert sets[:] == listing
    assert list(sets) == listing and list(iter(sets)) == listing


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
        for penalty in (AIC, BIC, power_law(0.5, 0.3), Penalty("none")):
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
    """Searches over one Dataset share one table per node; a new Dataset starts empty."""
    rng = np.random.default_rng(89)
    for trial in range(10):
        variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(4)]
        data = random_dataset(variables, 60, rng, 0.2)
        space = SearchSpace(list(rng.permutation(4)), 2)
        for penalty in (AIC, BIC, power_law(0.5, 0.3)):
            assert learn_structure(data, space, penalty) == learn_structure(
                Dataset(variables, data.values), space, penalty
            )
        tables = dict(data.family_scores)
        assert complexity_profile(data, space) == complexity_profile(
            Dataset(variables, data.values), space
        )
        assert Dataset(variables, data.values).family_scores == {}
        keys = [(i, tuple(sorted(space.predecessors(i))), 2) for i in range(4)]
        assert sorted(data.family_scores) == sorted(keys)
        for key in keys:  # the profile read the tables the learning filled
            assert data.family_scores[key] is tables[key]
        for (node, _, _), (nal, n_i, df) in data.family_scores.items():
            candidates = space.candidate_parent_sets(node)
            assert len(nal) == len(n_i) == len(df) == len(candidates)
            for parents, value, size, d in zip(candidates, nal, n_i, df):
                assert value == node_nal(data, node, parents)
                assert size == count_sufficient_stats(data, node, parents).n_i
                assert d == node_df(node, parents, variables)


def test_spaces_with_other_bounds_match_fresh_datasets():
    rng = np.random.default_rng(97)
    for trial in range(5):
        variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(5)]
        data = random_dataset(variables, 80, rng, 0.2)
        order = list(rng.permutation(5))
        for max_parents in (1, 3, 1):
            space = SearchSpace(order, max_parents)
            fresh = Dataset(variables, data.values)
            for penalty in (AIC, BIC, power_law(0.5, 0.3), Penalty("none")):
                assert learn_structure(data, space, penalty) == learn_structure(
                    fresh, space, penalty
                )
            assert complexity_profile(data, space) == complexity_profile(fresh, space)
        assert len(data.family_scores) == 2 * 5


def brute_force_best(data, node, space, penalty):
    """Minimum of (-penalized, df, parents) over the node's candidates, scored one by one."""
    scores = [score_node(data, node, ps, penalty) for ps in space.candidate_parent_sets(node)]
    return min(scores, key=lambda s: (-s.penalized, s.df, s.parents))


def _tied_dataset(rng, n, missing_frac):
    """X1 = 2 X0 + X2 codes the pair (X0, X2), so the families {1} and {0, 2} of X3
    tie in NAL and df; X4 copies X0 cell for cell, missing cells included."""
    variables = [Variable("X0", 2), Variable("X1", 4), Variable("X2", 2), Variable("X3", 2),
                 Variable("X4", 2)]
    x0, x2 = rng.integers(0, 2, n), rng.integers(0, 2, n)
    x3 = np.where(rng.random(n) < 0.9, x0 ^ x2, 1 - (x0 ^ x2))
    values = np.stack([x0, 2 * x0 + x2, x2, x3, x0], axis=1)
    if missing_frac:
        values[rng.random(values.shape) < missing_frac] = -1
        values[:, 4] = values[:, 0]
    return Dataset(variables, values)


@pytest.mark.parametrize("missing_frac", [0.0, 0.1])
def test_ties_break_like_brute_force(missing_frac):
    rng = np.random.default_rng(101)
    for trial in range(5):
        data = _tied_dataset(rng, 400, missing_frac)
        space = SearchSpace([0, 1, 2, 4, 3], 3)
        for penalty in (AIC, BIC, power_law(0.2, 0.3), Penalty("none")):
            for node in range(5):
                assert best_parent_set(data, node, space, penalty) == brute_force_best(
                    data, node, space, penalty
                )
        want = brute_force_profile(data, space)
        assert [(p.t, p.dag) for p in complexity_profile(data, space)] == [
            (t, dag) for t, _, dag in want
        ]
    if not missing_frac:
        # (1,) comes first in candidate order; (0, 2) is lexicographically smaller
        assert best_parent_set(data, 3, space, Penalty("none")).parents == (0, 2)
        # the copy X4 of X0 ties with it; the smaller tuple wins
        assert best_parent_set(data, 4, space, Penalty("none")).parents == (0,)


def test_unobservable_candidates_keep_minus_infinity():
    # X1 and X2 are never observed together, so every family holding both has n_i = 0
    rng = np.random.default_rng(103)
    variables = [Variable(f"X{i}", 2) for i in range(4)]
    values = rng.integers(0, 2, size=(60, 4))
    values[:30, 1] = -1
    values[30:, 2] = -1
    data = Dataset(variables, values)
    space = SearchSpace([0, 1, 2, 3], 3)
    for penalty in (AIC, BIC, power_law(0.5, 0.3), Penalty("none")):
        for node in range(4):
            assert best_parent_set(data, node, space, penalty) == brute_force_best(
                data, node, space, penalty
            )
        learn_structure(data, space, penalty)
    complexity_profile(data, space)
    nal, n_i, _ = data.family_scores[3, (0, 1, 2), 3]
    assert 0 in n_i and np.all((nal == NEG_INFINITY) == (n_i == 0))


def test_unobservable_node_raises_from_learn_and_profile():
    rng = np.random.default_rng(107)
    variables = [Variable(f"X{i}", 2) for i in range(3)]
    values = rng.integers(0, 2, size=(40, 3))
    values[:, 1] = -1
    data = Dataset(variables, values)
    space = SearchSpace([0, 1, 2], 2)
    for penalty in (AIC, BIC, power_law(0.5, 0.3), Penalty("none")):
        with pytest.raises(AllCandidatesUnobservable, match="node 1"):
            learn_structure(data, space, penalty)
    with pytest.raises(AllCandidatesUnobservable, match="node 1"):
        complexity_profile(data, space)


def test_family_scores_keep_a_few_bytes_per_family():
    rng = np.random.default_rng(109)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(20)]
    data = random_dataset(variables, 200, rng, 0.1)
    space = SearchSpace(list(rng.permutation(20)), 3)
    families = sum(len(space.candidate_parent_sets(i)) for i in range(20))
    tracemalloc.start()
    try:
        learn_structure(data, space, BIC)
        gc.collect()  # also empties the free lists that keep freed tuples and floats
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 64 * families, f"{held / families:.0f} B per family"


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


@st.composite
def batch_cases(draw):
    """A dataset over 2-6 variables of cardinality 2-6, with MCAR cells, maybe
    an all-missing column, and a search space over a random order."""
    num = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(2, 6), min_size=num, max_size=num))
    n = draw(st.sampled_from([1, 2, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.stack([rng.integers(0, q, size=n) for q in cards], axis=1)
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3]))] = -1
    dead = draw(st.none() | st.integers(0, num - 1))
    if dead is not None:
        values[:, dead] = -1
    variables = [Variable(f"X{i}", q) for i, q in enumerate(cards)]
    space = SearchSpace(draw(st.permutations(range(num))), draw(st.integers(0, 3)))
    return Dataset(variables, values), space, draw(st.sampled_from([None, 1, 3]))


def _wide_case():
    """A node of cardinality 4 after 24 binary predecessors, with missing
    cells: a level-1 code times its digit's span reaches 4 * 72 = 288, past
    the range of the uint8 codes."""
    rng = np.random.default_rng(113)
    cards = [2] * 24 + [4]
    values = np.stack([rng.integers(0, q, size=60) for q in cards], axis=1)
    values[rng.random(values.shape) < 0.3] = -1
    variables = [Variable(f"X{i}", q) for i, q in enumerate(cards)]
    return Dataset(variables, values), SearchSpace(list(range(25)), 2), None


@settings(max_examples=150, deadline=None)
@given(batch_cases())
@example(_wide_case())
def test_batched_family_scores_equal_per_call_scores(case):
    data, space, chunk = case
    candidates = {i: space.candidate_parent_sets(i) for i in range(space.num_nodes)}
    budget = nalearn.data.CHUNK_BUDGET
    if chunk is not None:  # 1: each set on its own; 3: a group in slices of 3 sets
        cubes = [math.prod(data.radix[[i, *ps]].tolist())
                 for i, sets in candidates.items() for ps in sets[1:]]
        budget = chunk * max(data.num_records, min(cubes, default=1))
    sizes = []  # sets per bincount
    real = nalearn.data._available_counts

    def recording(rows, index, size):
        sizes.append(len(rows) if rows.ndim == 2 else 1)
        return real(rows, index, size)

    with mock.patch.object(nalearn.data, "CHUNK_BUDGET", budget), \
            mock.patch.object(nalearn.data, "_available_counts", recording), on_records():
        for node in range(space.num_nodes):
            try:
                best_parent_set(data, node, space, BIC)
            except AllCandidatesUnobservable:
                pass  # the node's table is filled before the search gives up
    assert sizes
    if chunk is not None:
        assert max(sizes) <= chunk
    for node, sets in candidates.items():
        nal, n_i, df = data.family_scores[node, tuple(sorted(space.predecessors(node))),
                                          space.max_parents]
        assert len(nal) == len(n_i) == len(df) == len(sets)
        for k, parents in enumerate(sets):
            counts = count_sufficient_stats(data, node, parents)
            assert nal[k] == node_nal_from_counts(counts)  # -inf == -inf when n_i = 0
            assert n_i[k] == counts.n_i
            assert df[k] == node_df(node, parents, data.variables)


def test_profile_ties_compare_node_0_first():
    """X1 and X2 copy X0. At t = 4, ((), (), (0,)) and ((), (0,), ()) both total
    -2 H(X0) exactly; the first node where they differ, node 1, picks the first."""
    x0 = np.random.default_rng(113).integers(0, 2, 50)
    data = Dataset([Variable(f"X{i}", 2) for i in range(3)], np.stack([x0, x0, x0], axis=1))
    space = SearchSpace([0, 1, 2], 1)
    profile = complexity_profile(data, space)
    want = brute_force_profile(data, space)
    assert [(p.t, p.dag) for p in profile] == [(t, d) for t, _, d in want]
    assert [p.dag for p in profile if p.t == 4] == [Dag([(), (), (0,)])]


def test_profile_breaks_ties_node_by_node():
    """At t = 8, node 0 with parent X3 and node 1 with parent X0 reach totals
    that differ after node 1 by one rounding error (-1.0114042647073516
    against ...518), which the last two adds absorb. The DP keeps the prefix
    that led at node 1, so the point attains brute force's best total but is
    not its lexicographically smallest maximizer."""
    values = [[1, 2, 1, 0], [1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]]
    data = Dataset([Variable(f"X{i}", q) for i, q in enumerate([2, 3, 2, 3])], np.array(values))
    space = SearchSpace((2, 3, 0, 1), 1)
    [point] = [p for p in complexity_profile(data, space) if p.t == 8]
    [(_, best, smallest)] = [want for want in brute_force_profile(data, space) if want[0] == 8]
    assert point.best_score == best == -2.2844326012969773
    assert point.dag == Dag([(3,), (), (), ()]) and smallest == Dag([(), (0,), (), ()])


def test_profile_points_share_their_parent_tuples():
    rng = np.random.default_rng(127)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(6)]
    data = random_dataset(variables, 300, rng, 0.1)
    profile = complexity_profile(data, SearchSpace(range(6), 2))
    assert len(profile) > 2
    for p in profile:
        assert p.dag == Dag(p.dag.parents)  # canonical: sorted Python ints
    for node in range(6):  # one tuple object per distinct parent set
        tuples = [p.dag.parents[node] for p in profile]
        assert len({id(ps) for ps in tuples}) == len(set(tuples))


@st.composite
def profile_cases(draw):
    """One to four variables, each drawn freely, constant, or a copy of an
    earlier one (missing cells too), so that totals tie exactly; a random
    order and max_parents 0-3."""
    num = draw(st.integers(1, 4))
    n = draw(st.sampled_from([6, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    missing = draw(st.sampled_from([0.0, 0.2]))
    cards, columns = [], []
    for i in range(num):
        kind = draw(st.sampled_from(["free", "constant", "copy"] if i else ["free", "constant"]))
        if kind == "copy":
            j = draw(st.integers(0, i - 1))
            cards.append(cards[j])
            columns.append(columns[j])
            continue
        cards.append(draw(st.integers(2, 3)))
        column = rng.integers(0, cards[-1], n) if kind == "free" else np.zeros(n, dtype=int)
        column[rng.random(n) < missing] = -1
        columns.append(column)
    data = Dataset([Variable(f"X{i}", q) for i, q in enumerate(cards)], np.stack(columns, 1))
    return data, SearchSpace(draw(st.permutations(range(num))), draw(st.integers(0, 3)))


def looped_profile(data, space):
    """The profile DP as plain loops over dicts: per node, every state plus
    every frontier entry, keeping at each total df the best total NAL (added
    in node order) and, among equal totals, the smaller parent tuples, node 0
    first. Frontiers are built from per-call scores."""
    states = {0: (0.0, ())}
    for node in range(space.num_nodes):
        best_at = {}  # df -> (NAL, parents), the best NAL and then the smallest parents
        for parents in space.candidate_parent_sets(node):
            value = node_nal(data, node, parents)
            df = node_df(node, parents, data.variables)
            if value != NEG_INFINITY and (df not in best_at or (-value, parents) < (
                    -best_at[df][0], best_at[df][1])):
                best_at[df] = (value, parents)
        frontier, top = [], NEG_INFINITY
        for df in sorted(best_at):
            if best_at[df][0] > top:
                frontier.append((df, *best_at[df]))
                top = best_at[df][0]
        merged = {}
        for t, (score, chosen) in states.items():
            for df, value, parents in frontier:
                total, path = score + value, chosen + (parents,)
                cur = merged.get(t + df)
                if cur is None or total > cur[0] or (total == cur[0] and path < cur[1]):
                    merged[t + df] = (total, path)
        states = merged
    points, top = [], NEG_INFINITY
    for t in sorted(states):
        if states[t][0] > top:
            points.append((t, states[t][0], Dag(states[t][1])))
            top = states[t][0]
    return points


@settings(max_examples=120, deadline=None)
@given(profile_cases())
def test_profile_equals_brute_force_with_exact_ties(case):
    """Every t and best NAL as brute force finds them, each DAG attaining its
    point, and the DAGs the loop DP picks. Brute force breaks ties on the
    final totals; the DP breaks them node by node, so where two prefixes
    differ by a rounding error that a later add absorbs, their DAGs differ."""
    data, space = case
    want = brute_force_profile(data, space)
    if not want:  # some node has no observable candidate
        with pytest.raises(AllCandidatesUnobservable):
            complexity_profile(data, space)
        return
    got = complexity_profile(data, space)
    assert [(p.t, p.best_score) for p in got] == [(t, score) for t, score, _ in want]
    for p in got:
        total = 0.0
        for node, parents in enumerate(p.dag.parents):
            total = total + node_nal(data, node, parents)
        assert (total, df_complexity(p.dag, data.variables)) == (p.best_score, p.t)
    assert [(p.t, p.best_score, p.dag) for p in got] == looped_profile(data, space)


def test_profile_peak_memory_stays_below_the_dict_dp():
    """The dict-of-cons-lists DP peaked at 672,128 traced bytes here (571 points)."""
    rng = np.random.default_rng(109)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(20)]
    data = random_dataset(variables, 200, rng, 0.1)
    space = SearchSpace(list(rng.permutation(20)), 3)
    learn_structure(data, space, BIC)  # the node tables are not part of the profile's peak
    gc.collect()
    tracemalloc.start()
    try:
        profile = complexity_profile(data, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profile) == 571
    assert peak <= 672_128, f"{peak} B"
