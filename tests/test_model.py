"""Core domain types: DAG validation, complexity, subgraph order, file formats."""

import json
from itertools import permutations

import numpy as np
import pytest

from nalearn import (
    BayesNet,
    Cpt,
    Dag,
    Dataset,
    Variable,
    benchmark_structure_37,
    count_sufficient_stats,
    df_complexity,
    load_net,
    load_structure,
    two_node_net,
    validate_dag,
)
from nalearn.errors import ConfigError, CycleDetected, MalformedParents, NodeCountMismatch
from nalearn.model import json_int, node_df, parent_config_count

from oracles import is_compatible_with_order, is_subgraph
from util import all_dags, random_net, save_net

BIN2 = [Variable("X1", 2), Variable("X2", 2)]


def test_validate_chain_ok():
    validate_dag(Dag([[], [0]]))


def test_validate_two_cycle():
    with pytest.raises(CycleDetected):
        validate_dag(Dag([[1], [0]]))


def test_validate_self_loop():
    with pytest.raises(MalformedParents):
        validate_dag(Dag([[0]]))


def test_df_empty_two_binary():
    assert df_complexity(Dag([[], []]), BIN2) == 2


def test_df_chain_two_binary():
    assert df_complexity(Dag([[], [0]]), BIN2) == 3


def test_df_benchmark_structure_is_473():
    variables, dag = benchmark_structure_37()
    assert dag.num_nodes == 37
    assert dag.num_edges() == 45
    assert max(len(p) for p in dag.parents) <= 3
    assert df_complexity(dag, variables) == 473


def test_subgraph_basics():
    empty = Dag([[], []])
    chain = Dag([[], [0]])
    assert is_subgraph(empty, chain)
    assert not is_subgraph(chain, empty)
    assert is_subgraph(chain, chain)


def test_subgraph_node_count_mismatch():
    with pytest.raises(NodeCountMismatch):
        is_subgraph(Dag([[]]), Dag([[], []]))


def test_subgraph_partial_order_on_three_nodes():
    dags = all_dags(3)
    assert len(dags) == 25
    for g in dags:
        assert is_subgraph(g, g)  # reflexive
    for g1 in dags:
        for g2 in dags:
            if is_subgraph(g1, g2) and is_subgraph(g2, g1):
                assert g1 == g2  # antisymmetric (canonical forms)
            for g3 in dags:
                if is_subgraph(g1, g2) and is_subgraph(g2, g3):
                    assert is_subgraph(g1, g3)  # transitive


def test_df_strictly_increasing_under_edge_addition():
    rng = np.random.default_rng(5)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(3)]
    for g1 in all_dags(3):
        for g2 in all_dags(3):
            if is_subgraph(g1, g2) and g1 != g2:
                assert df_complexity(g1, variables) < df_complexity(g2, variables)


def test_df_empty_dag_formula():
    rng = np.random.default_rng(2)
    variables = [Variable(f"X{i}", int(rng.integers(2, 5))) for i in range(5)]
    empty = Dag([[]] * 5)
    assert df_complexity(empty, variables) == sum(v.cardinality - 1 for v in variables)


def test_topological_order_lowest_index_first():
    dag = Dag([[], [], [0, 1]])
    assert dag.topological_order() == [0, 1, 2]
    dag2 = Dag([[2], [], []])
    assert dag2.topological_order() == [1, 2, 0]


def test_topological_order_is_the_smallest_topological_permutation():
    for n in (3, 4):
        for dag in all_dags(n):
            orders = [o for o in permutations(range(n)) if is_compatible_with_order(dag, o)]
            assert dag.topological_order() == list(min(orders))


def test_order_compatibility():
    chain = Dag([[], [0]])
    assert is_compatible_with_order(chain, [0, 1])
    assert not is_compatible_with_order(chain, [1, 0])


def test_parent_config_count_and_node_df():
    variables = [Variable("A", 2), Variable("B", 3), Variable("C", 4)]
    assert parent_config_count((), variables) == 1
    assert parent_config_count((0, 1), variables) == 6
    assert node_df(2, (0, 1), variables) == 6 * 3


def test_cardinality_lower_bound():
    with pytest.raises(ValueError):
        Variable("X", 1)


def test_cpt_row_sum_enforced():
    variables = [Variable("X1", 2)]
    with pytest.raises(ValueError):
        BayesNet(variables, Dag([[]]), Cpt([np.array([[0.5, 0.6]])]))


def test_net_round_trip(tmp_path):
    net = two_node_net()
    path = tmp_path / "net.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.dag == net.dag
    assert [v.name for v in loaded.variables] == [v.name for v in net.variables]
    for a, b in zip(loaded.cpt.tables, net.cpt.tables):
        np.testing.assert_array_equal(a, b)


def test_net_loader_names_bad_node(tmp_path):
    net = two_node_net()
    path = tmp_path / "net.json"
    save_net(net, path)
    obj = json.loads(path.read_text())
    obj["cpt"][1] = [[0.3, 0.3, 0.4]]  # wrong width for a binary node
    path.write_text(json.dumps(obj))
    with pytest.raises(Exception) as err:
        load_net(path)
    assert "X2" in str(err.value)


@pytest.mark.parametrize("loader", [load_net, load_structure])
def test_loaders_name_the_file_and_the_missing_key(tmp_path, loader):
    path = tmp_path / "net.json"
    save_net(two_node_net(), path)
    obj = json.loads(path.read_text())
    del obj["parents"]
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=r"net\.json: missing key 'parents'"):
        loader(path)
    path.write_text('{"variables": [')
    with pytest.raises(ConfigError, match=r"net\.json: "):
        loader(path)


def test_json_int_accepts_only_integral_numbers():
    assert [json_int(v) for v in (3, 3.0, -1.0, 0)] == [3, 3, -1, 0]
    assert all(type(json_int(v)) is int for v in (3, 3.0))
    for value in (2.9, 0.7, True, False, "2", None, [2], float("inf"), float("nan")):
        with pytest.raises(ValueError):
            json_int(value)


def test_loader_accepts_integral_floats(tmp_path):
    path = tmp_path / "net.json"
    save_net(two_node_net(), path)
    obj = json.loads(path.read_text())
    obj["variables"][0]["cardinality"] = 2.0
    obj["parents"] = [[], [0.0]]
    obj["cpt"][1] = [[0.3, 0.7], [0.3, 0.7]]
    path.write_text(json.dumps(obj))
    net = load_net(path)
    assert net.dag == Dag([[], [0]]) and net.variables[0].cardinality == 2
    assert type(net.variables[0].cardinality) is int


def test_random_net_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    net = random_net(5, rng)
    path = tmp_path / "net.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.dag == net.dag
    for a, b in zip(loaded.cpt.tables, net.cpt.tables):
        np.testing.assert_allclose(a, b, atol=0)


def test_types_that_hold_arrays_compare_by_identity():
    """Two equal-valued Datasets, SufficientCounts, Cpts or BayesNets are two
    objects: == and `in` answer by identity instead of raising on the
    arrays' truth value, and each hashes."""
    net = two_node_net()
    data = Dataset(net.variables, [[0, 1], [1, -1]])
    twins = [
        (data, Dataset(net.variables, [[0, 1], [1, -1]])),
        (count_sufficient_stats(data, 1, (0,)), count_sufficient_stats(data, 1, (0,))),
        (net.cpt, Cpt(net.cpt.tables)),
        (net, BayesNet(net.variables, net.dag, net.cpt)),  # even over the same parts
    ]
    for a, b in twins:
        assert a == a and a != b and a in [b, a] and a not in [b]
        assert len({a, b, a}) == 2
