"""End-to-end exercises of every CLI subcommand."""

import csv
import hashlib
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import nalearn.experiments
import nalearn.pool
from nalearn import (
    MISSING,
    Dag,
    KPerRecord,
    SearchSpace,
    Variable,
    apply_mcar,
    forward_sample,
    load_structure,
    read_csv,
    save_structure,
    two_node_net,
    write_csv,
)
from nalearn.cli import build_parser, main
from nalearn.networks import eight_node_net
from nalearn.search import CandidateSets, complexity_profile

from oracles import write_profile_csv
from util import exit_at_once, fail_to_fork, force_pools, net_to_dict, record_pools, save_net


@pytest.fixture
def two_node_files(tmp_path):
    net = two_node_net()
    net_path = tmp_path / "net.json"
    save_net(net, net_path)
    structure_path = tmp_path / "structure.json"
    save_structure(net.dag, list(net.variables), structure_path)
    return net, net_path, structure_path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_and_mask(two_node_files, tmp_path, capsys):
    net, net_path, _ = two_node_files
    data_path = tmp_path / "data.csv"
    code, _, _ = run(capsys, [
        "sample", "--net", str(net_path), "--n", "500", "--seed", "3",
        "--out", str(data_path),
    ])
    assert code == 0
    data = read_csv(data_path, list(net.variables))
    assert data.num_records == 500 and (data.values != MISSING).all()

    masked_path = tmp_path / "masked.csv"
    code, _, _ = run(capsys, [
        "mask", "--in", str(data_path), "--missing", "bernoulli:0.5,1.0",
        "--seed", "4", "--out", str(masked_path), "--net", str(net_path),
    ])
    assert code == 0
    masked = read_csv(masked_path, list(net.variables))
    assert (masked.values[:, 0] == -1).any()
    assert not (masked.values[:, 1] == -1).any()

    kper_path = tmp_path / "kper.csv"
    code, _, _ = run(capsys, [
        "mask", "--in", str(data_path), "--missing", "kper:1",
        "--seed", "5", "--out", str(kper_path), "--net", str(net_path),
    ])
    assert code == 0
    kper = read_csv(kper_path, list(net.variables))
    assert np.all((kper.values == -1).sum(axis=1) == 1)


def test_score_subcommand(two_node_files, tmp_path, capsys):
    net, net_path, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    run(capsys, ["sample", "--net", str(net_path), "--n", "200", "--seed", "1",
                 "--out", str(data_path)])
    code, out, _ = run(capsys, [
        "score", "--net-structure", str(structure_path), "--data", str(data_path),
        "--penalty", "bic",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "total"
    total = float(lines[1])
    assert total < 0

    code, out, _ = run(capsys, [
        "score", "--net-structure", str(structure_path), "--data", str(data_path),
        "--penalty", "a0.3", "--decomposable",
    ])
    assert code == 0
    rows = list(csv.reader(out.strip().split("\n")))
    assert rows[0][0] == "node"
    assert rows[-1][0] == "total"


def test_mask_reads_its_schema_from_a_structure_file(two_node_files, tmp_path, capsys):
    net, net_path, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    write_csv(forward_sample(net, 100, seed=3), data_path)
    masked = {}
    for option, path in (("--net", net_path), ("--structure", structure_path)):
        masked[option] = tmp_path / f"masked{option}.csv"
        code, _, _ = run(capsys, ["mask", "--in", str(data_path), "--missing", "kper:1",
                                  "--seed", "4", "--out", str(masked[option]), option, str(path)])
        assert code == 0
    assert masked["--structure"].read_bytes() == masked["--net"].read_bytes()
    assert read_csv(masked["--structure"], list(net.variables)).num_records == 100


def test_score_decomposable_of_a_node_never_observed(two_node_files, tmp_path, capsys):
    _, _, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1,X2\nNA,0\nNA,1\nNA,1\n")
    code, out, _ = run(capsys, ["score", "--net-structure", str(structure_path), "--data",
                                str(data_path), "--penalty", "bic", "--decomposable"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][:2] == ["0", ""] and rows[1][2] == "-inf" and rows[1][3] == "0"
    assert rows[-1] == ["total", "", "", "", "", "-inf"]


def test_population_subcommand(two_node_files, capsys):
    _, net_path, _ = two_node_files
    code, out, _ = run(capsys, [
        "population", "--net", str(net_path), "--candidates", "order",
        "--missing", "bernoulli:0.75,1.0",
    ])
    assert code == 0
    assert "# beta = 0.75" in out
    assert "# identifiable = True" in out


def test_learn_and_compare(two_node_files, tmp_path, capsys):
    net, net_path, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    run(capsys, ["sample", "--net", str(net_path), "--n", "5000", "--seed", "2",
                 "--out", str(data_path)])
    learned_path = tmp_path / "learned.json"
    profile_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, [
        "learn", "--data", str(data_path), "--structure", str(structure_path),
        "--penalty", "a0.3", "--out", str(learned_path),
        "--profile", str(profile_path),
    ])
    assert code == 0
    _, learned = load_structure(learned_path)
    assert learned == net.dag  # independence recovered at this sample size

    with open(profile_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "score", "edges"]
    assert len(rows) >= 2

    code, out, _ = run(capsys, [
        "compare", "--truth", str(structure_path), "--estimate", str(learned_path),
    ])
    assert code == 0
    assert "f_score 1" in out
    assert "equivalent yes" in out


def test_learn_profile_counts_each_candidate_once(tmp_path, capsys, monkeypatch):
    """Each node's empty set is counted on its own, every larger set in one
    batch per node."""
    import nalearn.search

    calls, batches, counted = [], [], {}
    real_one = nalearn.search.count_sufficient_stats
    real_batch = nalearn.search.count_families

    def counting_one(data, node, parents):
        calls.append((node, tuple(parents)))
        return real_one(data, node, parents)

    def counting_batch(data, node, predecessors, max_parents):
        batches.append((node, tuple(predecessors), max_parents))
        for n_ikj, widths in real_batch(data, node, predecessors, max_parents):
            counted[node] = counted.get(node, 0) + len(widths)
            yield n_ikj, widths

    monkeypatch.setattr(nalearn.search, "count_sufficient_stats", counting_one)
    monkeypatch.setattr(nalearn.search, "count_families", counting_batch)
    code, _ = learn_eight_node(tmp_path, capsys, 5)
    assert code == 0
    space = SearchSpace(range(8), 3)
    assert sorted(calls) == [(i, ()) for i in range(8)]
    assert sorted(batches) == [(i, tuple(range(i)), 3) for i in range(8)]
    assert counted == {i: space.num_candidates(i) - 1 for i in range(1, 8)}


def test_learn_profile_never_iterates_the_candidate_sets(tmp_path, capsys, monkeypatch):
    """The search reads each node's winners and ties by index; listing every
    candidate of a node would go through __iter__."""
    def refuse(sets):
        raise AssertionError("iterated the candidate parent sets of a node")

    monkeypatch.setattr(CandidateSets, "__iter__", refuse)
    code, _ = learn_eight_node(tmp_path, capsys, 5)
    assert code == 0


def _eight_node_data(tmp_path):
    net = eight_node_net()
    structure_path = tmp_path / "structure.json"
    save_structure(net.dag, list(net.variables), structure_path)
    data_path = tmp_path / "data.csv"
    write_csv(apply_mcar(forward_sample(net, 300, seed=5), KPerRecord(2), seed=6), data_path)
    return structure_path, data_path


def _one_node_data(tmp_path):
    structure_path = tmp_path / "structure.json"
    save_structure(Dag([[]]), [Variable("X1", 3)], structure_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1\n0\n2\nNA\n1\n2\n")
    return structure_path, data_path


@pytest.mark.parametrize("make_data, order", [
    pytest.param(_eight_node_data, None, id="eight-node"),
    pytest.param(_one_node_data, None, id="one-node"),
    pytest.param(_eight_node_data, "V6,V1,V4,V0,V7,V2,V5,V3", id="eight-node-order"),
])
def test_profile_csv_equals_the_csv_writer_oracle(tmp_path, capsys, make_data, order):
    structure_path, data_path = make_data(tmp_path)
    options = ["--order", order] if order else []
    code, _, _ = run(capsys, [
        "learn", "--data", str(data_path), "--structure", str(structure_path),
        "--penalty", "bic", "--out", str(tmp_path / "learned.json"),
        "--profile", str(tmp_path / "profile.csv"), *options,
    ])
    assert code == 0
    variables, _ = load_structure(structure_path)
    names = [v.name for v in variables]
    space = SearchSpace([names.index(name) for name in order.split(",")] if order
                        else range(len(names)), 3)
    points = complexity_profile(read_csv(data_path, variables), space)
    write_profile_csv(points, tmp_path / "oracle.csv")
    written = (tmp_path / "profile.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    # the first point is the empty DAG: its edges field is empty
    assert written.split(b"\n")[1].endswith(b",") and points[0].dag == Dag([[]] * len(names))


PINNED_PROFILES = [
    (5, "abb6d8437fb22b0317dd659b9f1045b18f1a30b20fb5315997d8bc61445750aa",
     "0cb1d0dd494523b476534c7280104ce735dcde4f10b4af7d9eab3e69bcda2f89"),
    (11, "82a240cc10335ffc4d6190951fa23ef10fc1c540d760a4333fba8887147fd3c5",
     "8053537407c2c0be284a437d7ee8eebeb96e21cafb8dbf6548523511757daea0"),
]


def learn_eight_node(tmp_path, capsys, seed):
    """learn --profile on the eight-node net, 300 records under kper:2; returns
    the exit code and the sha256 of learned.json and profile.csv."""
    net = eight_node_net()
    structure_path = tmp_path / "structure.json"
    save_structure(net.dag, list(net.variables), structure_path)
    data_path = tmp_path / "data.csv"
    masked = apply_mcar(forward_sample(net, 300, seed=seed), KPerRecord(2), seed=seed + 1)
    write_csv(masked, data_path)
    code, _, _ = run(capsys, [
        "learn", "--data", str(data_path), "--structure", str(structure_path),
        "--penalty", "bic", "--out", str(tmp_path / "learned.json"),
        "--profile", str(tmp_path / "profile.csv"),
    ])
    return code, [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("learned.json", "profile.csv")]


@pytest.fixture
def search_pools(monkeypatch):
    """The keyword arguments of every pool the search opens; two usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return record_pools(monkeypatch)


# 162 candidate parent sets over the eight nodes at --max-parents 3, times 300 records
EIGHT_NODE_ROWS = 162 * 300


@pytest.mark.parametrize("seed, learned_digest, profile_digest, pool", [
    *(pytest.param(*row, False, id="-".join(map(str, row))) for row in PINNED_PROFILES),
    *(pytest.param(*row, True, id=f"{row[0]}-pool") for row in PINNED_PROFILES),
])
def test_learn_profile_outputs_are_pinned(tmp_path, capsys, monkeypatch, search_pools, seed,
                                          learned_digest, profile_digest, pool):
    """learned.json and profile.csv of the eight-node net, n = 300 under kper:2,
    byte for byte as the per-call search wrote them, with the node tables
    built in a pool of two workers or, below the floor, by the search."""
    if pool:
        monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", 0)
    code, digests = learn_eight_node(tmp_path, capsys, seed)
    assert code == 0
    assert digests == [learned_digest, profile_digest]
    assert [kwargs["max_workers"] for kwargs in search_pools] == [2] * pool
    assert multiprocessing.active_children() == []  # every worker joined


@pytest.mark.parametrize("cpus", [3, 16])
def test_learn_opens_one_pool_at_the_floor(tmp_path, capsys, monkeypatch, search_pools, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", EIGHT_NODE_ROWS)
    code, digests = learn_eight_node(tmp_path, capsys, 5)
    assert code == 0 and digests == list(PINNED_PROFILES[0][1:])
    assert [kwargs["max_workers"] for kwargs in search_pools] == [min(cpus, 8)]


@pytest.mark.parametrize("floor, cpus", [(EIGHT_NODE_ROWS + 1, 2), (None, 2), (0, 1)])
def test_learn_opens_no_pool_below_the_floor_or_on_one_cpu(tmp_path, capsys, monkeypatch,
                                                            search_pools, floor, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if floor is not None:  # None: the floor as shipped
        monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", floor)
    code, digests = learn_eight_node(tmp_path, capsys, 5)
    assert code == 0 and digests == list(PINNED_PROFILES[0][1:])
    assert search_pools == []


@pytest.mark.parametrize("failure", ["no pool", "workers die"])
def test_learn_falls_back_to_the_search_when_the_pool_fails(tmp_path, capsys, monkeypatch,
                                                            failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", 0)
    if failure == "no pool":
        monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", fail_to_fork)
    else:  # every worker exits in its initializer: BrokenProcessPool
        monkeypatch.setattr(nalearn.pool, "_start_worker", exit_at_once)
    code, digests = learn_eight_node(tmp_path, capsys, 5)
    assert code == 0 and digests == list(PINNED_PROFILES[0][1:])
    assert multiprocessing.active_children() == []


def test_recovery_workers_open_no_pool(tmp_path, capsys, monkeypatch):
    """A recovery worker's learn_structure builds its tables through pool_map,
    which runs them in that worker, so the workers nest no pool, even with no
    floor."""
    pools = force_pools(monkeypatch)
    parent, counting = os.getpid(), nalearn.pool.ProcessPoolExecutor

    def parent_pool_only(*args, **kwargs):  # raised in a worker, it fails the command
        if os.getpid() != parent:
            raise AssertionError("a recovery worker opened a pool")
        return counting(*args, **kwargs)

    monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", parent_pool_only)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "net": "eight-node", "sample_sizes": [300], "penalties": ["bic"],
        "missingness": ["kper:2"], "replicates": 2, "seed": 25,
    }))
    code, _, err = run(capsys, ["experiment", "--config", str(config_path), "--mode",
                                "recovery", "--out", str(tmp_path)])
    assert code == 0, err
    assert [kwargs["max_workers"] for kwargs in pools] == [2]


def test_learn_refuses_an_oversized_count_table(tmp_path, capsys, monkeypatch, search_pools):
    # 301^3 sentinel cells for X3 | X1, X2: above the 2^24 cap
    variables = [Variable(f"X{i + 1}", 300) for i in range(3)]
    structure_path = tmp_path / "structure.json"
    save_structure(Dag([[], [], []]), variables, structure_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1,X2,X3\n0,1,2\nNA,299,5\n")
    for floor in (nalearn.pool.POOL_FLOOR, 0):  # refused by the search, then by a worker
        monkeypatch.setattr(nalearn.pool, "POOL_FLOOR", floor)
        code, _, err = run(capsys, [
            "learn", "--data", str(data_path), "--structure", str(structure_path),
            "--penalty", "bic", "--out", str(tmp_path / "learned.json"),
        ])
        assert code == 2
        assert "exceeds the cap" in err and "Traceback" not in err
    assert [kwargs["max_workers"] for kwargs in search_pools] == [2]
    assert multiprocessing.active_children() == []


@pytest.fixture
def no_listing(monkeypatch):
    def refuse(space, node):
        raise AssertionError("listed the candidate parent sets of a refused space")

    monkeypatch.setattr(SearchSpace, "candidate_parent_sets", refuse)


def test_learn_refuses_an_oversized_search_space_before_listing(tmp_path, capsys, no_listing):
    variables = [Variable(f"X{i}", 2) for i in range(37)]
    structure_path = tmp_path / "structure.json"
    save_structure(Dag([[]] * 37), variables, structure_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text(",".join(v.name for v in variables) + "\n" + ",".join("0" * 37) + "\n")
    code, _, err = run(capsys, [
        "learn", "--data", str(data_path), "--structure", str(structure_path),
        "--penalty", "bic", "--max-parents", "8", "--out", str(tmp_path / "learned.json"),
    ])
    assert code == 2 and not (tmp_path / "learned.json").exists()
    assert err == ("error: the search space holds 176142311 candidate parent sets, above the "
                   "cap of 16777216; lower max_parents\n")


@pytest.mark.parametrize("num_nodes, max_parents, message", [
    (26, 25, "the search space holds 67108863 candidate parent sets"),
    (8, 3, "--candidates order spans 67092480 DAGs"),
], ids=["26-nodes", "8-nodes"])
def test_population_refuses_an_oversized_order_space_before_listing(
        tmp_path, capsys, no_listing, num_nodes, max_parents, message):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({
        "variables": [{"name": f"X{i}", "cardinality": 2} for i in range(num_nodes)],
        "parents": [[]] * num_nodes, "cpt": [[[0.5, 0.5]]] * num_nodes,
    }))
    code, out, err = run(capsys, ["population", "--net", str(net_path), "--candidates", "order",
                                  "--max-parents", str(max_parents)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("mode, config", [
    pytest.param("two-node", {}, id="two-node-config0"),
    pytest.param("rates", {"missingness": ["none", "bernoulli:0.9,1"]}, id="rates-config1"),
    pytest.param("recovery", {"net": "eight-node"}, id="recovery-config2"),
])
def test_experiment_refuses_an_oversized_run_before_listing(tmp_path, capsys, monkeypatch,
                                                            mode, config):
    cell_seeds = []

    def few_seeds(seed, index):  # the runners derive one seed per cell before monte_carlo
        cell_seeds.append(index)
        if len(cell_seeds) > 100:
            raise AssertionError("listed the replicates of a refused run")
        return seed ^ index

    monkeypatch.setattr(nalearn.experiments, "derive_seed", few_seeds)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"replicates": 100_000_000_000, **config}))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, ["experiment", "--config", str(config_path), "--mode", mode,
                                "--out", str(out_dir)])
    assert code == 2 and not any(out_dir.iterdir())
    assert err.startswith("error: the run has ") and "above the cap of 1048576" in err
    assert err.count("\n") == 1, err


def _out_of_memory(message):
    def sample(net, n, seed):
        raise MemoryError(message)

    return sample


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 186. GiB for an array with shape (2, 100000000000) and data type uint8",
     "error: Unable to allocate 186. GiB for an array with shape (2, 100000000000) and data "
     "type uint8\n"),
    ("", "error: out of memory\n"),
])
def test_sample_out_of_memory_exit_2(two_node_files, tmp_path, capsys, monkeypatch, message,
                                     line):
    _, net_path, _ = two_node_files
    monkeypatch.setattr(nalearn.cli, "forward_sample", _out_of_memory(message))
    code, _, err = run(capsys, ["sample", "--net", str(net_path), "--n", "100000000000",
                                "--seed", "1", "--out", str(tmp_path / "data.csv")])
    assert code == 2 and err == line


@pytest.mark.parametrize("cpus", [1, 2])
def test_experiment_out_of_memory_exit_2(tmp_path, capsys, monkeypatch, cpus):
    # on two CPUs the replicates run in forked workers, which inherit the patch
    pools = force_pools(monkeypatch, cpus)
    monkeypatch.setattr(nalearn.experiments, "forward_sample", _out_of_memory("no room"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sample_sizes": [100_000_000_000], "betas": [1.0],
                                       "replicates": 4}))
    code, _, err = run(capsys, ["experiment", "--config", str(config_path), "--mode", "two-node",
                                "--out", str(tmp_path / "out")])
    assert code == 2 and err == "error: no room\n"
    assert len(pools) == (cpus > 1) and multiprocessing.active_children() == []


@pytest.mark.parametrize("extra", [
    pytest.param(["--penalty", "bic", "--max-parents", "-1"], id="extra0"),
    pytest.param(["--penalty", "a1.5"], id="extra1"),
    pytest.param(["--penalty", "a0.3c0"], id="extra2"),
    pytest.param(["--penalty", "bic", "--order", "X2,X9"], id="extra3"),
    pytest.param(["--penalty", "bic", "--order", "X1,X1"], id="extra4"),
    pytest.param(["--penalty", "a0.3c"], id="extra5"),
    pytest.param(["--penalty", "power"], id="extra6"),
    pytest.param(["--penalty", "a0.3cinf"], id="extra7"),
])
def test_learn_bad_arguments_exit_2(two_node_files, tmp_path, capsys, extra):
    _, _, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1,X2\n0,1\n")
    code, _, err = run(capsys, [
        "learn", "--data", str(data_path), "--structure", str(structure_path),
        "--out", str(tmp_path / "learned.json"), *extra,
    ])
    assert code == 2 and err.startswith("error:")


def _numbered(k, *values, names=("argv", "config")):
    """pytest.param of row k under the id pytest gives row k of a table
    without ids: a str, int or None value reads as itself, any other value
    as its name and k. Each id is fixed by its literal k, so a row inserted
    anywhere renames no other; a new row takes an id that names its case."""
    return pytest.param(*values, id="-".join(
        str(v) if v is None or isinstance(v, (str, int)) else f"{name}{k}"
        for name, v in zip(names, values)))


_NET = ["--net", "{net}"]
_MASK = ["mask", "--in", "{data}", *_NET, "--out", "{out}"]
_TWO_NODE = ["experiment", "--config", "{config}", "--mode", "two-node", "--out", "{out_dir}"]
_TWO_NODE_CONFIG = {"sample_sizes": [100], "betas": [1.0], "replicates": 2}
_RECOVERY = ["experiment", "--config", "{config}", "--mode", "recovery", "--out", "{out_dir}"]
_RATES = ["experiment", "--config", "{config}", "--mode", "rates", "--out", "{out_dir}"]
_CANDIDATES = ["population", *_NET, "--candidates", "{config}"]
_SAMPLE_FROM = ["sample", "--net", "{config}", "--n", "10", "--seed", "1", "--out", "{out}"]
_LEARN_FROM = ["learn", "--data", "{data}", "--structure", "{config}", "--penalty", "bic",
               "--out", "{out}"]
_NET_DICT = net_to_dict(two_node_net())
_BAD_SCHEMAS = [
    '{"variables": [{"name": "X1"',  # truncated JSON
    {key: value for key, value in _NET_DICT.items() if key != "parents"},
    {**_NET_DICT, "variables": [{"name": "X1", "cardinality": 1}, _NET_DICT["variables"][1]]},
]
# JSON numbers that int() would truncate or coerce into a valid file
_NOT_INTEGERS = [
    *[{**_NET_DICT, "variables": [{"name": "X1", "cardinality": card}, _NET_DICT["variables"][1]]}
      for card in [2.9, "2"]],
    {**_NET_DICT, "parents": [[], [0.5]], "cpt": [_NET_DICT["cpt"][0], [[0.3, 0.7]] * 2]},
]
_WIDE_NET = {  # 2**64 joint states, a count that wraps to 0 in int64
    "variables": [{"name": f"X{i}", "cardinality": 2} for i in range(64)],
    "parents": [[]] * 64,
    "cpt": [[[0.5, 0.5]]] * 64,
}
# candidate documents that are an empty list or not a list at all
_NOT_CANDIDATE_LISTS = [[], {"a": 1}, '"x"', 5]
# --check where there is nothing to check: another mode, or a grid that meets
# no cell of the reference table
# list-valued config fields given as a string, which would be read character
# by character
_NOT_LISTS = [
    (_TWO_NODE, "penalties", "bic"),
    (_TWO_NODE, "betas", "1"),
    (_TWO_NODE, "sample_sizes", "100"),
    (_RECOVERY, "missingness", "kper:2"),
    (_RECOVERY, "order", "01"),
]
_CHECK_WITHOUT_REFERENCE = [
    ([*_RECOVERY, "--check"], _TWO_NODE_CONFIG),
    ([*_TWO_NODE, "--check"], {**_TWO_NODE_CONFIG, "sample_sizes": [50]}),
]


@pytest.mark.parametrize("argv, config", [
    *[_numbered(k, ["population", *_NET, "--candidates", "order", "--missing", spec], None)
      for k, spec in enumerate(["kper:x", "kper:2", "mar", "bernoulli:abc", "bernoulli:2",
                                "bernoulli:0.5,0.5,0.5"])],
    _numbered(6, [*_MASK, "--missing", "bernoulli", "--seed", "1"], None),
    _numbered(7, [*_MASK, "--missing", "kper", "--seed", "1"], None),
    _numbered(8, [*_MASK, "--missing", "kper:1", "--seed", "-1"], None),
    _numbered(9, ["sample", *_NET, "--n", "10", "--seed", "-1", "--out", "{out}"], None),
    _numbered(10, ["sample", *_NET, "--n", "-1", "--seed", "1", "--out", "{out}"], None),
    *[_numbered(k, _TWO_NODE, {**_TWO_NODE_CONFIG, "penalties": ["aic", spec]})
      for k, spec in enumerate(["a0.x", {"kind": "power"}, "mdl"], 11)],
    _numbered(14, ["experiment", "--config", "{config}", "--mode", "rates", "--out", "{out_dir}"],
              {"sample_sizes": [100, 200], "replicates": 1}),
    # 67,092,480 DAGs
    _numbered(15, ["population", "--net", "{net8}", "--candidates", "order"], None),
    _numbered(16, ["population", *_NET, "--candidates", "order", "--max-parents", "-1"], None),
    _numbered(17, _TWO_NODE, '{"sample_sizes": [100], "replicates": 2'),  # truncated JSON
    _numbered(18, _TWO_NODE, []),  # not a JSON object
    *[_numbered(k, _RECOVERY, {**_TWO_NODE_CONFIG, **fields})
      for k, fields in enumerate([{"max_parents": -1}, {"order": [0, 0]}, {"order": [0, 1, 2]}],
                                 19)],
    _numbered(22, _CANDIDATES, "[[[], [0]]"),  # truncated JSON
    _numbered(23, _CANDIDATES, [[[], [0, 0]]]),  # a parent listed twice
    _numbered(24, _CANDIDATES, [[[], [5]]]),  # a parent out of range
    _numbered(25, _CANDIDATES, [[[1], [0]]]),  # a cycle
    *[_numbered(k, _SAMPLE_FROM, net) for k, net in enumerate(_BAD_SCHEMAS, 26)],
    # a row that sums to 0.9
    _numbered(29, _SAMPLE_FROM, {**_NET_DICT, "cpt": [[[0.4, 0.5]], _NET_DICT["cpt"][1]]}),
    *[_numbered(k, _LEARN_FROM, structure) for k, structure in enumerate(_BAD_SCHEMAS, 30)],
    *[_numbered(k, _TWO_NODE, {**_TWO_NODE_CONFIG, field: []})
      for k, field in enumerate(["sample_sizes", "betas", "penalties"], 33)],
    _numbered(36, _RECOVERY, {**_TWO_NODE_CONFIG, "missingness": []}),
    _numbered(37, _RATES, {"sample_sizes": [], "replicates": 2}),
    *[_numbered(k, _CANDIDATES, [[[], [parent]], [[], []]])
      for k, parent in enumerate([0.7, False, "0"], 38)],
    *[_numbered(k, _SAMPLE_FROM, net) for k, net in enumerate(_NOT_INTEGERS, 41)],
    *[_numbered(k, _LEARN_FROM, structure) for k, structure in enumerate(_NOT_INTEGERS, 44)],
    *[_numbered(k, _TWO_NODE, {**_TWO_NODE_CONFIG, **fields})
      for k, fields in enumerate([{"sample_sizes": [100.7]}, {"replicates": 2.9}, {"seed": 1.5},
                                  {"seed": True}, {"replicates": "2"}], 47)],
    _numbered(52, _RECOVERY, {**_TWO_NODE_CONFIG, "order": [0, 1.5]}),
    _numbered(53, ["population", "--net", "{config}", "--candidates", "order", "--max-parents",
                   "0"], _WIDE_NET),
    _numbered(54, _TWO_NODE, {**_TWO_NODE_CONFIG, "net": "eight-node"}),
    *[_numbered(k, argv, config) for k, (argv, config) in enumerate(_CHECK_WITHOUT_REFERENCE, 55)],
    _numbered(57, _SAMPLE_FROM,
              {**_NET_DICT, "cpt": [[[math.nan, math.nan]], _NET_DICT["cpt"][1]]}),
    # JSON booleans that float() or int() would read as 0 or 1
    _numbered(58, _TWO_NODE, {**_TWO_NODE_CONFIG, "betas": [True]}),
    # a spec that is not a string, such as the dict spellings nalearn once read
    *[_numbered(k, _RECOVERY, {**_TWO_NODE_CONFIG, "missingness": [spec]})
      for k, spec in enumerate([True, {"mode": "kper", "k": 1}, ["bernoulli", 0.5]], 59)],
    _numbered(62, _RECOVERY, {**_TWO_NODE_CONFIG, "penalties": [{"kind": "bic"}]}),
    # rate probes that would write nan: X1 and X2 never observed together in a
    # regime or in some replicate, or a gain that does not vary
    *[_numbered(k, _RATES, {"sample_sizes": [100, 200], "replicates": 5, "missingness": [spec]})
      for k, spec in enumerate(["kper:1", "bernoulli:0,1", "bernoulli:1,0"], 63)],
    _numbered(66, _RATES, {"sample_sizes": [2, 100], "replicates": 20,
                           "missingness": ["bernoulli:0.3,1"]}),
    _numbered(67, _RATES, {"sample_sizes": [1, 2], "replicates": 5}),
    # penalty specs outside the grammar: a kind with a suffix, a negative coef
    *[_numbered(k, _TWO_NODE, {**_TWO_NODE_CONFIG, "penalties": [spec]})
      for k, spec in enumerate(["bica0.3", "a0.3c-3"], 68)],
    *[_numbered(k, [*_LEARN_FROM, "--penalty", spec], _NET_DICT)
      for k, spec in enumerate(["power", "aicc2"], 70)],
    # specs that repeat a CSV label
    _numbered(72, _TWO_NODE, {**_TWO_NODE_CONFIG, "penalties": ["a0.3", "a0.3c0.5"]}),
    _numbered(73, _RECOVERY, {**_TWO_NODE_CONFIG, "missingness": ["none", "none"]}),
    _numbered(74, _RATES, {"sample_sizes": [100, 200], "replicates": 5,
                           "missingness": ["none", "kper:0", "none"]}),
    # specs that give one model under two labels
    _numbered(75, _RECOVERY, {**_TWO_NODE_CONFIG,
                              "missingness": ["bernoulli:0.5", "bernoulli:0.5,0.5"]}),
    _numbered(76, _TWO_NODE, {**_TWO_NODE_CONFIG, "penalties": ["a0.5", "a0.50"]}),
    # a repeated n or beta: every copy would run and write rows that share a key
    _numbered(77, _TWO_NODE, {"sample_sizes": [100, 100], "betas": [0.9, 0.9],
                              "penalties": ["bic"]}),
    _numbered(78, _TWO_NODE, {**_TWO_NODE_CONFIG, "betas": [0.9, 0.9]}),
    _numbered(79, _RATES, {"sample_sizes": [100, 200, 100], "replicates": 5}),
    _numbered(80, [*_MASK, "--missing", "none", "--seed", "1"], None),  # would mask nothing
    # the two-node table masks X1 through betas alone
    _numbered(81, _TWO_NODE, {**_TWO_NODE_CONFIG, "missingness": ["kper:1"]}),
    _numbered(82, _TWO_NODE, {**_TWO_NODE_CONFIG, "net": 5}),  # str() would read it as "5"
    # candidate documents that are not a non-empty list of DAGs, each a list of parent lists
    *[_numbered(k, _CANDIDATES, doc) for k, doc in enumerate(_NOT_CANDIDATE_LISTS, 83)],
    *[_numbered(k, _CANDIDATES, doc) for k, doc in enumerate([[5], [[5]], [[[], "ab"]]], 87)],
    *[_numbered(k, _SAMPLE_FROM, {**_NET_DICT, "parents": parents})
      for k, parents in enumerate([5, [[], "ab"]], 90)],
    # strings and booleans where JSON numbers or lists belong
    _numbered(92, _TWO_NODE, {**_TWO_NODE_CONFIG, "betas": ["0.9", "1e0"]}),
    *[_numbered(k, argv, {**_TWO_NODE_CONFIG, field: value})
      for k, (argv, field, value) in enumerate(_NOT_LISTS, 93)],
    *[_numbered(k, _SAMPLE_FROM, {**_NET_DICT, "cpt": [table, _NET_DICT["cpt"][1]]})
      for k, table in enumerate([[["0.4", "0.6"]], [[True, False]]], 98)],
    _numbered(100, _SAMPLE_FROM, {**_NET_DICT, "cpt": "ab"}),
    # candidates the bulk check must refuse: a parent beyond int64 and a negative
    # one, a self-loop, a three-node cycle, and a node-count mismatch in the
    # second candidate
    *[_numbered(k, _CANDIDATES, [[[], [parent]], [[], []]])
      for k, parent in enumerate([2**70, -1], 101)],
    _numbered(103, _CANDIDATES, [[[0], []]]),
    _numbered(104, ["population", "--net", "{net8}", "--candidates", "{config}"],
              [[[2], [0], [1], [], [], [], [], []]]),
    _numbered(105, _CANDIDATES, [[[], []], [[]]]),
    # a family that is never observed: beta would be 0
    *[_numbered(k, ["population", *_NET, "--candidates", "order", "--missing", spec], None)
      for k, spec in enumerate(["bernoulli:0", "bernoulli:0,1", "kper:1"], 106)],
    # a file lists its own parents
    _numbered(109, [*_CANDIDATES, "--max-parents", "1"], [[[], []]]),
    # more records than numpy can hold
    pytest.param(["sample", *_NET, "--n", str(10**20), "--seed", "1", "--out", "{out}"], None,
                 id="sample --n 1e20"),
    pytest.param(_TWO_NODE, {**_TWO_NODE_CONFIG, "sample_sizes": [1e20]},
                 id="two-node sample_sizes 1e20"),
    # cells that int() reads but write_csv never writes
    *[pytest.param(["learn", "--data", "{config}", "--structure", "{net}", "--penalty", "bic",
                    "--out", "{out}"], f"X1,X2\n0,1\n1,{cell}\n", id=f"learn cell {name}")
      for name, cell in [("-1", "-1"), ("0_1", "0_1"), ("space 1", " 1"), ("+1", "+1"),
                         ("01", "01"), ("-0", "-0"), ("arabic-indic 1", "\u0661")]],
])
def test_malformed_spec_exit_2(two_node_files, tmp_path, capsys, argv, config):
    _, net_path, _ = two_node_files
    net8_path = tmp_path / "net8.json"
    save_net(eight_node_net(), net8_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1,X2\n0,1\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(config if isinstance(config, str) else json.dumps(config))
    paths = {"net": net_path, "net8": net8_path, "data": data_path, "config": config_path,
             "out": tmp_path / "out.csv", "out_dir": tmp_path / "out"}
    code, _, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err


def population_of(capsys, net_path, path, candidates):
    path.write_text(json.dumps(candidates))
    return run(capsys, ["population", "--net", str(net_path), "--candidates", str(path)])


def test_the_first_bad_candidate_names_its_own_error(two_node_files, tmp_path, capsys):
    # candidate 1 repeats a parent, but candidate 0's cycle comes first
    _, net_path, _ = two_node_files
    code, out, err = population_of(capsys, net_path, tmp_path / "candidates.json",
                                   [[[1], [0]], [[], [0, 0]]])
    assert (code, out, err) == (2, "", "error: directed cycle through nodes [0, 1]\n")


def test_integral_float_parents_print_the_rows_of_ints(two_node_files, tmp_path, capsys):
    _, net_path, _ = two_node_files
    floats = population_of(capsys, net_path, tmp_path / "floats.json",
                           [[[], [0.0]], [[1.0], []], [[], []]])
    ints = population_of(capsys, net_path, tmp_path / "ints.json", [[[], [0]], [[1], []], [[], []]])
    assert floats == ints and ints[0] == 0


def test_a_candidate_outside_the_identity_order_prints_its_row(two_node_files, tmp_path,
                                                               capsys):
    # X2 -> X1 is acyclic and a maximizer, but not the (empty) true DAG
    _, net_path, _ = two_node_files
    code, out, _ = population_of(capsys, net_path, tmp_path / "candidates.json", [[[1], []]])
    assert code == 0
    assert out == ("dag,df,population_nal,is_superset_of_true,maximizer\n"
                   "0,3,-1.28387596906,1,1\n# beta = 1\n# identifiable = False\n")


@pytest.mark.parametrize("argv, doc, shape", [
    *[_numbered(k, _CANDIDATES, doc, "a non-empty list of DAGs, each a list of parent lists",
                names=("argv", "doc", "shape")) for k, doc in enumerate(_NOT_CANDIDATE_LISTS)],
    *[_numbered(k, _SAMPLE_FROM, {**_NET_DICT, "parents": parents}, "a list of parent lists",
                names=("argv", "doc", "shape")) for k, parents in enumerate([5, [[], "ab"]], 4)],
])
def test_a_document_of_another_shape_names_the_shape(two_node_files, tmp_path, capsys,
                                                     argv, doc, shape):
    _, net_path, _ = two_node_files
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, [arg.format(net=net_path, config=path, out=tmp_path / "out.csv")
                                  for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.endswith(f"expected {shape}\n"), err


@pytest.mark.parametrize("argv, field, value", [
    _numbered(k, *row, names=("argv", "field", "value")) for k, row in enumerate(_NOT_LISTS)])
def test_a_config_field_that_is_not_a_list_names_the_field(tmp_path, capsys, argv, field, value):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**_TWO_NODE_CONFIG, field: value}))
    code, _, err = run(capsys, [arg.format(config=config_path, out_dir=tmp_path / "out")
                                for arg in argv])
    assert code == 2 and f"field {field!r}: expected a list, got {value!r}" in err, err


@pytest.mark.parametrize("argv, config", [
    _numbered(k, *row) for k, row in enumerate(_CHECK_WITHOUT_REFERENCE)])
def test_check_without_a_reference_is_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                             argv, config):
    def no_sampling(*args):
        raise AssertionError("sampled before --check was refused")

    monkeypatch.setattr(nalearn.experiments, "forward_sample", no_sampling)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, [arg.format(config=config_path, out_dir=out_dir) for arg in argv])
    assert code == 2 and err.startswith("error: --check") and not out_dir.exists(), err


def test_experiment_takes_no_jobs_option(capsys):
    # the harness sizes its process pools itself
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", "config.json", "--mode", "recovery", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_mask_needs_exactly_one_schema(two_node_files, tmp_path, capsys):
    _, net_path, structure_path = two_node_files
    base = ["mask", "--in", "data.csv", "--missing", "kper:1", "--seed", "1",
            "--out", str(tmp_path / "out.csv")]
    for schema in ([], ["--net", str(net_path), "--structure", str(structure_path)]):
        with pytest.raises(SystemExit) as exc:
            main([*base, *schema])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("body", ["0,1\n1\n", "0,one\n", "0,40000\n"])
def test_malformed_csv_exit_2(two_node_files, tmp_path, capsys, body):
    _, _, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    data_path.write_text("X1,X2\n" + body)
    for argv in (
        ["learn", "--structure", str(structure_path), "--penalty", "bic",
         "--out", str(tmp_path / "learned.json")],
        ["score", "--net-structure", str(structure_path), "--penalty", "a0.3"],
    ):
        code, _, err = run(capsys, [*argv, "--data", str(data_path)])
        assert code == 2 and err.startswith("error:")


def test_csv_that_is_not_utf8_exit_2(two_node_files, tmp_path, capsys):
    net, net_path, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    data_path.write_bytes(b"X1,X2\n0,1\n\xff,0\n")
    for argv in (
        ["learn", "--data", str(data_path), "--structure", str(structure_path),
         "--penalty", "bic", "--out", str(tmp_path / "learned.json")],
        ["mask", "--in", str(data_path), "--net", str(net_path), "--missing", "kper:1",
         "--seed", "1", "--out", str(tmp_path / "masked.csv")],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith(f"error: {data_path}: not UTF-8"), err


@pytest.mark.parametrize("argv", [
    ["learn", "--profile", "."],
    ["learn", "--out", "."],
    ["learn", "--data", "."],
    ["score", "--data", "."],
    ["mask", "--in", "."],
    ["sample", "--out", "."],
    ["experiment", "--config", "."],
    ["population", "--candidates", "."],
], ids=lambda argv: " ".join(argv))
def test_a_directory_where_a_file_belongs_exit_2(two_node_files, tmp_path, capsys,
                                                 monkeypatch, argv):
    """Each path option given a directory: IsADirectoryError becomes exit 2."""
    net, net_path, structure_path = two_node_files
    data_path = tmp_path / "data.csv"
    write_csv(forward_sample(net, 50, seed=1), data_path)
    files = {
        "learn": ["--data", str(data_path), "--structure", str(structure_path), "--penalty",
                  "bic", "--out", str(tmp_path / "learned.json"), "--profile",
                  str(tmp_path / "profile.csv")],
        "score": ["--net-structure", str(structure_path), "--data", str(data_path),
                  "--penalty", "bic"],
        "mask": ["--in", str(data_path), "--net", str(net_path), "--missing", "kper:1",
                 "--seed", "1", "--out", str(tmp_path / "masked.csv")],
        "sample": ["--net", str(net_path), "--n", "10", "--seed", "1", "--out",
                   str(tmp_path / "sample.csv")],
        "experiment": ["--config", str(tmp_path / "config.json"), "--mode", "two-node",
                       "--out", str(tmp_path)],
        "population": ["--net", str(net_path), "--candidates", "order"],
    }[argv[0]]
    option, value = argv[1:]
    at = files.index(option) + 1
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, [argv[0], *files[:at], value, *files[at + 1:]])
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err, err
    assert "Is a directory" in err


def test_readme_cli_block_parses():
    """Every `nalearn` line of the README's CLI block parses, and runs nothing,
    so an option the parser no longer takes cannot stay in the docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("nalearn ")]
    parser = build_parser()
    for argv in lines:
        try:
            parser.parse_args([arg.strip("[]") for arg in argv])
        except SystemExit:
            pytest.fail(f"the README's CLI block has a line nalearn refuses: {' '.join(argv)}")
    assert [argv[0] for argv in lines] == [
        "sample", "mask", "score", "population", "learn", "compare", "experiment"]


def test_experiment_subcommand(tmp_path, capsys):
    config = {
        "sample_sizes": [100],
        "betas": [1.0],
        "penalties": ["aic", "a0.3"],
        "replicates": 30,
        "seed": 21,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run(capsys, [
        "experiment", "--config", str(config_path), "--mode", "two-node",
        "--out", str(tmp_path),
    ])
    assert code == 0
    table = (tmp_path / "table1.csv").read_text().strip().split("\n")
    assert table[0] == "beta,n,penalty,wrong_pct,mc_se"
    assert len(table) == 3


def test_experiment_rates_mode(tmp_path, capsys):
    config = {
        "sample_sizes": [100, 400],
        "replicates": 30,
        "seed": 23,
        "missingness": ["none"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run(capsys, [
        "experiment", "--config", str(config_path), "--mode", "rates",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "rates.csv").exists()


def test_experiment_recovery_mode(tmp_path, capsys):
    config = {
        "net": "eight-node",
        "sample_sizes": [300],
        "penalties": ["bic"],
        "missingness": ["kper:1"],
        "replicates": 2,
        "seed": 25,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run(capsys, [
        "experiment", "--config", str(config_path), "--mode", "recovery",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "recovery.csv").exists()


def test_experiment_check_failure_exit_3(tmp_path, capsys, monkeypatch):
    """--check writes the table, then one CHECK FAIL line per failing cell."""
    measured = [("aic", 16.0), ("a0.2", 0.6), ("bic", 40.0)]  # the reference: 16.0, 0.0, 2.8
    monkeypatch.setattr(nalearn.experiments, "run_two_node", lambda config: [
        {"beta": 1.0, "n": 100, "penalty": label, "wrong_pct": pct, "mc_se": 0.0}
        for label, pct in measured])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sample_sizes": [100], "betas": [1.0],
                                       "penalties": [label for label, _ in measured]}))
    code, _, err = run(capsys, ["experiment", "--config", str(config_path), "--mode",
                                "two-node", "--out", str(tmp_path), "--check"])
    assert code == 3
    assert err.splitlines() == [
        "CHECK FAIL (1.0, 100, 'a0.2'): expected ~0, measured 0.60%",
        "CHECK FAIL (1.0, 100, 'bic'): expected 2.8 +- 1.57, measured 40.00%",
    ]
    assert len((tmp_path / "table1.csv").read_text().splitlines()) == 4


def test_config_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bogus": 1}))
    code, _, _ = run(capsys, [
        "experiment", "--config", str(config_path), "--mode", "two-node",
        "--out", str(tmp_path),
    ])
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, [
        "sample", "--net", "/nonexistent.json", "--n", "1", "--seed", "1",
        "--out", "/tmp/never.csv",
    ])
    assert code == 2
    assert "error" in err


def test_eight_node_net_shape():
    net = eight_node_net()
    assert net.num_nodes == 8
    assert net.df() == 47
    assert net.dag.num_edges() == 11
