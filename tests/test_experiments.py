"""Monte Carlo harness: config handling, determinism and small-scale runs."""

import hashlib
import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nalearn.experiments
import nalearn.pool
from nalearn import AIC, BIC, Dataset, Penalty, power_law, two_node_net
from nalearn.cli import main
from nalearn.errors import ConfigError, InsufficientGrid
from nalearn.experiments import (
    ExperimentConfig,
    check_two_node,
    config_from_dict,
    missingness_label,
    monte_carlo,
    resolve_net,
    run_rate_probe,
    run_recovery,
    run_two_node,
    spurious_edge_gain,
    two_node_wrong_fraction,
    write_rows,
)
from nalearn.sampling import Bernoulli, KPerRecord, derive_seed, parse_missingness, splitmix64
from nalearn.scoring import lambda_value, parse_penalty

from util import exit_at_once, fail_to_fork, force_pools, save_net


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        config_from_dict({"nett": "two-node"})


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"replicates": 0})
    with pytest.raises(ConfigError, match="must not repeat"):
        config_from_dict({"sample_sizes": [100, 100], "betas": [0.9, 0.9], "penalties": ["bic"]})
    with pytest.raises(ConfigError):
        config_from_dict({"sample_sizes": [0]})
    with pytest.raises(ConfigError):
        config_from_dict({"betas": [1.5]})


@pytest.mark.parametrize("field", ["sample_sizes", "betas", "penalties", "missingness"])
def test_config_rejects_empty_grid(field):
    with pytest.raises(InsufficientGrid, match=field):
        config_from_dict({field: []})


def test_config_round_trip_fields():
    cfg = config_from_dict(
        {"net": "eight-node", "sample_sizes": [10, 20], "replicates": 3, "seed": 7}
    )
    assert cfg.net == "eight-node"
    assert cfg.sample_sizes == (10, 20)
    assert cfg.replicates == 3


def test_parse_penalty_variants():
    assert parse_penalty("aic", 2) == Penalty("aic")
    assert parse_penalty("bic", 2) == Penalty("bic")
    p = parse_penalty("a0.3", 2)
    assert p.kind == "power" and p.alpha == 0.3 and p.coefficient == 0.5
    assert parse_penalty("a0.4c0.25", 2) == power_law(0.25, 0.4)
    assert parse_penalty("a0.4", 4) == power_law(0.25, 0.4)
    assert parse_penalty("bic", 2) == BIC
    # a spec is a string: the dict spellings, a Penalty, a number or a boolean are refused
    for bad in ["mdl", "a0.x", "a1.5", "power", "a0.3c", "a0.3cx", "ac0.3", "a0.3c0",
                "a0.3c-3", "bica0.3", "aicc2", "nonea0.5", {"kind": "power", "alpha": 0.3},
                {"alpha": 0.3}, {"kind": "bic"}, AIC, 0.3, True, None]:
        with pytest.raises(ConfigError, match="penalty spec"):
            parse_penalty(bad, 2)


def test_penalty_labels():
    # a label is written from the parsed penalty, so every spelling of one penalty shares it
    for spec, label in [("a0.3", "a0.3"), ("bic", "bic"), ("a0.30", "a0.3"),
                        ("a0.50", "a0.5"), ("a0.3c0.5", "a0.3"),
                        ("a0.3c0.010", "a0.3c0.01"), ("a0.3c1e-05", "a0.3c1e-05"),
                        ("a0.3c10.0", "a0.3c10")]:
        assert parse_penalty(spec, 2).label(2) == label, spec
        assert parse_penalty(label, 2) == parse_penalty(spec, 2), spec
    for penalty, label in [(power_law(0.5, 0.3), "a0.3"),
                           (power_law(1 / 3, 0.3), "a0.3c0.3333333333333333")]:
        assert penalty.label(2) == label and parse_penalty(label, 2) == penalty
    assert power_law(0.125, 0.3).label(8) == "a0.3"
    assert power_law(0.5, 0.3).label(8) == "a0.3c0.5"


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       coef=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       num_vars=st.integers(2, 40))
def test_penalty_label_parses_back(alpha, coef, num_vars):
    for penalty in (power_law(coef, alpha), power_law(1.0 / num_vars, alpha)):
        assert parse_penalty(penalty.label(num_vars), num_vars) == penalty


def test_missingness_labels():
    for spec, label in [("none", "complete"), ("kper:1", "kper(k=1)"),
                        ("kper:0", "kper(k=0)"), ("bernoulli:0.9", "bernoulli(p=0.9)"),
                        ("bernoulli:0.9,0.90", "bernoulli(p=0.9)"),
                        ("bernoulli:1", "bernoulli(p=1.0)"),
                        ("bernoulli:1,0.5", "bernoulli(p=[1.0, 0.5])"),
                        ("bernoulli:-0.0,0", "bernoulli(p=0.0)")]:
        assert missingness_label(parse_missingness(spec, 2)) == label, spec
    assert missingness_label(parse_missingness("kper:2", 8)) == "kper(k=2)"


def test_string_missingness_spec_in_a_python_config():
    cfg = ExperimentConfig(sample_sizes=(50, 100), replicates=5, seed=1,
                           missingness=("bernoulli:0.9",))
    assert {row["regime"] for row in run_rate_probe(cfg)} == {"bernoulli(p=0.9)"}


def test_power_laws_with_distinct_coefs_get_distinct_rows():
    cfg = ExperimentConfig(sample_sizes=(100,), betas=(1.0,), replicates=20, seed=5,
                           penalties=("a0.3c0.01", "a0.3c10"))
    rows = run_two_node(cfg)
    assert [r["penalty"] for r in rows] == ["a0.3c0.01", "a0.3c10"]
    assert rows[0]["wrong_pct"] > rows[1]["wrong_pct"]


def test_resolve_net_and_parse_missingness():
    assert resolve_net("two-node").num_nodes == 2
    assert resolve_net("eight-node").num_nodes == 8
    assert parse_missingness("none", 2) is None
    assert parse_missingness("bernoulli:0.75", 2) == Bernoulli((0.75, 0.75))
    assert parse_missingness("bernoulli:0.5,1", 2) == Bernoulli((0.5, 1.0))
    assert parse_missingness("kper:2", 8) == KPerRecord(2)
    assert parse_missingness("kper:0", 2) == KPerRecord(0)
    # a spec is a string: the dict spellings, a list or a boolean are refused
    for bad in ["mar", "kper:x", "kper:2", "kper:-1", "kper:1.5", "kper", "kper:",
                "bernoulli:abc", "bernoulli:2", "bernoulli:0.5,0.5,0.5", "bernoulli:true",
                "bernoulli", "none:3", {"mode": "none"}, {"mode": "kper", "k": 1},
                {"mode": "bernoulli", "p": 0.5}, ["none"], True, None]:
        with pytest.raises(ConfigError, match="missingness spec"):
            parse_missingness(bad, 2)


def test_unobservable_spurious_edge_is_never_selected():
    # X1 is never observed, so the one-edge model has no available cases
    data = Dataset(two_node_net().variables, np.array([[-1, 0], [-1, 1], [-1, 1]]))
    gain = spurious_edge_gain(data)
    assert gain == -math.inf
    assert not gain > lambda_value(Penalty("none"), 3)


def test_monte_carlo_runs_each_replicate_at_its_own_seed():
    cells = [(20, None, 3), (30, Bernoulli((0.5, 1.0)), 4)]
    per_cell = monte_carlo(two_node_net(), cells, 3, spurious_edge_gain, 2)
    assert [len(gains) for gains in per_cell] == [3, 3]
    # a cell's replicates do not depend on the other cells or on the replicate count
    assert monte_carlo(two_node_net(), cells[1:], 2, spurious_edge_gain, 2) == [per_cell[1][:2]]


def test_monte_carlo_refuses_a_run_above_the_cap_before_listing(monkeypatch):
    monkeypatch.setattr(nalearn.experiments, "REPLICATE_CAP", 5)
    cells = [(20, None, 3), (30, None, 4)]
    assert [len(gains) for gains in monte_carlo(two_node_net(), cells[:1], 5,
                                                spurious_edge_gain, 2)] == [5]

    def no_listing(seed, index):
        raise AssertionError("listed a replicate of a refused run")

    monkeypatch.setattr(nalearn.experiments, "derive_seed", no_listing)
    with pytest.raises(ConfigError, match="2 cells of 3 replicates, above the cap of 5"):
        monte_carlo(two_node_net(), cells, 3, spurious_edge_gain, 2)


def test_two_node_wrong_fraction_extremes():
    # alpha = 0.2 with complete data: wrong selections are (near) impossible
    [gains] = monte_carlo(two_node_net(), [(1000, None, 11)], 50, spurious_edge_gain, 2)
    fractions = two_node_wrong_fraction(gains, 1000, [parse_penalty("a0.2", 2)], replicates=50)
    assert fractions[0] <= 0.005 + 1e-12


def test_run_two_node_deterministic():
    cfg = ExperimentConfig(
        sample_sizes=(100,), betas=(1.0, 0.9), penalties=("aic",), replicates=40, seed=5
    )
    rows1 = run_two_node(cfg)
    rows2 = run_two_node(cfg)
    assert rows1 == rows2
    assert len(rows1) == 2
    assert all(0.0 <= r["wrong_pct"] <= 100.0 for r in rows1)
    # the table's cell (0.9, 100), drawn alone at its cell seed, scores the same
    cell_seed = derive_seed(cfg.seed, splitmix64(1 * 1009 + 0))
    cell = (100, Bernoulli((0.9, 1.0)), cell_seed)
    [gains] = monte_carlo(two_node_net(), [cell], 40, spurious_edge_gain, 2)
    [fraction] = two_node_wrong_fraction(gains, 100, [AIC], 40)
    assert 100.0 * fraction == rows1[1]["wrong_pct"]


def test_run_recovery_smoke():
    cfg = ExperimentConfig(
        net="eight-node",
        sample_sizes=(500,),
        penalties=("a0.3",),
        missingness=("kper:1",),
        replicates=3,
        seed=9,
    )
    rows = run_recovery(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row["true_df"] == 47
    assert 0.0 <= row["mean_f"] <= 1.0
    assert 0.0 <= row["recovery_rate"] <= 1.0


def test_run_recovery_parallel_matches_serial(monkeypatch):
    cfg = ExperimentConfig(
        net="eight-node",
        sample_sizes=(300,),
        penalties=("bic",),
        missingness=("none",),
        replicates=4,
        seed=13,
    )
    serial = run_recovery(cfg)
    pools = force_pools(monkeypatch)
    assert run_recovery(cfg) == serial and len(pools) == 1


def test_a_recovery_config_reads_its_net_from_a_file(tmp_path):
    path = tmp_path / "net.json"
    save_net(two_node_net(), path)
    fields = dict(sample_sizes=(50,), penalties=("bic",), missingness=("kper:1",),
                  replicates=3, seed=7)
    rows = run_recovery(ExperimentConfig(net=str(path), **fields))
    assert rows == run_recovery(ExperimentConfig(net="two-node", **fields)) and len(rows) == 1


@pytest.fixture
def opened_pools(monkeypatch):
    """The keyword arguments of every process pool the harness opens, with two
    usable CPUs and no floor."""
    return force_pools(monkeypatch)


def test_recovery_opens_one_pool_per_run(opened_pools):
    cfg = ExperimentConfig(
        sample_sizes=(50, 100),
        penalties=("bic",),
        missingness=("none", "bernoulli:0.9"),
        replicates=2,
        seed=3,
    )
    rows = run_recovery(cfg)
    assert len(rows) == 4 and [kwargs["max_workers"] for kwargs in opened_pools] == [2]


@pytest.mark.parametrize("mode", ["two-node", "rates", "recovery"])
def test_each_run_opens_one_pool(opened_pools, tmp_path, mode):
    # one pool serves every (beta, n) cell of the table and every regime of the
    # probe and of recovery; the table masks through betas and refuses missingness
    config_path = tmp_path / "config.json"
    regimes = {"missingness": ["none", "bernoulli:0.9,1"]} if mode != "two-node" else {}
    config_path.write_text(json.dumps({
        "sample_sizes": [50, 100], "betas": [1.0, 0.9], "penalties": ["bic"], "replicates": 3,
        "seed": 3, **regimes,
    }))
    argv = ["experiment", "--config", str(config_path), "--mode", mode, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert [kwargs["max_workers"] for kwargs in opened_pools] == [2]


def test_run_rate_probe_slopes_and_grid():
    cfg = ExperimentConfig(
        sample_sizes=(100, 1000),
        replicates=60,
        seed=17,
        missingness=("none",),
    )
    rows = run_rate_probe(cfg)
    assert all(r["sd"] > 0 for r in rows)
    assert rows[0]["slope"] < -0.5  # complete data decays faster than root-n
    with pytest.raises(InsufficientGrid):
        run_rate_probe(ExperimentConfig(sample_sizes=(100,), replicates=10, seed=1))
    with pytest.raises(ConfigError):  # one n twice is no slope either
        run_rate_probe(ExperimentConfig(sample_sizes=(100, 100), replicates=10, seed=1))
    with pytest.raises(InsufficientGrid):  # one replicate has no sd
        run_rate_probe(ExperimentConfig(sample_sizes=(100, 1000), replicates=1, seed=1))


@pytest.mark.parametrize("net", ["eight-node", "nets/two-node.json"])
def test_rate_probe_runs_on_the_two_node_net_alone(monkeypatch, net):
    monkeypatch.setattr(nalearn.experiments, "monte_carlo", None)  # refused before sampling
    with pytest.raises(ConfigError, match=f"two-node net only, got '{net}'"):
        run_rate_probe(ExperimentConfig(net=net, sample_sizes=(100, 200), replicates=2))


@pytest.mark.parametrize("fields, message", [
    # X1 unobserved in both records of some replicate: the gain is -inf
    ({"sample_sizes": (2, 100), "missingness": ("bernoulli:0.3,1",)},
     r"bernoulli\(p=\[0.3, 1.0\]\) at n = 2 some replicate never observes"),
    # one record: both NALs are 0 in every replicate
    ({"sample_sizes": (1, 2), "missingness": ("none",)},
     "complete at n = 1 the gain does not vary"),
])
def test_rate_probe_refuses_a_cell_without_a_finite_sd(fields, message):
    with pytest.raises(InsufficientGrid, match=message):
        run_rate_probe(ExperimentConfig(replicates=20, seed=1, **fields))


@pytest.mark.parametrize("runner, fields", [
    (run_recovery, {"penalties": ("bic", "a0.x")}),
    (run_recovery, {"missingness": ("none", "kper:8")}),
    (run_rate_probe, {"missingness": ("none", "bernoulli:2")}),
    (run_recovery, {"max_parents": -1}),
    (run_recovery, {"order": (0, 0, 1, 2, 3, 4, 5, 6)}),
    (run_recovery, {"order": (1, 0)}),  # a permutation, but of two nodes
    # regimes that never observe X1 and X2 together
    (run_rate_probe, {"missingness": ("none", "kper:1")}),
    (run_rate_probe, {"missingness": ("bernoulli:1,0",)}),
    (run_rate_probe, {"missingness": ("bernoulli:0",)}),
    # specs that repeat a CSV label
    (run_two_node, {"penalties": ("bic", "bic")}),
    (run_recovery, {"penalties": ("a0.3", "a0.3")}),
    (run_recovery, {"missingness": ("none", "none")}),
    (run_rate_probe, {"missingness": ("kper:0", "kper:0")}),
    # specs that give one model under two labels
    (run_two_node, {"penalties": ("a0.5", "a0.50")}),
    (run_two_node, {"penalties": ("a0.8", "a0.8c0.5")}),
    (run_recovery, {"penalties": ("bic", "a0.3c0.125", "a0.3")}),
    (run_recovery, {"missingness": ("bernoulli:0.5", ",".join(["bernoulli:0.5"] + ["0.5"] * 7))}),
    (run_rate_probe, {"missingness": ("bernoulli:0.5,0.5", "bernoulli:0.5")}),
    (run_rate_probe, {"missingness": ("bernoulli:0.9", "bernoulli:0.90")}),
    (run_two_node, {"penalties": (power_law(0.5, 0.8), "a0.8")}),
    # a repeated n or beta would write rows that share a key
    (run_two_node, {"sample_sizes": (100, 100)}),
    (run_two_node, {"betas": (0.9, 0.9)}),
    (run_recovery, {"sample_sizes": (50, 50)}),
    # an infinite power-law coefficient would give lambda_n = inf
    (run_two_node, {"penalties": ("a0.5cinf",)}),
    (run_two_node, {"penalties": ("a0.5c1e400",)}),
    # a spec that is not a string
    (run_two_node, {"penalties": ({"kind": "bic"},)}),
    (run_recovery, {"missingness": ({"mode": "none"},)}),
])
def test_bad_spec_raises_before_sampling(monkeypatch, runner, fields):
    import nalearn.experiments

    def no_sampling(*args):
        raise AssertionError("sampled before every spec was parsed")

    monkeypatch.setattr(nalearn.experiments, "forward_sample", no_sampling)
    net = "eight-node" if runner is run_recovery else "two-node"
    cfg = ExperimentConfig(**{"net": net, "sample_sizes": (50, 100), "replicates": 2, "seed": 1,
                              **fields})
    with pytest.raises(ConfigError):
        runner(cfg)


def test_check_two_node_accepts_reference_itself():
    from nalearn.experiments import TWO_NODE_REFERENCE

    rows = [
        {"beta": beta, "n": n, "penalty": pen.label(2), "wrong_pct": pct, "mc_se": 0.0}
        for (beta, n, pen), pct in TWO_NODE_REFERENCE.items()
    ]
    assert check_two_node(rows) == []


def test_check_two_node_flags_outliers():
    rows = [{"beta": 1.0, "n": 100, "penalty": "aic", "wrong_pct": 90.0, "mc_se": 1.0}]
    assert check_two_node(rows) != []


def test_check_two_node_allows_a_zero_reference_half_a_percent():
    # the reference reads 0.0 at beta 1, n 100, a0.2
    row = {"beta": 1.0, "n": 100, "penalty": "a0.2", "wrong_pct": 0.5, "mc_se": 0.0}
    assert check_two_node([row]) == []
    assert check_two_node([{**row, "wrong_pct": 0.6}]) == [
        "(1.0, 100, 'a0.2'): expected ~0, measured 0.60%"]


def test_check_two_node_matches_rows_by_penalty():
    # the reference's a0.8 at N = 2 has coefficient 1/2, however the label writes it
    for label in ["a0.8", "a0.80", "a0.8c0.5"]:
        row = {"beta": 1.0, "n": 100, "penalty": label, "wrong_pct": 90.0, "mc_se": 1.0}
        assert len(check_two_node([row])) == 1, label
        assert check_two_node([{**row, "wrong_pct": 10.6}]) == [], label
    # another coefficient is another penalty, which the reference does not hold
    assert check_two_node([{"beta": 1.0, "n": 100, "penalty": "a0.8c0.25",
                            "wrong_pct": 90.0, "mc_se": 1.0}]) == []
    with pytest.raises(ConfigError):  # every label a runner writes parses
        check_two_node([{"beta": 1.0, "n": 100, "penalty": "power(c=0.5,a=0.8)",
                         "wrong_pct": 90.0, "mc_se": 1.0}])


def test_write_rows_format(tmp_path):
    rows = [
        {"beta": 1.0, "n": 100, "penalty": "aic", "wrong_pct": 16.0, "mc_se": 1.2},
        {"beta": 0.9, "n": 100, "penalty": "bic", "wrong_pct": 4.5, "mc_se": 0.7},
    ]
    path = tmp_path / "table1.csv"
    write_rows(rows, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "beta,n,penalty,wrong_pct,mc_se"
    assert len(lines) == 3
    write_rows(rows, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == text


_PENALTIES = ["a0.2", "a0.3", "a0.4", "a0.5", "a0.6", "a0.7", "a0.8", "bic", "aic"]
_RECOVERY8 = {"net": "eight-node", "sample_sizes": [200, 500],
              "missingness": ["none", "kper:1"],
              "penalties": ["bic", "a0.3"], "replicates": 3, "seed": 7}
_RECOVERY2 = {"net": "two-node", "sample_sizes": [100, 400],
              "missingness": ["none", "bernoulli:0.9"],
              "penalties": ["aic", "bic"], "replicates": 5, "seed": 9}
_TABLE_DIGEST = "ec160256ddf49a8c7db9085752575d010be8a0ef8097a742dec8d2183397b74a"
_RATES_DIGEST = "6eb25d1242ffb70ff30fe5da5c34cc5fb583447af1e1a3efb0a2179b456ff896"
_RECOVERY8_DIGEST = "96b88d2efb608e6b28742ec3dcb6fdddd4165ee507a932d00aad0e84423c2053"
_RECOVERY2_DIGEST = "66f9329aafa187731442a4fa6d80b460f772a347cc00ed590412f1e6d16d8ecb"


_TABLE = {"sample_sizes": [100, 1000], "betas": [1.0, 0.9, 0.75], "penalties": _PENALTIES,
          "replicates": 30, "seed": 3}
_RATES = {"sample_sizes": [50, 200, 800], "replicates": 20, "seed": 5,
          "missingness": ["none", "bernoulli:0.75,1"]}


_CSV = {"two-node": "table1.csv", "rates": "rates.csv", "recovery": "recovery.csv"}


def run_pinned(tmp_path, mode, config) -> str:
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["experiment", "--config", str(config_path), "--mode", mode, "--out", str(tmp_path)]
    assert main(argv) == 0
    return hashlib.sha256((tmp_path / _CSV[mode]).read_bytes()).hexdigest()


# Taken before the runners shared one replicate driver; a change to the random
# stream, the seed schedule or the statistics changes them. Every replicate has
# its own seed, so the worker count leaves the CSV as it is: "jobs1" runs on
# one usable CPU, serially, and "jobs2" on two with no floor, in one pool of
# two workers per run.
@pytest.mark.parametrize("mode, workers, config, digest", [
    ("two-node", 1, _TABLE, _TABLE_DIGEST),
    ("rates", 1, _RATES, _RATES_DIGEST),
    ("recovery", 1, _RECOVERY8, _RECOVERY8_DIGEST),
    ("recovery", 2, _RECOVERY8, _RECOVERY8_DIGEST),
    ("recovery", 1, _RECOVERY2, _RECOVERY2_DIGEST),
    ("recovery", 2, _RECOVERY2, _RECOVERY2_DIGEST),
    ("two-node", 2, _TABLE, _TABLE_DIGEST),
    ("rates", 2, _RATES, _RATES_DIGEST),
], ids=["table", "rates", "recovery8-jobs1", "recovery8-jobs2", "recovery2-jobs1",
        "recovery2-jobs2", "table-jobs2", "rates-jobs2"])
def test_harness_outputs_are_pinned(tmp_path, monkeypatch, mode, workers, config, digest):
    pools = force_pools(monkeypatch, workers)
    assert run_pinned(tmp_path, mode, config) == digest
    assert [kwargs["max_workers"] for kwargs in pools] == ([2] if workers == 2 else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failure", ["no pool", "workers die"])
def test_monte_carlo_falls_back_to_serial_when_the_pool_fails(tmp_path, monkeypatch, failure):
    force_pools(monkeypatch)
    if failure == "no pool":
        monkeypatch.setattr(nalearn.pool, "ProcessPoolExecutor", fail_to_fork)
    else:  # every worker exits in its initializer: BrokenProcessPool
        monkeypatch.setattr(nalearn.pool, "_start_worker", exit_at_once)
    assert run_pinned(tmp_path, "two-node", _TABLE) == _TABLE_DIGEST
    assert multiprocessing.active_children() == []
