"""Monte Carlo harness: config handling, determinism and small-scale runs."""

import io

import pytest

from nalearn import AIC, BIC, Penalty, power_law
from nalearn.errors import ConfigError, InsufficientGrid
from nalearn.experiments import (
    ExperimentConfig,
    check_two_node,
    config_from_dict,
    penalty_label,
    resolve_net,
    run_rate_probe,
    run_recovery,
    run_two_node,
    two_node_wrong_fraction,
    write_rows,
)
from nalearn.sampling import Bernoulli, KPerRecord, parse_missingness
from nalearn.scoring import parse_penalty


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        config_from_dict({"nett": "two-node"})


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"replicates": 0})
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
    q = parse_penalty({"kind": "power", "alpha": 0.4, "coef": 0.25}, 2)
    assert q == power_law(0.25, 0.4)
    assert parse_penalty({"alpha": 0.4, "coef": None}, 4) == power_law(0.25, 0.4)
    assert parse_penalty({"kind": "bic", "alpha": 0.5}, 2) == BIC
    assert parse_penalty(AIC, 2) is AIC
    for bad in ["mdl", "a0.x", "a1.5", "power", {"kind": "power"},
                {"alpha": 0.3, "coeff": 1.0}, {"alpha": 0.3, "coef": 0}, 0.3]:
        with pytest.raises(ConfigError, match="penalty spec"):
            parse_penalty(bad, 2)


def test_penalty_labels():
    assert penalty_label("a0.3") == "a0.3"
    assert penalty_label("bic") == "bic"


def test_resolve_net_and_parse_missingness():
    assert resolve_net("two-node").num_nodes == 2
    assert resolve_net("eight-node").num_nodes == 8
    assert parse_missingness({"mode": "none"}, 2) is None
    assert parse_missingness("none", 2) is None
    m = parse_missingness({"mode": "bernoulli", "p": 0.75}, 2)
    assert m == Bernoulli((0.75, 0.75))
    assert parse_missingness("bernoulli:0.75", 2) == m
    assert parse_missingness("bernoulli:0.5,1", 2) == Bernoulli((0.5, 1.0))
    assert parse_missingness({"mode": "bernoulli", "p": [0.5, 1]}, 2) == Bernoulli((0.5, 1.0))
    assert parse_missingness({"mode": "kper", "k": 2}, 8) == KPerRecord(2)
    assert parse_missingness("kper:0", 2) == KPerRecord(0)
    for bad in [{"mode": "mar"}, "mar", "kper:x", "kper:2", "kper:-1", {"mode": "kper", "k": 1.5},
                {"mode": "kper"}, "bernoulli:abc", "bernoulli:2", "bernoulli:0.5,0.5,0.5",
                {"mode": "bernoulli", "k": 1}, "none:3", ["none"]]:
        with pytest.raises(ConfigError, match="missingness spec"):
            parse_missingness(bad, 2)


def test_two_node_wrong_fraction_extremes():
    # alpha = 0.2 with complete data: wrong selections are (near) impossible
    fractions = two_node_wrong_fraction(
        1.0, 1000, [parse_penalty("a0.2", 2)], replicates=50, seed=11
    )
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


def test_run_recovery_smoke():
    cfg = ExperimentConfig(
        net="eight-node",
        sample_sizes=(500,),
        penalties=("a0.3",),
        missingness=({"mode": "kper", "k": 1},),
        replicates=3,
        seed=9,
    )
    rows = run_recovery(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row["true_df"] == 47
    assert 0.0 <= row["mean_f"] <= 1.0
    assert 0.0 <= row["recovery_rate"] <= 1.0


def test_run_recovery_parallel_matches_serial():
    cfg = ExperimentConfig(
        net="eight-node",
        sample_sizes=(300,),
        penalties=("bic",),
        missingness=({"mode": "none"},),
        replicates=4,
        seed=13,
    )
    assert run_recovery(cfg, jobs=1) == run_recovery(cfg, jobs=2)


def test_run_rate_probe_slopes_and_grid():
    cfg = ExperimentConfig(
        sample_sizes=(100, 1000),
        replicates=60,
        seed=17,
        missingness=({"mode": "none"},),
    )
    rows = run_rate_probe(cfg)
    assert all(r["sd"] > 0 for r in rows)
    assert rows[0]["slope"] < -0.5  # complete data decays faster than root-n
    with pytest.raises(InsufficientGrid):
        run_rate_probe(ExperimentConfig(sample_sizes=(100,), replicates=10, seed=1))
    with pytest.raises(InsufficientGrid):  # one replicate has no sd
        run_rate_probe(ExperimentConfig(sample_sizes=(100, 1000), replicates=1, seed=1))


@pytest.mark.parametrize("runner, fields", [
    (run_recovery, {"penalties": ("bic", "a0.x")}),
    (run_recovery, {"missingness": ({"mode": "none"}, {"mode": "kper", "k": 8})}),
    (run_rate_probe, {"missingness": ({"mode": "none"}, {"mode": "bernoulli", "p": 2.0})}),
    (run_recovery, {"max_parents": -1}),
    (run_recovery, {"order": (0, 0, 1, 2, 3, 4, 5, 6)}),
    (run_recovery, {"order": (1, 0)}),  # a permutation, but of two nodes
])
def test_bad_spec_raises_before_sampling(monkeypatch, runner, fields):
    import nalearn.experiments

    def no_sampling(*args):
        raise AssertionError("sampled before every spec was parsed")

    monkeypatch.setattr(nalearn.experiments, "forward_sample", no_sampling)
    net = "eight-node" if runner is run_recovery else "two-node"
    cfg = ExperimentConfig(net=net, sample_sizes=(50, 100), replicates=2, seed=1, **fields)
    with pytest.raises(ConfigError):
        runner(cfg)


def test_check_two_node_accepts_reference_itself():
    from nalearn.experiments import TWO_NODE_REFERENCE

    rows = [
        {"beta": beta, "n": n, "penalty": pen, "wrong_pct": pct, "mc_se": 0.0}
        for (beta, n, pen), pct in TWO_NODE_REFERENCE.items()
    ]
    assert check_two_node(rows) == []


def test_check_two_node_flags_outliers():
    rows = [{"beta": 1.0, "n": 100, "penalty": "aic", "wrong_pct": 90.0, "mc_se": 1.0}]
    assert check_two_node(rows) != []


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
