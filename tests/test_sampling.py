"""Forward sampling, MCAR masking and seed derivation."""

import hashlib
import math

import numpy as np
import pytest

from nalearn import (
    MISSING,
    BayesNet,
    Bernoulli,
    Cpt,
    Dag,
    Dataset,
    KPerRecord,
    Variable,
    apply_mcar,
    derive_seed,
    eight_node_net,
    forward_sample,
    joint_distribution,
    splitmix64,
    subset_observation_probability,
    two_node_net,
)

from util import random_cpt, random_dataset, random_net


def deterministic_chain():
    variables = [Variable("X1", 2), Variable("X2", 2)]
    cpt = Cpt([np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]])])
    return BayesNet(variables, Dag([[], [0]]), cpt)


def test_forward_sample_empty():
    data = forward_sample(two_node_net(), 0, seed=1)
    assert data.num_records == 0
    assert data.num_variables == 2


def test_forward_sample_marginal():
    data = forward_sample(two_node_net(), 100_000, seed=42)
    frac = float(np.mean(data.values[:, 0] == 0))
    assert abs(frac - 0.4) <= 0.005


def test_forward_sample_deterministic_chain():
    data = forward_sample(deterministic_chain(), 500, seed=7)
    np.testing.assert_array_equal(data.values[:, 0], data.values[:, 1])


def test_forward_sample_reproducible():
    a = forward_sample(two_node_net(), 1000, seed=5)
    b = forward_sample(two_node_net(), 1000, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    c = forward_sample(two_node_net(), 1000, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_forward_sample_joint_total_variation():
    net = two_node_net()
    data = forward_sample(net, 100_000, seed=19)
    joint = joint_distribution(net)
    codes = data.values[:, 0] * 2 + data.values[:, 1]
    empirical = np.bincount(codes, minlength=4) / data.num_records
    tv = 0.5 * np.abs(empirical - joint).sum()
    assert tv < 0.02


def test_apply_mcar_identity():
    data = forward_sample(two_node_net(), 200, seed=3)
    out = apply_mcar(data, Bernoulli((1.0, 1.0)), seed=4)
    np.testing.assert_array_equal(out.values, data.values)


def test_apply_mcar_never_alters_observed_values():
    data = forward_sample(two_node_net(), 500, seed=8)
    out = apply_mcar(data, Bernoulli((0.5, 0.5)), seed=9)
    observed = out.values != MISSING
    np.testing.assert_array_equal(out.values[observed], data.values[observed])


def test_apply_mcar_bernoulli_rate():
    data = forward_sample(two_node_net(), 100_000, seed=12)
    out = apply_mcar(data, Bernoulli((0.75, 1.0)), seed=13)
    frac = float(np.mean(out.values[:, 0] == MISSING))
    assert abs(frac - 0.25) <= 0.005
    assert not np.any(out.values[:, 1] == MISSING)


def test_apply_mcar_kper_exact_counts():
    variables = [Variable(f"X{i}", 2) for i in range(5)]
    rng = np.random.default_rng(1)
    data = random_dataset(variables, 400, rng)
    for k in (0, 2, 4):
        out = apply_mcar(data, KPerRecord(k), seed=99)
        per_record = (out.values == MISSING).sum(axis=1)
        assert np.all(per_record == k)


def test_apply_mcar_kper_one_observed_cell():
    variables = [Variable(f"X{i}", 2) for i in range(4)]
    rng = np.random.default_rng(2)
    data = random_dataset(variables, 100, rng)
    out = apply_mcar(data, KPerRecord(3), seed=5)
    assert np.all((out.values != MISSING).sum(axis=1) == 1)


def test_apply_mcar_composes():
    variables = [Variable(f"X{i}", 2) for i in range(3)]
    rng = np.random.default_rng(3)
    data = random_dataset(variables, 200, rng, missing_frac=0.2)
    before = data.values == MISSING
    out = apply_mcar(data, Bernoulli((0.8, 0.8, 0.8)), seed=21)
    assert np.all((out.values == MISSING)[before])


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_bernoulli_mask_equals_putmask_over_missing_cells(p):
    """The mask takes each dropped cell's maximum with q; writing q with
    putmask where the uniform is >= p gives the same codes."""
    variables = [Variable(f"X{i}", q) for i, q in enumerate([2, 3, 5, 4])]
    data = random_dataset(variables, 300, np.random.default_rng(4), missing_frac=0.3)
    assert (data.codes == data.radix[:, None] - 1).any()
    out = apply_mcar(data, Bernoulli([p] * 4), seed=6)
    expect = data.codes.copy()
    u = np.random.default_rng(6).random((300, 4))
    for i in range(4):
        np.putmask(expect[i], u[:, i] >= p, data.radix[i] - 1)
    assert out.codes.dtype == expect.dtype
    np.testing.assert_array_equal(out.codes, expect)


def test_subset_observation_probability_paper_values():
    assert math.isclose(subset_observation_probability(37, 1, 3), 34 / 37)
    assert abs(subset_observation_probability(37, 2, 3) - 0.8423) < 5e-4
    assert abs(subset_observation_probability(37, 4, 3) - 0.7022) < 5e-4


def test_subset_observation_probability_edges():
    assert subset_observation_probability(5, 0, 3) == 1.0
    assert subset_observation_probability(5, 2, 3) == pytest.approx(1 / math.comb(5, 3))
    assert subset_observation_probability(5, 3, 3) == 0.0


def test_splitmix64_known_vector():
    # reference output of the splitmix64 sequence seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_derive_seed_order_independent():
    base = 123456789
    seeds = [derive_seed(base, i) for i in range(10)]
    assert len(set(seeds)) == 10
    assert derive_seed(base, 3) == seeds[3]


def test_bernoulli_validates_probs():
    with pytest.raises(ValueError):
        Bernoulli((1.2, 0.5))
    with pytest.raises(ValueError):
        KPerRecord(-1)


# ---------------------------------------------------------------------------
# The record sampler's random stream
# ---------------------------------------------------------------------------


def _old_forward_sample(net: BayesNet, n: int, seed: int) -> Dataset:
    """The row-major sampler the column kernel replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    N = net.num_nodes
    vals = np.zeros((n, N), dtype=np.int16)
    if n == 0:
        return Dataset(net.variables, vals)
    order = net.dag.topological_order()
    u = rng.random((n, N))
    for i in order:
        table = net.cpt.tables[i]  # (q_pa, q_i)
        parents = net.dag.parents[i]
        if parents:
            j = np.zeros(n, dtype=np.int64)
            for p in parents:
                j = j * net.variables[p].cardinality + vals[:, p]
            cum = np.cumsum(table, axis=1)
            rows = cum[j]
        else:
            rows = np.broadcast_to(np.cumsum(table[0]), (n, table.shape[1]))
        # inverse-CDF draw per record
        vals[:, i] = (u[:, i][:, None] >= rows).sum(axis=1).astype(np.int16)
        np.minimum(vals[:, i], net.variables[i].cardinality - 1, out=vals[:, i])
    return Dataset(net.variables, vals)


def _old_apply_mcar(data: Dataset, model, seed: int) -> Dataset:
    """The row-major masking the column kernel replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    n, N = data.values.shape
    vals = data.values.copy()
    if isinstance(model, Bernoulli):
        p = np.asarray(model.observe_probs)
        drop = rng.random((n, N)) >= p[None, :]
        vals[drop] = MISSING
    elif model.k > 0 and n > 0:
        keys = rng.random((n, N))
        idx = np.argpartition(keys, model.k - 1, axis=1)[:, : model.k]
        vals[np.arange(n)[:, None], idx] = MISSING
    return Dataset(data.variables, vals)


def _assert_same_records(new: Dataset, old: Dataset):
    assert new.values.dtype == old.values.dtype == np.int16
    assert np.array_equal(new.values, old.values)
    assert new.codes.dtype == old.codes.dtype and np.array_equal(new.codes, old.codes)


def _edge_case_net(rng) -> BayesNet:
    """A random net whose CPT rows have zero entries or end a few ulps below 1."""
    net = random_net(5, rng, max_card=4, max_parents=3)
    tables = []
    for table in net.cpt.tables:
        table = table.copy()
        for row in table:
            kind = rng.integers(3)
            if kind == 0:  # zero entries anywhere in the row
                zeros = rng.random(len(row)) < 0.5
                zeros[rng.integers(len(row))] = False
                row[zeros] = 0.0
                row /= row.sum()
            elif kind == 1:  # a cumulative sum that stops short of 1
                row[-1] = max(1.0 - row[:-1].sum() - 1e-13, 0.0)
        tables.append(table)
    return BayesNet(net.variables, net.dag, Cpt(tables))


def _reversed_net(net: BayesNet, rng) -> BayesNet:
    """A net on the reversed node labels, so that parents follow their children."""
    N = net.num_nodes
    variables = net.variables[::-1]
    dag = Dag([[N - 1 - p for p in net.dag.parents[N - 1 - i]] for i in range(N)])
    return BayesNet(variables, dag, random_cpt(dag, variables, rng))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_column_kernels_match_the_row_oracle(n):
    rng = np.random.default_rng(20261018 + n)
    nets = [two_node_net(), eight_node_net(), deterministic_chain()]
    for _ in range(12):
        net = random_net(int(rng.integers(2, 7)), rng, max_card=4, max_parents=3)
        nets += [net, _reversed_net(net, rng), _edge_case_net(rng)]
    for net in nets:
        seed = int(rng.integers(1 << 63))
        new, old = forward_sample(net, n, seed), _old_forward_sample(net, n, seed)
        _assert_same_records(new, old)
        N = net.num_nodes
        models = [Bernoulli((0.7,) * N), Bernoulli(rng.random(N).round(2)),
                  Bernoulli((1.0,) * N), Bernoulli((0.0,) + (1.0,) * (N - 1))]
        models += [KPerRecord(k) for k in range(N)]
        for model in models:
            _assert_same_records(apply_mcar(new, model, seed + 1),
                                 _old_apply_mcar(old, model, seed + 1))
        # masking composes on an already masked, row-major dataset too
        masked = _old_apply_mcar(old, Bernoulli((0.8,) * N), seed + 2)
        for model in (Bernoulli((0.5,) * N), KPerRecord(N - 1)):
            _assert_same_records(apply_mcar(masked, model, seed + 3),
                                 _old_apply_mcar(masked, model, seed + 3))


def test_forward_sample_indexes_more_than_256_parent_configurations():
    # uint8 codes, but a CPT row index runs past 255: it is formed in intp
    rng = np.random.default_rng(7)
    variables = [Variable(f"X{i}", 2) for i in range(10)]
    dag = Dag([[]] * 9 + [list(range(9))])
    net = BayesNet(variables, dag, random_cpt(dag, variables, rng))
    _assert_same_records(forward_sample(net, 2000, 5), _old_forward_sample(net, 2000, 5))


class _ReplayedUniforms:
    """Stands in for a numpy Generator: random(shape) returns the given block."""

    def __init__(self, block):
        self.block = block

    def random(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


def test_column_kernels_match_the_oracle_on_the_bounds(monkeypatch):
    # uniforms on, just beside and past every cumulative bound: the float
    # compares and the cap at q - 1 are hit exactly, not by chance
    variables = [Variable("A", 3), Variable("B", 4)]
    deficit = 1e-13  # rows end this far below 1, inside the row-sum tolerance
    cpt = Cpt([np.array([[0.25, 0.0, 0.75 - deficit]]),
               np.array([[0.0, 0.5, 0.5 - deficit, 0.0], [0.1, 0.2, 0.3, 0.4],
                         [0.0, 0.0, 0.0, 1.0]])])
    net = BayesNet(variables, Dag([[], [0]]), cpt)
    bounds = np.concatenate([np.cumsum(t, axis=1).ravel() for t in cpt.tables] + [[0.7, 0.9]])
    near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0)])
    values = np.unique(np.clip(np.append(near, [1.0 - deficit / 2, np.nextafter(1.0, 0.0)]),
                               0.0, np.nextafter(1.0, 0.0)))
    rng = np.random.default_rng(3)
    blocks = [rng.choice(values, size=(3000, 2)) for _ in range(3)]

    def replayed(sample, mcar):
        replay = iter(blocks)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ReplayedUniforms(next(replay)))
        data = sample(net, 3000, 0)
        return [data, mcar(data, Bernoulli((0.7, 0.9)), 0), mcar(data, KPerRecord(1), 0)]

    expected = replayed(_old_forward_sample, _old_apply_mcar)
    for new, old in zip(replayed(forward_sample, apply_mcar), expected):
        _assert_same_records(new, old)
    past_the_last_bound = blocks[0][:, 0] >= 1.0 - deficit
    assert past_the_last_bound.any() and np.all(expected[0].values[past_the_last_bound, 0] == 2)


def _stream_digest(net: BayesNet, masks, seed: int) -> str:
    """sha256 of forward_sample at `seed`, then of each mask at a seed derived from it."""
    h = hashlib.sha256()
    data = forward_sample(net, 1000, seed)
    h.update(data.values.astype("<i2").tobytes())
    for index, model in enumerate(masks, start=1):
        h.update(apply_mcar(data, model, derive_seed(seed, index)).values.astype("<i2").tobytes())
    return h.hexdigest()


# Taken with the row-major sampler; a change to the record stream changes them.
STREAM_DIGESTS = {
    ("two-node", 1): "eeeaa2f38785128153dd512580baa6c30af7deba46a772b0668120103b97a69c",
    ("two-node", 20240901): "102af3376095c30de1124f3e64d871636f3a39c27424019ce710befe1ec7b110",
    ("two-node", 2**63 + 12345): "d63a043e7c354eb33c404e8adbbbe185b58edbb97885a339ca2395cc49b85e57",
    ("eight-node", 1): "62230256c359f46d5648ad59c143c7146625085cf2d987cb079ba591b3ce0903",
    ("eight-node", 20240901): "1e977fb4c6504b4ad74870fc02ab1d97f473b7d8c2a11429b4b91c1ae40827f8",
    ("eight-node", 2**63 + 12345): "ba1dee3af1ef1f7971cb28cc0590f8e0f70f8a1b7c2f92bca957a3d1e7b03c00",
}


@pytest.mark.parametrize("net_name, seed", sorted(STREAM_DIGESTS))
def test_record_stream_is_pinned(net_name, seed):
    net, masks = {
        "two-node": (two_node_net(), [Bernoulli((0.9, 1.0)), KPerRecord(1)]),
        "eight-node": (eight_node_net(), [Bernoulli((0.9, 0.8, 1.0, 0.7, 0.95, 1.0, 0.6, 0.85)),
                                          KPerRecord(2)]),
    }[net_name]
    assert _stream_digest(net, masks, seed) == STREAM_DIGESTS[net_name, seed]
