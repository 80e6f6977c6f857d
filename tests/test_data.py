"""Datasets, sufficient counts and the CSV format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalearn import (
    MISSING,
    Bernoulli,
    Dataset,
    Variable,
    apply_mcar,
    count_sufficient_stats,
    forward_sample,
    read_csv,
    two_node_net,
    write_csv,
)
from nalearn.data import STATE_SPACE_CAP, count_families
from nalearn.errors import IndexOutOfRange, SchemaMismatch, StateSpaceTooLarge
from nalearn.population import induced_theta_mcar
from nalearn.scoring import NEG_INFINITY, node_nal_from_counts

from util import random_dataset

BIN2 = [Variable("X1", 2), Variable("X2", 2)]
FOUR = Dataset(BIN2, [(0, 0), (0, 1), (1, 1), (1, 1)])


def brute_force_counts(data, node, parents):
    """Independent O(n*q) tally used as the oracle for the vectorized counts."""
    q_i = data.variables[node].cardinality
    q_parents = [data.variables[p].cardinality for p in parents]
    q_pa = int(np.prod(q_parents)) if parents else 1
    n_ikj = np.zeros((q_i, q_pa), dtype=np.int64)
    for row in data.values:
        if row[node] == MISSING or any(row[p] == MISSING for p in parents):
            continue
        j = 0
        for p, q in zip(parents, q_parents):
            j = j * q + int(row[p])
        n_ikj[int(row[node]), j] += 1
    return n_ikj


def test_counts_hand_case_with_parent():
    c = count_sufficient_stats(FOUR, 1, [0])
    assert c.n_i == 4
    np.testing.assert_array_equal(c.n_ij, [2, 2])
    np.testing.assert_array_equal(c.n_ikj, [[1, 0], [1, 2]])


def test_counts_hand_case_no_parent():
    c = count_sufficient_stats(FOUR, 1, [])
    assert c.n_i == 4
    np.testing.assert_array_equal(c.n_ij, [4])
    np.testing.assert_array_equal(c.n_ikj, [[1], [3]])


def test_counts_fully_missing_column():
    data = Dataset(BIN2, [(MISSING, 0), (MISSING, 1)])
    c = count_sufficient_stats(data, 1, [0])
    assert c.n_i == 0
    assert c.n_ij.sum() == 0
    assert c.n_ikj.sum() == 0


def test_counts_index_errors():
    with pytest.raises(IndexOutOfRange):
        count_sufficient_stats(FOUR, 5, [])
    with pytest.raises(IndexOutOfRange):
        count_sufficient_stats(FOUR, 1, [1])
    with pytest.raises(IndexOutOfRange):  # a repeat would count X1's states twice
        count_sufficient_stats(FOUR, 1, [0, 0])


def test_count_families_index_errors():
    data = Dataset([Variable(f"X{i}", 2) for i in range(4)], [(0, 1, 0, 1)] * 3)
    for node, families in [(4, [(0,)]), (3, [()]), (3, [(0,), (5,)]), (3, [(3,)]),
                           (3, [(1, 0)]), (3, [(0, 0)])]:
        with pytest.raises(IndexOutOfRange):
            list(count_families(data, node, families))
    for families in [[(1,), (0,)], [(0,), (0,)], [(0, 2), (0, 1)]]:
        with pytest.raises(ValueError, match="lexicographic"):
            list(count_families(data, 3, families))


def test_oversized_count_table_is_refused_before_it_is_allocated():
    variables = [Variable(f"X{i}", 300) for i in range(3)]
    assert 301**3 > STATE_SPACE_CAP >= 301**2
    data = Dataset(variables, [(0, 1, 2), (MISSING, 299, 5)])
    data.codes, data.radix  # built before tracing
    tracemalloc.start()
    try:
        assert count_sufficient_stats(data, 2, [0]).n_i == 1  # 301^2 cells: allowed
        tracemalloc.reset_peak()
        with pytest.raises(StateSpaceTooLarge, match="exceeds the cap"):
            count_sufficient_stats(data, 2, [0, 1])
        with pytest.raises(StateSpaceTooLarge, match="exceeds the cap"):
            next(count_families(data, 2, [(0,), (1,), (0, 1)]))  # before the first chunk
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the refused table alone would take 218 MB


def test_theta_i_is_one_on_complete_data():
    c = count_sufficient_stats(FOUR, 0, [])
    assert c.n_i / c.n == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 40), st.floats(0.0, 0.6))
def test_count_consistency_property(seed, n, missing_frac):
    rng = np.random.default_rng(seed)
    variables = [Variable(f"X{i}", int(rng.integers(2, 4))) for i in range(4)]
    data = random_dataset(variables, n, rng, missing_frac)
    node = int(rng.integers(0, 4))
    others = [i for i in range(4) if i != node]
    size = int(rng.integers(0, 3))
    parents = sorted(rng.choice(others, size=size, replace=False).tolist())
    c = count_sufficient_stats(data, node, parents)
    assert c.n_i <= n
    assert c.n_ij.sum() == c.n_i
    np.testing.assert_array_equal(c.n_ikj.sum(axis=0), c.n_ij)
    np.testing.assert_array_equal(c.n_ikj, brute_force_counts(data, node, parents))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**31),
    st.lists(st.integers(2, 5), min_size=2, max_size=5),
    st.integers(0, 30),
    st.data(),
)
def test_sentinel_counts_match_row_loop(seed, cards, n, draw):
    """The sentinel cube's slice equals a plain row loop, whatever is missing."""
    rng = np.random.default_rng(seed)
    variables = [Variable(f"X{i}", q) for i, q in enumerate(cards)]
    # per-column missing rates, 1.0 makes a column entirely missing
    rates = draw.draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                               min_size=len(cards), max_size=len(cards)))
    values = np.stack([rng.integers(0, q, size=n) for q in cards], axis=1)
    values[rng.random(values.shape) < np.array(rates)] = MISSING
    data = Dataset(variables, values)
    node = draw.draw(st.integers(0, len(cards) - 1))
    others = [i for i in range(len(cards)) if i != node]
    parents = draw.draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    c = count_sufficient_stats(data, node, parents)
    expect = brute_force_counts(data, node, sorted(parents))
    assert c.n_ikj.dtype == np.int64
    np.testing.assert_array_equal(c.n_ikj, expect)
    np.testing.assert_array_equal(c.n_ij, expect.sum(axis=0))
    assert c.n_i == int(expect.sum()) and c.n == n
    if c.n_i == 0:  # n = 0, or the node or a parent never observed
        assert node_nal_from_counts(c) == NEG_INFINITY


def test_codes_map_missing_to_extra_state():
    data = Dataset([Variable("A", 2), Variable("B", 3)], [(0, MISSING), (MISSING, 2)])
    np.testing.assert_array_equal(data.codes, [[0, 2], [3, 2]])
    assert data.codes.flags.c_contiguous and not data.codes.flags.writeable
    assert Dataset(BIN2, np.empty((0, 2))).codes.shape == (2, 0)


def test_counts_deterministic():
    rng = np.random.default_rng(0)
    data = random_dataset(BIN2, 50, rng, 0.3)
    c1 = count_sufficient_stats(data, 1, [0])
    c2 = count_sufficient_stats(Dataset(BIN2, data.values.copy()), 1, [0])
    np.testing.assert_array_equal(c1.n_ikj, c2.n_ikj)


def test_theta_unbiasedness_monte_carlo():
    """Mean of defined theta-hat entries matches the population table (3 MC se)."""
    net = two_node_net()
    table = induced_theta_mcar(net.dag, net)
    target = table.nodes[1].theta_ikj[:, 0]  # marginal of X2: (0.3, 0.7)
    reps = 2000
    vals = np.zeros((reps, 2))
    for r in range(reps):
        data = forward_sample(net, 40, seed=9000 + r)
        masked = apply_mcar(data, Bernoulli((0.75, 0.9)), seed=70000 + r)
        c = count_sufficient_stats(masked, 1, [])
        vals[r] = c.n_ikj[:, 0] / c.n_ij[0] if c.n_ij[0] else np.nan  # n_ikj / n_ij
    defined = ~np.isnan(vals[:, 0])
    mean = vals[defined].mean(axis=0)
    se = vals[defined].std(axis=0, ddof=1) / np.sqrt(defined.sum())
    assert np.all(np.abs(mean - target) <= 3 * se + 1e-12)


def csv_file(tmp_path, text: str):
    """A file holding exactly `text`, line endings included."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = random_dataset(BIN2, 30, rng, 0.25)
    path, again = tmp_path / "data.csv", tmp_path / "again.csv"
    write_csv(data, path)
    back = read_csv(path, BIN2)
    np.testing.assert_array_equal(back.values, data.values)
    write_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_csv_format_details(tmp_path):
    data = Dataset(BIN2, [(0, MISSING), (1, 0)])
    path = tmp_path / "data.csv"
    write_csv(data, path)
    assert path.read_bytes() == b"X1,X2\n0,NA\n1,0\n"


def test_csv_accepts_crlf(tmp_path):
    back = read_csv(csv_file(tmp_path, "X1,X2\r\n0,NA\r\n1,0\r\n"), BIN2)
    assert back.values[0, 1] == MISSING
    assert back.num_records == 2


def test_dataset_refuses_non_integral_values():
    with pytest.raises(SchemaMismatch, match="integers"):
        Dataset(BIN2, [[0.5, 1.0]])
    data = Dataset(BIN2, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # integral floats are codes
    assert data.values.tolist() == [[0, 1], [MISSING, 0]]


def test_csv_header_mismatch(tmp_path):
    with pytest.raises(SchemaMismatch):
        read_csv(csv_file(tmp_path, "A,B\n0,0\n"), BIN2)


@pytest.mark.parametrize("blob", [b"\xff\xfeX1,X2\n0,1\n", b"X1,X2\n0,1\n\xe9,0\n"])
def test_csv_that_is_not_utf8_is_a_schema_error(tmp_path, blob):
    path = tmp_path / "data.csv"
    path.write_bytes(blob)  # a bad header, then a bad row
    with pytest.raises(SchemaMismatch, match=f"{path}: not UTF-8"):
        read_csv(path, BIN2)


def test_dataset_rejects_out_of_range_cells():
    with pytest.raises(SchemaMismatch):
        Dataset(BIN2, [(0, 2)])
    for cell in (65536, 40000, -2, 10**30, np.nan):  # 65536 wraps to 0 in int16
        with pytest.raises(SchemaMismatch):
            Dataset(BIN2, [(0, cell)])


@pytest.mark.parametrize(
    "body", ["0,1\n1\n", "0,1\n0,1,1\n", "0,x\n", "0,1.5\n", "0,40000\n"]
)
def test_csv_malformed_rows_are_schema_errors(tmp_path, body):
    with pytest.raises(SchemaMismatch, match="line|outside"):
        read_csv(csv_file(tmp_path, "X1,X2\n" + body), BIN2)


def test_empty_dataset():
    data = Dataset(BIN2, np.empty((0, 2)))
    assert data.num_records == 0
    assert (data.values != MISSING).all()
