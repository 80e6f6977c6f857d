"""Datasets, sufficient counts and the CSV format."""

import contextlib
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nalearn.data

from nalearn import (
    MISSING,
    Bernoulli,
    Dataset,
    KPerRecord,
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
from nalearn.experiments import _replicate, spurious_edge_gain
from nalearn.networks import benchmark_structure_37, eight_node_net
from nalearn.population import induced_theta_mcar
from nalearn.scoring import BIC, NEG_INFINITY, node_nal_from_counts, stacked_nal
from nalearn.search import SearchSpace, learn_structure

from oracles import joint_cube
from util import on_records, random_dataset

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
    for node, predecessors in [(4, [0]), (3, [0, 5]), (3, [-1, 0]), (3, [0, 3]), (3, [1, 0]),
                               (3, [0, 0])]:
        with pytest.raises(IndexOutOfRange):
            list(count_families(data, node, predecessors, 2))
    for predecessors, max_parents in [([], 3), ([0, 1], 0)]:  # an empty lattice
        assert list(count_families(data, 3, predecessors, max_parents)) == []


def _batch_columns(n_ikj, parents, cardinalities):
    """A per-call n_ikj (last parent fastest) with its columns in count_families'
    order: the last parent slowest, the others in their own order."""
    cube = n_ikj.reshape(n_ikj.shape[0], *(cardinalities[p] for p in parents))
    return np.moveaxis(cube, -1, 1).reshape(n_ikj.shape[0], -1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, nalearn.data.CHUNK_BUDGET]))
def test_count_families_walks_the_lattice_one_prefix_per_bincount(seed, budget):
    """Split by widths, count_families' counts are the node's candidate parent
    sets but the empty one, in the search's order, each equal to a call of its
    own, off the histogram and off the records alike, for every max_parents
    from 0 to beyond the predecessors. Counted from the records, no bincount
    holds sets of two prefixes or more than per_chunk sets."""
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, 5, size=rng.integers(1, 7)).tolist()
    variables = [Variable(f"X{i}", q) for i, q in enumerate(cards)]
    n = [0, 1, 5, 40, math.prod(q + 1 for q in cards)][rng.integers(5)]  # the last has a histogram
    data = random_dataset(variables, n, rng, 0.3)
    order = rng.permutation(len(cards)).tolist()
    rank = int(rng.integers(len(cards)))
    node, space = order[rank], SearchSpace(order, int(rng.integers(rank + 2)))
    predecessors = space.predecessors(node)
    families = space.candidate_parent_sets(node)[1:]
    largest = {}  # of each prefix, the cube of its largest family
    for f in families:
        cube = math.prod(data.radix[[node, *f]].tolist())
        largest[f[:-1]] = max(largest.get(f[:-1], 0), cube)
    real = nalearn.data._available_counts
    for records in (False, True):
        calls = []  # sets per bincount

        def recording(rows, index, size):
            calls.append(len(rows))
            return real(rows, index, size)

        with mock.patch.object(nalearn.data, "CHUNK_BUDGET", budget), \
                mock.patch.object(nalearn.data, "_available_counts", recording), \
                on_records() if records else contextlib.nullcontext():
            histogram = data.histogram
            counts, widths = [], []
            for n_ikj, w in count_families(data, node, predecessors, space.max_parents):
                counts += np.split(n_ikj, np.cumsum(w)[:-1], axis=1)
                widths += w.tolist()
        assert len(counts) == len(families)
        assert widths == [math.prod(cards[p] for p in f) for f in families]
        for parents, got in zip(families, counts):
            want = count_sufficient_stats(data, node, parents).n_ikj
            np.testing.assert_array_equal(
                got, want if histogram is not None else _batch_columns(want, parents, cards))
        assert sum(calls) == (len(families) if histogram is None else 0)
        start = 0
        for size in calls:
            prefixes = {f[:-1] for f in families[start:start + size]}
            assert len(prefixes) == 1
            assert size <= max(1, budget // max(n, largest[prefixes.pop()]))
            start += size


def _family_chunks(data, node, predecessors):
    """count_families' counts over every subset of predecessors, split per
    family, and its NALs."""
    counts, nals = [], []
    for n_ikj, widths in count_families(data, node, predecessors, len(predecessors)):
        counts += np.split(n_ikj, np.cumsum(widths)[:-1], axis=1)
        nals += stacked_nal(n_ikj, widths)[0].tolist()
    return counts, nals


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_histogram_counts_equal_record_counts(draw):
    """Every family's counts, read off the histogram, equal a count of the
    records exactly, through both counting functions, and every NAL is equal
    bit for bit: -inf for an unobservable family, nan for the gain when X2 is
    never observed. The histogram exists exactly when its cube has at most n
    cells; n is drawn around that size."""
    cards = draw.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
    cells = math.prod(q + 1 for q in cards)
    n = draw.draw(st.sampled_from([0, cells - 1, cells, cells + 1, 2 * cells, 7 * cells]))
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    rates = draw.draw(st.lists(rate, min_size=len(cards), max_size=len(cards)))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    variables = [Variable(f"X{i}", q) for i, q in enumerate(cards)]
    values = np.stack([rng.integers(0, q, size=n) for q in cards], axis=1)
    values[rng.random(values.shape) < np.array(rates)] = MISSING
    data = Dataset(variables, values)
    assert (data.histogram is not None) == (cells <= n)
    for node in range(len(cards)):
        others = [i for i in range(len(cards)) if i != node]
        families = [ps for m in range(1, len(others) + 1) for ps in combinations(others, m)]
        for parents in [(), *families]:
            got = count_sufficient_stats(data, node, parents)
            with on_records():
                want = count_sufficient_stats(data, node, parents)
            assert got.n_ikj.dtype == want.n_ikj.dtype == np.int64
            np.testing.assert_array_equal(got.n_ikj, want.n_ikj)
            np.testing.assert_array_equal(got.n_ij, want.n_ij)
            assert got.n_i == want.n_i
            nal = node_nal_from_counts(got)
            assert nal == node_nal_from_counts(want)  # -inf == -inf
            assert got.n_i > 0 or nal == NEG_INFINITY
        if not families:
            continue
        got, got_nals = _family_chunks(data, node, others)
        with on_records():
            want, want_nals = _family_chunks(data, node, others)
        assert len(got) == len(want) == len(families)
        for parents, a, b in zip(families, got, want):
            # the histogram's columns put the last parent fastest, as one call does
            one = count_sufficient_stats(data, node, parents).n_ikj
            np.testing.assert_array_equal(a, one if data.histogram is not None
                                          else _batch_columns(one, parents, cards))
            np.testing.assert_array_equal(b, _batch_columns(one, parents, cards))
        assert np.array(got_nals).tobytes() == np.array(want_nals).tobytes()
    if len(cards) >= 2:
        gain = spurious_edge_gain(data)
        with on_records():
            again = spurious_edge_gain(data)
        assert np.array(gain).tobytes() == np.array(again).tobytes()  # nan too


def test_a_two_node_replicate_counts_with_one_bincount():
    """Its two families are two marginals of one histogram."""
    task = (1000, Bernoulli((0.9, 1.0)), 3)
    with mock.patch("numpy.bincount", wraps=np.bincount) as bincount:
        gain = _replicate((two_node_net(), spurious_edge_gain), task)
    assert bincount.call_count == 1
    with on_records():
        assert _replicate((two_node_net(), spurious_edge_gain), task) == gain


def test_a_dataset_whose_cube_exceeds_its_records_counts_the_records():
    """learn37_kper2's input: 37 variables, 1,000 records, two cells missing in
    each. Its cube has far more cells than records, so no histogram is built."""
    variables, _ = benchmark_structure_37()
    data = apply_mcar(random_dataset(variables, 1000, np.random.default_rng(7)), KPerRecord(2), 8)
    assert math.prod(data.radix.tolist()) > data.num_records
    with mock.patch.object(nalearn.data, "marginal", side_effect=AssertionError):
        learn_structure(data, SearchSpace(list(range(len(variables))), 1), BIC)
    assert data.__dict__["histogram"] is None


def test_oversized_count_table_is_refused_before_it_is_allocated():
    variables = [Variable(f"X{i}", 300) for i in range(3)]
    assert 301**3 > STATE_SPACE_CAP >= 301**2
    data = Dataset(variables, [(0, 1, 2), (MISSING, 299, 5)])
    tracemalloc.start()
    try:
        assert count_sufficient_stats(data, 2, [0]).n_i == 1  # 301^2 cells: allowed
        tracemalloc.reset_peak()
        with pytest.raises(StateSpaceTooLarge, match="exceeds the cap"):
            count_sufficient_stats(data, 2, [0, 1])
        # before the first chunk, naming the first family in order above the cap
        with pytest.raises(StateSpaceTooLarge, match=r"parents \[0, 1\]: .* exceeds the cap"):
            next(count_families(data, 2, [0, 1], 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the refused table alone would take 218 MB


def test_counting_the_records_holds_one_row_of_codes_per_set_of_a_slice():
    """20 binary variables at n = 2e5: a slice is one set (per_chunk is 1), and
    the count holds one int64 row of codes for it and one for the prefix code,
    beside the predecessors' codes on the wide digit, one byte a cell."""
    n = 200_000
    data = random_dataset([Variable(f"X{i}", 2) for i in range(20)], n,
                          np.random.default_rng(5), 0.1)
    assert data.histogram is None and nalearn.data.CHUNK_BUDGET < n
    tracemalloc.start()
    try:
        assert sum(len(widths) for _, widths in count_families(data, 19, range(19), 2)) == 190
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + 19 * n + (1 << 20)  # a row per predecessor would take 30 MB


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


def test_counts_of_a_cube_wider_than_a_byte_match_row_loop():
    # uint8 codes, but the family's code runs past 255: it is formed in int64
    rng = np.random.default_rng(11)
    variables = [Variable("C", 4)] + [Variable(f"P{i}", 3) for i in range(4)]
    data = random_dataset(variables, 400, rng, 0.1)
    assert data.codes.dtype == np.uint8
    parents = [1, 2, 3, 4]
    with on_records():
        n_ikj = count_sufficient_stats(data, 0, parents).n_ikj
    np.testing.assert_array_equal(n_ikj, brute_force_counts(data, 0, parents))


def test_codes_map_missing_to_extra_state():
    data = Dataset([Variable("A", 2), Variable("B", 3)], [(0, MISSING), (MISSING, 2)])
    np.testing.assert_array_equal(data.codes, [[0, 2], [3, 2]])
    assert data.codes.dtype == np.uint8
    assert data.codes.flags.c_contiguous and not data.codes.flags.writeable
    assert Dataset(BIN2, np.empty((0, 2))).codes.shape == (2, 0)


def test_values_of_32768_and_above_keep_their_state(tmp_path):
    variables = [Variable("X", 40000), Variable("Y", 2)]
    data = Dataset(variables, [[35000, 1]])
    assert data.codes.dtype == np.uint16 and data.values[0, 0] == 35000
    n_ikj = count_sufficient_stats(data, 0, ()).n_ikj
    assert n_ikj[35000, 0] == n_ikj.sum() == 1
    path = tmp_path / "data.csv"
    write_csv(data, path)
    assert read_csv(path, variables).values.tolist() == [[35000, 1]]


def test_dataset_holds_one_array_from_sampling_and_reading_to_learning(tmp_path):
    """A two-node replicate (sample, mask, gain) and learn's read_csv and
    learn_structure work on codes alone: nothing builds values."""
    data = apply_mcar(forward_sample(two_node_net(), 200, 1), Bernoulli((0.9, 1.0)), 2)
    spurious_edge_gain(data)
    assert data.codes.dtype == np.uint8 and "values" not in data.__dict__
    assert forward_sample(eight_node_net(), 10, 1).codes.dtype == np.uint8
    variables, _ = benchmark_structure_37()
    path = tmp_path / "data.csv"
    write_csv(random_dataset(variables, 50, np.random.default_rng(5), 0.1), path)
    data = read_csv(path, variables)
    learn_structure(data, SearchSpace(list(range(len(variables))), 1), BIC)
    assert data.codes.dtype == np.uint8 and "values" not in data.__dict__


def test_counts_deterministic():
    rng = np.random.default_rng(0)
    data = random_dataset(BIN2, 50, rng, 0.3)
    c1 = count_sufficient_stats(data, 1, [0])
    c2 = count_sufficient_stats(Dataset(BIN2, data.values.copy()), 1, [0])
    np.testing.assert_array_equal(c1.n_ikj, c2.n_ikj)


def test_theta_unbiasedness_monte_carlo():
    """Mean of defined theta-hat entries matches the population table (3 MC se)."""
    net = two_node_net()
    target = induced_theta_mcar(net.dag, joint_cube(net))[1][:, 0]  # X2's marginal (0.3, 0.7)
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
