"""Datasets with missing cells, sufficient counts and CSV input and output.

A dataset is an (N, n) array of codes in the smallest unsigned dtype that
holds 0..q, a missing cell coded as one extra state q; the constructor and
``Dataset.values`` use the (n, N) form with MISSING (-1). Counts for a (node,
parent set) pair use available-case analysis: a record contributes only when
the node and every parent in the candidate set are all observed in it.

Counts come from one of two sources, with equal results. When the cube of
every variable's states, sentinels included, has at most min(n,
STATE_SPACE_CAP) cells, ``Dataset.histogram`` counts every joint state with
one ``bincount`` of the joint code, and a family's available-case n_ikj is
its marginal: the sum over the other variables, the family's sentinel
states left out. A family then costs a sum over the cube, whatever n is.
``marginal`` reads it, and reads the population's tables off the true joint.
Otherwise, as on the 37-node structure, the records are counted as follows.

The mixed-radix code of the node and its parents, formed in the narrowest
unsigned dtype that holds their cube, indexes a cube of shape (q_i + 1,
q_p1 + 1, ...), and one ``bincount`` over all n records fills it. A record
with any missing coordinate lands in some last index q, so the cells [:q_i,
:q_p1, ...], taken with one gather, keep exactly the records where all are
observed: they are the available-case n_ikj, with no row mask. This relies
on every code lying in [0, q], which the constructor checks.

``count_families`` counts every non-empty set of at most max_parents of a
node's sorted predecessors, in the order of ``model.parent_set_lattice``:
each set of size m extends a prefix of size m - 1 by a later predecessor.
Read off the histogram, each set is one marginal. Counted from the records,
the sets of one prefix share one cube: the prefix's cube, its code formed
in int64 once, times one wide last digit, on which each predecessor has
its own q + 1 states. One ``bincount`` counts each slice of at most
CHUNK_BUDGET // max(n, cells) of the prefix's sets, cells the cube of its
largest family, and one gather through the slice's observed cells gives
each family's available-case n_ikj. Counts are yielded in runs of at least
RUN_CELLS cells, so that one-set slices and marginals are scored together
too. No family's cube may exceed STATE_SPACE_CAP cells, in either function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, SchemaMismatch, StateSpaceTooLarge
from .model import Variable, parent_set_lattice

MISSING = -1
MISSING_TOKEN = "NA"
STATE_SPACE_CAP = 1 << 24  # cells of the largest table counted or marginalized
CHUNK_BUDGET = 1 << 16  # row codes, and cube cells, per batched bincount
RUN_CELLS = 1 << 12  # cells of counts that count_families yields together, at least


def code_dtype(variables: Iterable[Variable]) -> np.dtype:
    """The smallest unsigned dtype that holds every code 0..q, the sentinel q included."""
    return np.min_scalar_type(max((v.cardinality for v in variables), default=0))


@dataclass(frozen=True)
class Dataset:
    """An immutable table of categorical records with optional missing cells."""

    variables: tuple[Variable, ...]
    codes: np.ndarray  # (N, n) read-only, one row per variable, a missing cell coded q

    def __init__(self, variables: Iterable[Variable], values):
        variables = tuple(variables)
        a = np.asarray(values)
        if a.size == 0:
            a = a.reshape(0, len(variables))
        if a.ndim != 2 or a.shape[1] != len(variables):
            raise SchemaMismatch(
                f"values shape {a.shape} does not match {len(variables)} variables"
            )
        # checked before the cast, which would wrap large values into range
        for i, v in enumerate(variables):
            col = a[:, i]
            if col.size and not (col.min() >= MISSING and col.max() < v.cardinality):
                raise SchemaMismatch(
                    f"column {v.name!r} has values outside 0..{v.cardinality - 1}"
                )
        coded = np.where(a == MISSING, [v.cardinality for v in variables], a)
        codes = np.array(coded.T, dtype=code_dtype(variables), order="C")
        if a.dtype.kind not in "iu" and not np.array_equal(codes.T, coded):  # 0.5 would store 0
            raise SchemaMismatch("values must be integers")
        codes.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_codes(cls, variables: Iterable[Variable], codes: np.ndarray) -> Dataset:
        """A dataset over the program's own (N, n) codes of code_dtype(variables), unchecked."""
        data = object.__new__(cls)
        codes.setflags(write=False)
        object.__setattr__(data, "variables", tuple(variables))
        object.__setattr__(data, "codes", codes)
        return data

    @property
    def num_records(self) -> int:
        return self.codes.shape[1]

    @property
    def num_variables(self) -> int:
        return self.codes.shape[0]

    @cached_property
    def values(self) -> np.ndarray:
        """(n, N) read-only values, one row per record, MISSING (-1) for a missing cell."""
        values = np.array(self.codes.T, np.promote_types(self.codes.dtype, np.int8), order="C")
        values[values == self.radix - 1] = MISSING
        values.setflags(write=False)
        return values

    @cached_property
    def radix(self) -> np.ndarray:
        """(N,) int64 q + 1 per variable: the size of a code's digit."""
        return np.array([v.cardinality + 1 for v in self.variables], dtype=np.int64)

    @cached_property
    def histogram(self) -> np.ndarray | None:
        """Read-only int64 count of every sentinel-coded joint state, of shape
        (q_1 + 1, ..., q_N + 1), from one bincount of the joint code; None
        when that cube has more cells than min(n, STATE_SPACE_CAP), where
        counting the records is the cheaper and smaller source."""
        shape = tuple([v.cardinality + 1 for v in self.variables])
        cells = math.prod(shape)
        if not shape or cells > min(self.num_records, STATE_SPACE_CAP):
            return None
        code = _mixed_radix(self, 0, range(1, len(shape)), np.min_scalar_type(cells - 1))
        histogram = np.bincount(code, minlength=cells).reshape(shape)
        histogram.setflags(write=False)
        return histogram

    @cached_property
    def family_scores(
        self,
    ) -> dict[tuple[int, tuple[int, ...], int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-node score tables, read and filled only by search._tables.

        The key is (node, sorted predecessors, max_parents) and the value is
        three arrays, NAL (float64), n_i and df (int64), with one entry per
        candidate parent set in ``SearchSpace.candidate_parent_sets`` order.
        A family's score depends on nothing but the data, so every search
        over this object and the same space shares the tables and counts each
        family once.
        """
        return {}


@dataclass(frozen=True)
class SufficientCounts:
    """Counts n_i, n_ij, n_ikj for one node and one candidate parent set.

    n_ij has one entry per parent configuration (canonical row-major order);
    n_ikj has shape (q(X_i), q(Pa_i)), i.e. child states index the rows.
    """

    node: int
    parents: tuple[int, ...]
    n: int
    n_i: int
    n_ij: np.ndarray
    n_ikj: np.ndarray


def count_sufficient_stats(
    data: Dataset, node: int, parents: Sequence[int]
) -> SufficientCounts:
    """Tally available-case counts for (node | parents)."""
    parents = tuple(sorted(int(p) for p in parents))
    _check_family(data, node, parents)
    n_ikj = _family_counts(data, node, parents)
    n_ij = n_ikj.sum(axis=0)
    n_i = sum(n_ij.tolist())
    return SufficientCounts(node, parents, data.num_records, n_i, n_ij, n_ikj)


def count_families(
    data: Dataset, node: int, predecessors: Sequence[int], max_parents: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Available-case counts for (node | parents) of every non-empty set of at
    most max_parents of the node's predecessors, in the order of
    model.parent_set_lattice: by size, then lexicographically.

    The predecessors, strictly increasing, and every family's cube against
    STATE_SPACE_CAP are checked before the first count. Yields (n_ikj,
    widths) pairs over runs of consecutive sets, each run's counts at least
    RUN_CELLS cells (but the last): n_ikj has shape (q_i, columns) and holds
    the run's families side by side, each over its q_pa = widths[f] columns.
    A family's columns are its parent configurations: counted from the
    records, the last parent slowest; read off Dataset.histogram, the last
    parent fastest, as in count_sufficient_stats. The order changes no NAL,
    not even in its last bit, since ``scoring.stacked_nal`` ends each family
    in one ``math.fsum``.
    """
    predecessors = [int(p) for p in predecessors]
    _check_family(data, node, predecessors)
    radix = data.radix.tolist()
    # widest[x]: the largest q + 1 of predecessors[x:], the last digit of a prefix's largest family
    widest = list(accumulate([radix[p] for p in reversed(predecessors)], max))[::-1]
    walk = []  # (prefix, start, per_chunk) of each prefix, per_chunk by its largest family
    for prefix, start in parent_set_lattice(predecessors, max_parents):
        cube = radix[node] * math.prod(radix[p] for p in prefix)
        if cube * widest[start] > STATE_SPACE_CAP:
            last = next(p for p in predecessors[start:] if cube * radix[p] > STATE_SPACE_CAP)
            _check_cube_size(node, (*prefix, last), cube * radix[last])
        walk.append((prefix, start,
                     max(1, CHUNK_BUDGET // max(data.num_records, cube * widest[start]))))
    if not walk:
        return
    histogram = data.histogram
    chunks = (_record_chunks(data, node, predecessors, walk) if histogram is None
              else _marginal_chunks(histogram, node, predecessors, walk))
    run, run_cells = [], 0  # chunks not yet yielded, and their cells of counts
    for chunk in chunks:
        run.append(chunk)
        run_cells += chunk[0].size
        if run_cells >= RUN_CELLS:
            yield _joined(run)
            run, run_cells = [], 0
    if run:
        yield _joined(run)


def _check_family(data: Dataset, node: int, parents: Sequence[int]) -> None:
    """Refuse a node or parent out of range, or parents that hold the node or
    are not strictly increasing: a repeat would add a parent's states twice."""
    N = data.num_variables
    if not (0 <= node < N and all(0 <= p < N for p in parents) and node not in parents
            and list(parents) == sorted(set(parents))):
        raise IndexOutOfRange(f"node {node}: parents {list(parents)} must be in range, "
                              "strictly increasing and without the node")


def _joined(chunks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate([c for c, _ in chunks], axis=1), np.concatenate([w for _, w in chunks])


def _marginal_chunks(
    histogram: np.ndarray, node: int, predecessors: list[int], walk: list
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """count_families' chunks read off the histogram, one family each."""
    for prefix, start, _ in walk:
        for p in predecessors[start:]:
            n_ikj = marginal(histogram, node, (*prefix, p))
            yield n_ikj, np.array(n_ikj.shape[1:])


def _record_chunks(
    data: Dataset, node: int, predecessors: list[int], walk: list
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """count_families' chunks counted from the records, prefix by prefix.

    Row x of wide holds predecessor x on its own range of the wide digit,
    after the states of predecessors[:x], in the digit's narrowest dtype;
    observed holds the digit's cells but the sentinels, so x's observed
    states start at observed[ends[x] - x]. A slice of a prefix's sets costs
    one multiply and one add over its rows beside the bincount; its cube is
    the prefix cube times the span of its digit ranges, and its codes start
    at cell low, where the first set's range starts.
    """
    ends = np.concatenate(([0], np.cumsum(data.radix[predecessors])))
    wide = data.codes[predecessors].astype(np.min_scalar_type(ends[-1]), copy=False)
    wide += ends[:-1, None].astype(wide.dtype)
    observed = np.delete(np.arange(ends[-1]), ends[1:] - 1)
    states = data.radix[predecessors] - 1
    ends, radix, k = ends.tolist(), data.radix.tolist(), len(predecessors)
    q_i = data.variables[node].cardinality
    # the empty prefix takes the most sets per slice
    row_buffer = np.empty((max(min(per_chunk, k - start) for _, start, per_chunk in walk),
                           data.num_records), dtype=np.int64)
    prefix_code = np.empty(data.num_records, dtype=np.int64)
    for prefix, start, per_chunk in walk:
        shape = (q_i + 1, *[radix[p] for p in prefix])
        cells = _observed_cells(shape)
        code = _mixed_radix(data, node, prefix, np.int64, prefix_code)
        for x0 in range(start, k, per_chunk):
            x1 = min(x0 + per_chunk, k)
            low, span = ends[x0], ends[x1] - ends[x0]
            rows = row_buffer[: x1 - x0]
            np.multiply(code, span, out=rows[0], dtype=np.int64)
            np.add(wide[x0 + 1:x1], rows[0], out=rows[1:])
            rows[0] += wide[x0]
            # a set's columns: its last parent's observed states, slowest, by
            # the prefix's observed configurations
            digit = observed[low - x0:ends[x1] - x1]
            index = (cells[:, None, :] * span + digit[:, None]).reshape(q_i, -1)
            yield (_available_counts(rows, index, math.prod(shape) * span + low),
                   cells.shape[1] * states[x0:x1])


def _family_counts(data: Dataset, node: int, parents: Sequence[int]) -> np.ndarray:
    """n_ikj of one family: the node and sorted, checked parents."""
    histogram = data.histogram
    if histogram is not None:
        return marginal(histogram, node, parents)
    # last parent varies fastest
    shape = tuple(data.variables[i].cardinality + 1 for i in (node, *parents))
    size = math.prod(shape)
    _check_cube_size(node, parents, size)
    code = _mixed_radix(data, node, parents, np.min_scalar_type(size - 1))
    return _available_counts(code, _observed_cells(shape), size)


def marginal(cube: np.ndarray, node: int, parents: tuple[int, ...],
             sentinels: bool = True) -> np.ndarray:
    """The (q_i, q_pa) table of the node and sorted parents, summed out of a
    cube over every variable, the last parent fastest, as the records count.
    With sentinels each axis ends in a missing state whose cells are left out,
    so a histogram gives the available-case n_ikj; without, as on the true
    joint, every state is kept."""
    others, cells = _marginal_cells(cube.shape, node, parents, sentinels)
    return (np.add.reduce(cube, axis=others) if others else cube).take(cells)


@lru_cache(maxsize=256)
def _marginal_cells(
    shape: tuple[int, ...], node: int, parents: tuple[int, ...], sentinels: bool
) -> tuple[tuple[int, ...], np.ndarray]:
    """The axes of a cube of this shape that a family's marginal sums out, and
    the (q_i, q_pa) flat indices, into that sum, of the family's cells: with
    sentinels, those whose every coordinate is below its sentinel. Read-only,
    as every cube of one shape shares the array."""
    family = sorted((node, *parents))
    cube = np.arange(math.prod(shape[i] for i in family)).reshape([shape[i] for i in family])
    cube = cube.transpose([family.index(i) for i in (node, *parents)])
    cells = (cube.ravel()[_observed_cells(cube.shape)] if sentinels
             else cube.reshape(cube.shape[0], -1))
    cells.setflags(write=False)
    return tuple(i for i in range(len(shape)) if i not in family), cells


def _mixed_radix(
    data: Dataset, node: int, parents: Sequence[int], dtype, out: np.ndarray | None = None
) -> np.ndarray:
    """Codes of the node then the parents, the last parent fastest, formed in
    dtype, which must hold the family's cube, in place in out (a new array
    when None); the node's own codes when there are no parents. Every ufunc
    names its dtype, so no promotion rule can narrow the code and wrap it."""
    code = data.codes[node]
    for p in parents:
        code = out = np.multiply(code, data.variables[p].cardinality + 1, out=out, dtype=dtype)
        np.add(code, data.codes[p], out=code, dtype=dtype)
    return code


def _check_cube_size(node: int, parents: Sequence[int], size: int) -> None:
    if size > STATE_SPACE_CAP:
        raise StateSpaceTooLarge(
            f"node {node} with parents {list(parents)}: a count table of {size} cells "
            f"exceeds the cap of {STATE_SPACE_CAP}"
        )


@lru_cache(maxsize=256)
def _observed_cells(shape: tuple[int, ...]) -> np.ndarray:
    """(q_i, q_pa) flat indices of the cells of a cube of this shape whose every
    coordinate is below its sentinel; child states index the rows. Read-only,
    as every caller of one shape shares the array."""
    cells = np.arange(math.prod(shape)).reshape(shape)
    cells = cells[tuple(slice(q - 1) for q in shape)].reshape(shape[0] - 1, -1)
    cells.setflags(write=False)
    return cells


def _available_counts(rows: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """n_ikj gathered through index from one bincount of rows over size cells:
    the cube (or cubes end to end) the rows' codes index."""
    return np.bincount(rows.ravel(), minlength=size)[index]


def write_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV: header of variable names, "NA" for missing."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(v.name for v in data.variables) + "\n")
        for row in data.values.tolist():
            f.write(",".join(MISSING_TOKEN if c == MISSING else str(c) for c in row) + "\n")


def read_csv(path, variables: Sequence[Variable]) -> Dataset:
    """Read a CSV written by write_csv; header must match the schema names."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\r\n").split(",")
            names = [v.name for v in variables]
            if header != names:
                raise SchemaMismatch(f"CSV header {header} != schema {names}")
            rows = []
            for lineno, line in enumerate(f, start=2):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != len(names):
                    raise SchemaMismatch(
                        f"CSV line {lineno} has {len(cells)} cells, expected {len(names)}"
                    )
                try:
                    rows.append([MISSING if c == MISSING_TOKEN else int(c) for c in cells])
                except ValueError:
                    raise SchemaMismatch(
                        f"CSV line {lineno}: cells must be integers or {MISSING_TOKEN}"
                    ) from None
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: not UTF-8 text: {exc}") from None
    # the Dataset range check rejects cells too large for a category code
    return Dataset(variables, rows)
