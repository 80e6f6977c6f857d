"""Datasets with missing cells, sufficient counts and CSV input and output.

A dataset is an (n, N) array of int16 category codes; MISSING (-1) marks an
unobserved cell. Counts for a (node, parent set) pair use available-case
analysis: a record contributes only when the node and every parent in the
candidate set are all observed in that record.

Counting codes a missing cell as one extra state. In ``Dataset.codes`` a
column of cardinality q holds ``values % (q + 1)``, which leaves 0..q-1 as
they are and maps MISSING to q (computed as a masked copy, which is
cheaper than an integer modulo). The mixed-radix code of the node and its
parents then indexes a cube of shape (q_i + 1, q_p1 + 1, ...), and one
``bincount`` over all n records fills it. A record with any missing
coordinate lands in some last index q, so the cells [:q_i, :q_p1, ...], taken
with one gather, keep exactly the records where all are observed: they are
the available-case n_ikj, with no row mask. This relies on every value lying
in [-1, q-1], which the constructor checks.

``count_families`` counts many parent sets of one node with one ``bincount``
per chunk of sets. Sets that share a prefix (all but their last parent)
share one cube: the prefix's cube times one wide last digit, on which each
last parent has its own q + 1 states. A set's code is the prefix's code
times the digit's width, plus its last parent's codes shifted to that
parent's states. A group's prefix code is built once, in place, and kept
while the group runs on into the next chunk, so a chunk costs about one
multiply and one add over its (sets, n) rows; the chunk's cubes lie end to
end, and one gather through their observed cells gives every family's
available-case n_ikj. A chunk holds CHUNK_BUDGET // max(n, cells) sets, at
least one, where cells is the largest cube of one set: at most CHUNK_BUDGET
row codes and as many cube cells. Chunks are yielded in runs of at least
RUN_CELLS cells of counts, so the one-set chunks of a large n are scored
together too, while a run's scoring stays small beside a chunk. No family's cube may exceed STATE_SPACE_CAP cells, in either
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, SchemaMismatch, StateSpaceTooLarge
from .model import Variable

MISSING = -1
MISSING_TOKEN = "NA"
STATE_SPACE_CAP = 1 << 24  # cells of the largest table counted or marginalized
CHUNK_BUDGET = 1 << 16  # row codes, and cube cells, per batched bincount
RUN_CELLS = 1 << 12  # cells of counts that count_families yields together, at least


@dataclass(frozen=True)
class Dataset:
    """An immutable table of categorical records with optional missing cells."""

    variables: tuple[Variable, ...]
    values: np.ndarray  # (n, N) int16, MISSING = -1

    def __init__(self, variables: Iterable[Variable], values):
        variables = tuple(variables)
        a = np.asarray(values)
        if a.size == 0:
            a = a.reshape(0, len(variables))
        if a.ndim != 2 or a.shape[1] != len(variables):
            raise SchemaMismatch(
                f"values shape {a.shape} does not match {len(variables)} variables"
            )
        # checked before the int16 cast, which would wrap large values into range
        for i, v in enumerate(variables):
            col = a[:, i]
            if col.size and not (col.min() >= MISSING and col.max() < v.cardinality):
                raise SchemaMismatch(
                    f"column {v.name!r} has values outside 0..{v.cardinality - 1}"
                )
        codes = a.astype(np.int16)
        if a.dtype.kind not in "iu" and not np.array_equal(codes, a):  # 0.5 would store 0
            raise SchemaMismatch("values must be integers")
        codes.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", codes)

    @property
    def num_records(self) -> int:
        return self.values.shape[0]

    @property
    def num_variables(self) -> int:
        return self.values.shape[1]

    @cached_property
    def codes(self) -> np.ndarray:
        """(N, n) int64 state codes, one row per variable, MISSING coded as q."""
        cards = np.array([[v.cardinality] for v in self.variables], dtype=np.int64)
        codes = np.array(self.values.T, dtype=np.int64, order="C")
        np.copyto(codes, cards, where=codes == MISSING)  # = values % (q + 1)
        codes.setflags(write=False)
        return codes

    @cached_property
    def radix(self) -> np.ndarray:
        """(N,) int64 q + 1 per variable: the size of a code's digit."""
        return np.array([v.cardinality + 1 for v in self.variables], dtype=np.int64)

    @cached_property
    def family_scores(
        self,
    ) -> dict[tuple[int, tuple[int, ...], int], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-node score tables, filled in by the search.

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
    N = data.num_variables
    if not 0 <= node < N:
        raise IndexOutOfRange(f"node {node}")
    parents = tuple(sorted(int(p) for p in parents))
    for p in parents:
        if not 0 <= p < N:
            raise IndexOutOfRange(f"parent {p}")
        if p == node:
            raise IndexOutOfRange(f"node {node} cannot be its own parent")
    if len(set(parents)) < len(parents):  # a repeat would add a parent's states twice
        raise IndexOutOfRange(f"node {node}: parents {list(parents)} repeat a node")

    n_ikj = _family_counts(data, node, parents)
    n_ij = n_ikj.sum(axis=0)
    n_i = int(n_ij.sum())
    return SufficientCounts(node, parents, data.num_records, n_i, n_ij, n_ikj)


def count_families(
    data: Dataset, node: int, families: Sequence[tuple[int, ...]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Available-case counts for (node | parents) of every parent set in families.

    Each set is sorted and non-empty; sets of one size are adjacent and in
    strictly increasing lexicographic order, as
    ``SearchSpace.candidate_parent_sets`` lists them. Every set is checked,
    and every family's cube against STATE_SPACE_CAP, before the first count.
    Yields (n_ikj, widths) pairs over runs of consecutive sets, each run's
    counts at least RUN_CELLS cells (but the last): n_ikj has shape
    (q_i, columns) and holds the run's families side by side, each over its
    q_pa = widths[f] columns. A family's columns are its parent
    configurations with the last parent slowest; the order of the
    configurations changes no score.
    """
    if not 0 <= node < data.num_variables:
        raise IndexOutOfRange(f"node {node}")
    levels = []
    for m, level in groupby(families, key=len):
        if m == 0:
            raise IndexOutOfRange(f"node {node}: count_families takes non-empty parent sets")
        levels.append(np.array(list(level), dtype=np.int64).reshape(-1, m))
        _check_level(data, node, levels[-1])
    if not levels:
        return
    # every last parent in its own range of one wide digit, last[x] after the
    # states of last[:x]
    last = np.unique(np.concatenate([sets[:, -1] for sets in levels]))
    digit_ends = np.concatenate(([0], np.cumsum(data.radix[last])))
    wide = data.codes[last] + digit_ends[:-1, None]  # row x: last[x] on its own states
    run, run_cells = [], 0  # chunks not yet yielded, and their cells of counts
    for sets in levels:
        for chunk in _count_level(data, node, sets, last, digit_ends, wide):
            run.append(chunk)
            run_cells += chunk[0].size
            if run_cells >= RUN_CELLS:
                yield _joined(run)
                run, run_cells = [], 0
    if run:
        yield _joined(run)


def _joined(chunks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate([c for c, _ in chunks], axis=1), np.concatenate([w for _, w in chunks])


def _check_level(data: Dataset, node: int, sets: np.ndarray) -> None:
    """Refuse parent sets of one size that are out of range, unsorted, out of
    lexicographic order, or whose cube exceeds STATE_SPACE_CAP."""
    if not ((sets >= 0) & (sets < data.num_variables) & (sets != node)).all():
        raise IndexOutOfRange(f"node {node}: parent sets {sets.tolist()} out of range")
    if (np.diff(sets, axis=1) <= 0).any():
        raise IndexOutOfRange(f"node {node}: parent sets {sets.tolist()} are not sorted")
    step = sets[1:] - sets[:-1]
    if (step[np.arange(len(step)), (step != 0).argmax(axis=1)] <= 0).any():
        raise ValueError(f"node {node}: parent sets are not in lexicographic order")
    # a float product is exact up to 2^53, far above the cap
    big = np.flatnonzero(data.radix[sets].astype(float).prod(axis=1) * data.radix[node]
                         > STATE_SPACE_CAP)
    if big.size:
        parents = sets[big[0]].tolist()
        _check_cube_size(node, parents, math.prod(data.radix[[node, *parents]].tolist()))


def _count_level(
    data: Dataset,
    node: int,
    sets: np.ndarray,
    last: np.ndarray,
    digit_ends: np.ndarray,
    wide: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """count_families over checked sets of one size.

    A group is a run of sets with one prefix whose last parents are
    consecutive in last, so its digit has no unused range and its sets' rows
    of wide are one slice. Within a chunk a group's cube is its prefix cube
    times the span of its sets' digit ranges, from the first set of the group
    in the chunk. The chunk's cubes lie end to end from cell low[0], where the
    first group's codes already start, so that group needs no shift. With
    its prefix code kept, a chunk of one set (every chunk, once n exceeds
    CHUNK_BUDGET / 2) costs one multiply and one add over its n rows beside
    the bincount, where counting the family alone extends the code once per
    parent.
    """
    largest = int((data.radix[node] * data.radix[sets].prod(axis=1)).max())  # one family's cube
    per_chunk = max(1, CHUNK_BUDGET // max(data.num_records, largest))
    q_i = data.variables[node].cardinality
    pos = np.searchsorted(last, sets[:, -1])
    new_group = np.ones(len(sets), dtype=bool)
    new_group[1:] = (sets[1:, :-1] != sets[:-1, :-1]).any(axis=1) | (pos[1:] != pos[:-1] + 1)
    group = np.cumsum(new_group) - 1
    heads = np.flatnonzero(new_group)
    prefix_radix = data.radix[sets[heads, :-1]]
    prefix_cells = data.radix[node] * prefix_radix.prod(axis=1)
    prefix_shapes = [(q_i + 1, *row) for row in prefix_radix.tolist()]
    states = data.radix[sets[:, -1]] - 1
    widths = (prefix_radix - 1).prod(axis=1)[group] * states
    row_buffer = np.empty((min(per_chunk, len(sets)), data.num_records), dtype=np.int64)
    prefix_code = np.empty(data.num_records, dtype=np.int64)
    held = -1  # the group whose prefix code prefix_code holds
    for start in range(0, len(sets), per_chunk):
        stop = min(start + per_chunk, len(sets))
        g0, g1 = int(group[start]), int(group[stop - 1]) + 1
        firsts = np.maximum(heads[g0:g1], start)
        lasts = np.append(firsts[1:], stop) - 1
        low = digit_ends[pos[firsts]]
        span = digit_ends[pos[lasts] + 1] - low
        size = prefix_cells[g0:g1] * span
        base = np.cumsum(size) - size + low[0]
        member = group[start:stop] - g0
        opens, closes = firsts - start, lasts + 1 - start  # each group's sets in the chunk
        rows = row_buffer[: stop - start]
        # a group's code: its prefix's code, kept while the group runs on into
        # the next chunk, times the span, plus its sets' rows of wide
        for g, a, b, x, w, shift in zip(
            range(g0, g1), opens.tolist(), closes.tolist(), pos[firsts].tolist(),
            span.tolist(), (base - low).tolist(),
        ):
            if g != held:
                code, held = _mixed_radix(data, node, sets[heads[g], :-1].tolist(), prefix_code), g
            np.multiply(code, w, out=rows[a])
            if shift:
                rows[a] += shift
            np.add(wide[x + 1:x + b - a], rows[a], out=rows[a + 1:b])
            rows[a] += wide[x]
        # each set's states on its group's digit, then the group's observed cells
        s = states[start:stop]
        bounds = np.concatenate(([0], np.cumsum(s)))
        digit = np.repeat(digit_ends[pos[start:stop]] - low[member] - bounds[:-1], s)
        digit += np.arange(bounds[-1])
        index = np.concatenate([
            (b + _observed_cells(shape)[:, None, :] * w + digit[lo:hi, None]).reshape(q_i, -1)
            for shape, b, w, lo, hi in zip(
                prefix_shapes[g0:g1], base.tolist(), span.tolist(),
                bounds[opens].tolist(), bounds[closes].tolist())
        ], axis=1)
        yield _available_counts(rows, index, int(base[-1] + size[-1])), widths[start:stop]


def _family_counts(data: Dataset, node: int, parents: Sequence[int]) -> np.ndarray:
    """n_ikj of one family: the node and sorted, checked parents."""
    # last parent varies fastest
    shape = tuple(data.variables[i].cardinality + 1 for i in (node, *parents))
    size = math.prod(shape)
    _check_cube_size(node, parents, size)
    return _available_counts(_mixed_radix(data, node, parents), _observed_cells(shape), size)


def _mixed_radix(
    data: Dataset, node: int, parents: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Codes of the node then the parents, the last parent fastest, built in
    place in out (a new array when None); the node's own codes when there
    are no parents."""
    code = data.codes[node]
    for p in parents:
        code = out = np.multiply(code, data.radix[p], out=out)
        code += data.codes[p]
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
        for row in data.values:
            f.write(
                ",".join(MISSING_TOKEN if c == MISSING else str(int(c)) for c in row)
                + "\n"
            )


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
    values = rows if rows else np.empty((0, len(variables)))
    return Dataset(variables, values)
