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
coordinate lands in some last index q, so the slice [:q_i, :q_p1, ...] keeps
exactly the records where all are observed: it is the available-case n_ikj,
with no row mask. This relies on every value lying in [-1, q-1], which the
constructor checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import IndexOutOfRange, SchemaMismatch
from .model import Variable

MISSING = -1
MISSING_TOKEN = "NA"


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
        a = a.astype(np.int16)
        a.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", a)

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

    codes = data.codes
    q_i = data.variables[node].cardinality
    shape = [q_i + 1]
    code = codes[node]
    q_pa = 1
    for p in parents:  # last parent varies fastest
        q = data.variables[p].cardinality
        code = code * (q + 1) + codes[p]
        shape.append(q + 1)
        q_pa *= q

    cube = np.bincount(code, minlength=math.prod(shape)).reshape(shape)
    n_ikj = cube[tuple(slice(s - 1) for s in shape)].reshape(q_i, q_pa)
    n_ij = n_ikj.sum(axis=0)
    n_i = int(n_ij.sum())
    return SufficientCounts(node, parents, data.num_records, n_i, n_ij, n_ikj)


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
    # the Dataset range check rejects cells too large for a category code
    values = rows if rows else np.empty((0, len(variables)))
    return Dataset(variables, values)
