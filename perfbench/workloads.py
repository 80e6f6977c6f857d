"""The three benchmark workloads: inputs, command and output checks.

Each workload is one ``nalearn`` CLI command. Its inputs are made from the
benchmark seed by this file's own numpy code (only the fixed built-in
networks come from ``nalearn.networks``), so the program under test sees
nothing but files, and a change to the program's sampler cannot change the
inputs of ``learn37_kper2`` or ``population8``.

Every workload has two sizes: ``FULL`` is what the benchmark measures and
``TINY`` is used for the warm-up in set-up and for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from nalearn.networks import benchmark_structure_37, eight_node_net

FULL = "full"
TINY = "tiny"


@dataclass
class Prepared:
    """Inputs of one workload written to disk, and the command to run."""

    argv: list[str]
    outputs: list[Path]  # files the command writes; removed before each run
    work: int  # work items one run completes (the base of work_per_s)
    sizes: dict  # input sizes recorded in the manifest
    extra: dict = field(default_factory=dict)


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _input_seed(seed: int) -> int:
    """A 63-bit seed for the program's own generator, derived from --seed."""
    return int(np.random.default_rng(seed).integers(1 << 63))


# ---------------------------------------------------------------------------
# two_node_table: `nalearn experiment --mode two-node` on the paper's grid
# ---------------------------------------------------------------------------

TWO_NODE_PENALTIES = ["a0.2", "a0.3", "a0.4", "a0.5", "a0.6", "a0.7", "a0.8", "bic", "aic"]
TWO_NODE_SIZES = {
    FULL: dict(betas=[1.0, 0.99, 0.95, 0.90, 0.75], sample_sizes=[100, 1000, 10000, 100000],
               replicates=50),
    TINY: dict(betas=[1.0, 0.9], sample_sizes=[100, 1000], replicates=3),
}


def _two_node_lambda(label: str, n: int) -> float:
    """lambda_n of a penalty label; power laws use the coefficient 1/N = 1/2."""
    if label == "aic":
        return 1.0 / n
    if label == "bic":
        return 0.5 * math.log(n) / n
    return 0.5 * n ** -float(label[1:])


class TwoNodeTable:
    """`nalearn experiment --mode two-node` on the paper's full grid."""

    name = "two_node_table"
    work_unit = "records"  # sum of n over replicates
    bindings = [
        "nalearn.cli:main",
        "nalearn.experiments:load_config",
        "nalearn.experiments:run_two_node",
        "nalearn.experiments:two_node_wrong_fraction",
        "nalearn.experiments:write_rows",
        "nalearn.experiments:forward_sample",
        "nalearn.experiments:apply_mcar",
        "nalearn.experiments:count_sufficient_stats",
        "nalearn.experiments:node_nal_from_counts",
    ]

    def prepare(self, workdir: Path, seed: int, size: str = FULL) -> Prepared:
        spec = TWO_NODE_SIZES[size]
        config = {
            "net": "two-node",
            "sample_sizes": spec["sample_sizes"],
            "betas": spec["betas"],
            "penalties": TWO_NODE_PENALTIES,
            "replicates": spec["replicates"],
            "seed": _input_seed(seed),
        }
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
        out_dir = workdir / "out"
        records = spec["replicates"] * len(spec["betas"]) * sum(spec["sample_sizes"])
        return Prepared(
            argv=["experiment", "--config", str(config_path), "--mode", "two-node",
                  "--out", str(out_dir)],
            outputs=[out_dir / "table1.csv"],
            work=records,
            sizes={"records": records, "replicates": spec["replicates"] * len(spec["betas"])
                   * len(spec["sample_sizes"]), "cells": len(spec["betas"])
                   * len(spec["sample_sizes"]), "penalties": len(TWO_NODE_PENALTIES)},
            extra=spec,
        )

    def digest(self, prepared: Prepared, stdout: str) -> str:
        return _digest(prepared.outputs[0].read_bytes())

    def check(self, prepared: Prepared, stdout: str) -> list[str]:
        spec = prepared.extra
        with open(prepared.outputs[0], encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if rows[:1] != [["beta", "n", "penalty", "wrong_pct", "mc_se"]]:
            return [f"table1.csv header is {rows[:1]}"]
        cells: dict[tuple[float, int], dict[str, float]] = {}
        for row in rows[1:]:
            beta, n, label, pct = float(row[0]), int(row[1]), row[2], float(row[3])
            if not 0.0 <= pct <= 100.0:
                return [f"wrong_pct {pct} outside [0, 100] at {row}"]
            cells.setdefault((beta, n), {})[label] = pct
        expected = {(b, n) for b in spec["betas"] for n in spec["sample_sizes"]}
        if set(cells) != expected or len(rows) - 1 != len(expected) * len(TWO_NODE_PENALTIES):
            return [f"table1.csv has {len(rows) - 1} rows over cells {sorted(cells)}"]
        failures = []
        for (beta, n), by_label in sorted(cells.items()):
            if sorted(by_label) != sorted(TWO_NODE_PENALTIES):
                failures.append(f"cell ({beta}, {n}) has penalties {sorted(by_label)}")
                continue
            # A smaller lambda_n can only select the spurious edge more often.
            ordered = sorted(TWO_NODE_PENALTIES, key=lambda lb: -_two_node_lambda(lb, n))
            pcts = [by_label[lb] for lb in ordered]
            if any(b < a for a, b in zip(pcts, pcts[1:])):
                failures.append(f"cell ({beta}, {n}): wrong_pct {pcts} decreases as lambda falls")
        return failures


# ---------------------------------------------------------------------------
# learn37_kper2: `nalearn learn --profile` on the 37-node structure
# ---------------------------------------------------------------------------

LEARN37_SIZES = {FULL: dict(records=1000, max_parents=3), TINY: dict(records=100, max_parents=1)}


def _sample_records(cards, parents, rng, n: int) -> np.ndarray:
    """Forward-sample n complete records; parents of node i must precede i."""
    tables = [rng.dirichlet(np.ones(q), size=math.prod(cards[p] for p in ps))
              for q, ps in zip(cards, parents)]
    u = rng.random((n, len(cards)))
    vals = np.zeros((n, len(cards)), dtype=np.int64)
    for i, ps in enumerate(parents):
        j = np.zeros(n, dtype=np.int64)
        for p in ps:
            j = j * cards[p] + vals[:, p]
        cum = np.cumsum(tables[i], axis=1)[j]
        vals[:, i] = np.minimum((u[:, i][:, None] >= cum).sum(axis=1), cards[i] - 1)
    return vals


def _mask_k_per_record(vals: np.ndarray, k: int, rng) -> np.ndarray:
    """Mark k distinct, uniformly chosen cells of every record missing (-1)."""
    out = vals.copy()
    idx = np.argpartition(rng.random(vals.shape), k - 1, axis=1)[:, :k]
    out[np.arange(vals.shape[0])[:, None], idx] = -1
    return out


def _write_net(path: Path, variables, parents, tables=None) -> None:
    """The package's network file format; a structure file when tables is None."""
    obj = {"variables": [{"name": v.name, "cardinality": v.cardinality} for v in variables],
           "parents": [list(ps) for ps in parents]}
    if tables is not None:
        obj["cpt"] = [t.tolist() for t in tables]
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _candidate_count(num_preds: int, max_parents: int) -> int:
    return sum(math.comb(num_preds, m) for m in range(min(max_parents, num_preds) + 1))


def _parse_edges(text: str, num_nodes: int) -> list[list[int]]:
    parents: list[list[int]] = [[] for _ in range(num_nodes)]
    for edge in filter(None, text.split(";")):
        p, c = edge.split("->")
        parents[int(c)].append(int(p))
    return parents


def _structure_problem(parents, num_nodes: int, max_parents: int) -> str | None:
    """Why a DAG breaks the identity order or the in-degree bound, if it does."""
    if len(parents) != num_nodes:
        return f"{len(parents)} nodes"
    for i, ps in enumerate(parents):
        if len(ps) > max_parents or len(set(ps)) != len(ps):
            return f"node {i} has parents {ps}"
        if any(not 0 <= p < i for p in ps):
            return f"node {i} has parents {ps} outside its order predecessors"
    return None


class Learn37KPer2:
    """`nalearn learn --penalty bic --max-parents 3 --profile` on 37 nodes, KPerRecord(2)."""

    name = "learn37_kper2"
    work_unit = "parent_sets"  # (node, parent set) candidates enumerated by learn + profile
    bindings = [
        "nalearn.cli:main",
        "nalearn.cli:read_csv",
        "nalearn.cli:learn_structure",
        "nalearn.cli:complexity_profile",
        "nalearn.search:count_sufficient_stats",
        "nalearn.search:node_nal_from_counts",
        "nalearn.search:SearchSpace.candidate_parent_sets",
    ]

    def prepare(self, workdir: Path, seed: int, size: str = FULL) -> Prepared:
        spec = LEARN37_SIZES[size]
        variables, dag = benchmark_structure_37()
        cards = [v.cardinality for v in variables]
        rng = np.random.default_rng(seed)
        complete = _sample_records(cards, dag.parents, rng, spec["records"])
        vals = _mask_k_per_record(complete, 2, rng)
        data_path = workdir / "data.csv"
        with open(data_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(",".join(v.name for v in variables) + "\n")
            for row in vals.tolist():
                f.write(",".join("NA" if c < 0 else str(c) for c in row) + "\n")
        structure_path = workdir / "structure.json"
        _write_net(structure_path, variables, dag.parents)
        learned, profile = workdir / "learned.json", workdir / "profile.csv"
        parent_sets = 2 * sum(_candidate_count(i, spec["max_parents"]) for i in range(len(cards)))
        return Prepared(
            argv=["learn", "--data", str(data_path), "--structure", str(structure_path),
                  "--penalty", "bic", "--max-parents", str(spec["max_parents"]),
                  "--out", str(learned), "--profile", str(profile)],
            outputs=[learned, profile],
            work=parent_sets,
            sizes={"records": spec["records"], "variables": len(cards),
                   "parent_sets": parent_sets, "missing_per_record": 2},
            extra={"variables": [(v.name, v.cardinality) for v in variables], **spec},
        )

    def digest(self, prepared: Prepared, stdout: str) -> str:
        return _digest(*(path.read_bytes() for path in prepared.outputs))

    def check(self, prepared: Prepared, stdout: str) -> list[str]:
        spec = prepared.extra
        num_nodes = len(spec["variables"])
        learned = json.loads(prepared.outputs[0].read_text(encoding="utf-8"))
        failures = []
        if [(v["name"], v["cardinality"]) for v in learned["variables"]] != [
            tuple(v) for v in spec["variables"]
        ]:
            failures.append("learned.json variables differ from the input schema")
        problem = _structure_problem(learned["parents"], num_nodes, spec["max_parents"])
        if problem:
            failures.append(f"learned DAG: {problem}")
        with open(prepared.outputs[1], encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if rows[:1] != [["t", "score", "edges"]] or len(rows) < 2:
            return failures + [f"profile.csv has header {rows[:1]} and {len(rows) - 1} rows"]
        ts = [int(r[0]) for r in rows[1:]]
        scores = [float(r[1]) for r in rows[1:]]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            failures.append("profile t is not strictly increasing")
        if any(b <= a for a, b in zip(scores, scores[1:])):
            failures.append("profile score is not strictly increasing")
        for r in rows[1:]:
            problem = _structure_problem(_parse_edges(r[2], num_nodes), num_nodes,
                                         spec["max_parents"])
            if problem:
                failures.append(f"profile DAG at t={r[0]}: {problem}")
                break
        return failures


# ---------------------------------------------------------------------------
# population8: `nalearn population` over the eight-node net's neighbourhood
# ---------------------------------------------------------------------------

POPULATION8_TOGGLES = {FULL: 3, TINY: 1}
POPULATION8_K = 2  # kper:2
POPULATION8_MAX_PARENTS = 3


def neighbourhood(true_parents, max_toggles: int, max_parents: int) -> list[list[list[int]]]:
    """DAGs compatible with the identity order, in-degree <= max_parents,
    at most max_toggles edge toggles away from true_parents (itself included)."""
    true_edges = {(p, i) for i, ps in enumerate(true_parents) for p in ps}
    possible = [(p, i) for i in range(len(true_parents)) for p in range(i)]
    out = []
    for m in range(max_toggles + 1):
        for toggles in combinations(possible, m):
            edges = true_edges.symmetric_difference(toggles)
            parents = [sorted(p for p, c in edges if c == i) for i in range(len(true_parents))]
            if all(len(ps) <= max_parents for ps in parents):
                out.append(parents)
    return out


class Population8:
    """`nalearn population --missing kper:2` over the eight-node net's neighbourhood."""

    name = "population8"
    work_unit = "dags"  # candidate DAGs reported
    bindings = [
        "nalearn.cli:main",
        "nalearn.cli:check_identifiability",
        "nalearn.cli:beta_of_collection",
        "nalearn.population:induced_theta_mcar",
        "nalearn.population:population_nal",
        "nalearn.population:_joint_array",
    ]

    def prepare(self, workdir: Path, seed: int, size: str = FULL) -> Prepared:
        net = eight_node_net()
        true_parents = [list(ps) for ps in net.dag.parents]
        if any(p >= i for i, ps in enumerate(true_parents) for p in ps):
            raise ValueError("the eight-node net's node order is no longer topological")
        candidates = neighbourhood(true_parents, POPULATION8_TOGGLES[size],
                                   POPULATION8_MAX_PARENTS)
        order = np.random.default_rng(seed).permutation(len(candidates))
        candidates = [candidates[i] for i in order]
        net_path = workdir / "net.json"
        _write_net(net_path, net.variables, true_parents, net.cpt.tables)
        cand_path = workdir / "candidates.json"
        cand_path.write_text(json.dumps(candidates) + "\n", encoding="utf-8")
        num_nodes = len(true_parents)
        return Prepared(
            argv=["population", "--net", str(net_path), "--candidates", str(cand_path),
                  "--missing", f"kper:{POPULATION8_K}"],
            outputs=[],
            work=len(candidates),
            sizes={"dags": len(candidates), "joint_states": math.prod(
                v.cardinality for v in net.variables), "variables": num_nodes},
            extra={"true_index": candidates.index(true_parents), "num_nodes": num_nodes,
                   "dags": len(candidates),
                   "largest_family": 1 + max(len(ps) for c in candidates for ps in c)},
        )

    def digest(self, prepared: Prepared, stdout: str) -> str:
        return _digest(stdout.encode("utf-8"))

    def check(self, prepared: Prepared, stdout: str) -> list[str]:
        spec = prepared.extra
        lines = stdout.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        table = "\n".join(ln for ln in lines if not ln.startswith("#"))
        rows = list(csv.reader(io.StringIO(table)))
        failures = []
        if rows[:1] != [["dag", "df", "population_nal", "is_superset_of_true", "maximizer"]]:
            return [f"population header is {rows[:1]}"]
        rows = rows[1:]
        if [int(r[0]) for r in rows] != list(range(spec["dags"])):
            return [f"population reports {len(rows)} DAGs, expected {spec['dags']}"]
        if "# identifiable = True" not in comments:
            failures.append(f"not identifiable: {comments}")
        # beta is the smallest observation probability: that of the largest family
        N, s = spec["num_nodes"], spec["largest_family"]
        beta = math.comb(N - POPULATION8_K, s) / math.comb(N, s)
        printed = [float(c.split("=")[1]) for c in comments if c.startswith("# beta =")]
        if len(printed) != 1 or abs(printed[0] - beta) > 1e-9:
            failures.append(f"beta {printed}, expected C({N}-{POPULATION8_K},{s})/C({N},{s})"
                            f" = {beta}")
        nals = [float(r[2]) for r in rows]
        true_row = rows[spec["true_index"]]
        if true_row[4] != "1" or float(true_row[2]) < max(nals) - 1e-9:
            failures.append(f"true DAG row {true_row} is not a maximizer (max nal {max(nals)})")
        if true_row[3] != "1":
            failures.append("true DAG is not reported as a superset of itself")
        return failures


WORKLOADS = {w.name: w for w in (TwoNodeTable(), Learn37KPer2(), Population8())}
