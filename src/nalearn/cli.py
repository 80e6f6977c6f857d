"""Command-line interface.

Subcommands: sample, mask, score, population, learn, compare, experiment.
Exit codes: 0 success, 2 configuration/usage error, 3 check-mode failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import product
from pathlib import Path

from . import experiments
from .data import read_csv, write_csv
from .errors import ConfigError, NalearnError, StateSpaceTooLarge
from .model import load_net, load_structure, parent_lists_from_json, read_json, save_structure
from .population import beta_of_collection, check_identifiability
from .sampling import apply_mcar, forward_sample, parse_missingness
from .scoring import parse_penalty, score_decomposable, score_global
from .search import SearchSpace, complexity_profile, learn_structure
from .equivalence import dags_equivalent, edge_precision_recall, edge_f_score


# `population --candidates order` holds, scores and prints every DAG of the
# product: about 4.5 us and 0.5 kB each on the eight-node net (40,320 DAGs at
# --max-parents 1), so its 67,092,480 DAGs at --max-parents 3 would take about
# 5 minutes and 34 GB. Larger spaces are refused
ORDER_DAG_CAP = 10_000


def _require_nonnegative(**options) -> None:
    for name, value in options.items():
        if value < 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def cmd_sample(args) -> int:
    _require_nonnegative(n=args.n, seed=args.seed)
    net = load_net(args.net)
    data = forward_sample(net, args.n, args.seed)
    write_csv(data, args.out)
    return 0


def cmd_mask(args) -> int:
    _require_nonnegative(seed=args.seed)
    if args.net:
        variables = list(load_net(args.net).variables)
    else:
        variables, _ = load_structure(args.structure)
    model = parse_missingness(args.missing, len(variables))
    if model is None:
        raise ConfigError("mask --missing none would mask nothing; write bernoulli:p[,p...] "
                          "or kper:k")
    data = read_csv(args.infile, variables)
    write_csv(apply_mcar(data, model, args.seed), args.out)
    return 0


def cmd_score(args) -> int:
    variables, dag = load_structure(args.net_structure)
    penalty = parse_penalty(args.penalty, len(variables))
    data = read_csv(args.data, variables)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.decomposable:
        total, breakdown = score_decomposable(data, dag, penalty)
        writer.writerow(["node", "parents", "nal", "n_i", "df", "penalized"])
        for b in breakdown:
            writer.writerow(
                [b.node, " ".join(map(str, b.parents)), f"{b.nal:.10g}", b.n_i, b.df,
                 f"{b.penalized:.10g}"]
            )
        writer.writerow(["total", "", "", "", "", f"{total:.10g}"])
    else:
        total = score_global(data, dag, penalty)
        writer.writerow(["total"])
        writer.writerow([f"{total:.10g}"])
    return 0


def _population_candidates(args, net):
    """The candidates of `population` as parent lists: the order-compatible space or a file."""
    if args.candidates != "order":
        if args.max_parents is not None:
            raise ConfigError("--max-parents bounds --candidates order only; a candidate "
                              "file lists its own parents")
        return read_json(args.candidates, parent_lists_from_json)
    max_parents = 3 if args.max_parents is None else args.max_parents
    _require_nonnegative(max_parents=max_parents)
    space = SearchSpace(net.dag.topological_order(), max_parents)
    total = math.prod(map(space.num_candidates, range(net.num_nodes)))
    if total > ORDER_DAG_CAP:
        raise StateSpaceTooLarge(
            f"--candidates order spans {total} DAGs, above the cap of "
            f"{ORDER_DAG_CAP}; lower --max-parents or pass a candidate file"
        )
    return list(product(*map(space.candidate_parent_sets, range(net.num_nodes))))


def cmd_population(args) -> int:
    net = load_net(args.net)
    missing = parse_missingness(args.missing, net.num_nodes)
    report = check_identifiability(net, _population_candidates(args, net))
    beta = beta_of_collection(report.families, missing, net.num_nodes)
    out = sys.stdout
    out.write("dag,df,population_nal,is_superset_of_true,maximizer\n")
    rows = zip(report.df.tolist(), report.nal.tolist(), report.is_superset_of_true.tolist(),
               report.is_maximizer.tolist())
    for idx, (df, nal, superset, maximizer) in enumerate(rows):
        out.write(f"{idx},{df},{nal:.12g},{superset:d},{maximizer:d}\n")
    out.write(f"# beta = {beta:.10g}\n")
    out.write(f"# identifiable = {report.identifiable}\n")
    return 0


def _space_from_args(args, variables) -> SearchSpace:
    names = [v.name for v in variables]
    try:
        if args.order:
            order = [names.index(nm) for nm in args.order.split(",")]
        else:
            order = list(range(len(names)))
        return SearchSpace(order, args.max_parents)
    except ValueError as exc:
        raise ConfigError(f"bad --order or --max-parents: {exc}") from None


def cmd_learn(args) -> int:
    variables, _ = load_structure(args.structure)
    space = _space_from_args(args, variables)
    penalty = parse_penalty(args.penalty, len(variables))
    data = read_csv(args.data, variables)
    learned = learn_structure(data, space, penalty)
    save_structure(learned, variables, args.out)
    if args.profile:
        points = complexity_profile(data, space)  # reuses the search's family scores
        with open(args.profile, "w", encoding="utf-8", newline="\n") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["t", "score", "edges"])
            family_edges: dict[tuple[int, tuple[int, ...]], str] = {}  # formatted once each
            for pt in points:
                texts = []
                for family in enumerate(pt.dag.parents):
                    text = family_edges.get(family)
                    if text is None:
                        i, parents = family
                        text = family_edges[family] = ";".join(f"{p}->{i}" for p in parents)
                    if text:
                        texts.append(text)
                writer.writerow([pt.t, f"{pt.best_score:.10g}", ";".join(texts)])
    return 0


def cmd_compare(args) -> int:
    _, truth = load_structure(args.truth)
    _, estimate = load_structure(args.estimate)
    precision, recall = edge_precision_recall(truth, estimate)
    f = edge_f_score(truth, estimate)
    equivalent = dags_equivalent(truth, estimate)
    print(f"precision {precision:.6g}")
    print(f"recall {recall:.6g}")
    print(f"f_score {f:.6g}")
    print(f"equivalent {'yes' if equivalent else 'no'}")
    return 0


def cmd_experiment(args) -> int:
    config = experiments.load_config(args.config)
    mode = args.mode
    if args.check:
        if mode != "two-node":
            raise ConfigError(f"--check compares the two-node table only, not --mode {mode}")
        penalties = [parse_penalty(spec, 2) for spec in config.penalties]
        grid = product(config.betas, config.sample_sizes, penalties)
        if not any(cell in experiments.TWO_NODE_REFERENCE for cell in grid):
            raise ConfigError("--check: no (beta, n, penalty) of the grid has a reference value")
    run, name = {"two-node": (experiments.run_two_node, "table1.csv"),
                 "recovery": (experiments.run_recovery, "recovery.csv"),
                 "rates": (experiments.run_rate_probe, "rates.csv")}[mode]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run(config)
    experiments.write_rows(rows, out_dir / name)
    failures = experiments.check_two_node(rows) if args.check else []
    for msg in failures:
        print(f"CHECK FAIL {msg}", file=sys.stderr)
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nalearn",
        description="Structure learning of discrete Bayesian networks from "
        "incomplete data via penalized node-average log-likelihood.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="forward-sample complete records")
    p.add_argument("--net", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("mask", help="apply MCAR masking to a CSV dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--missing", required=True, help="bernoulli:p,... | kper:k")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    schema = p.add_mutually_exclusive_group(required=True)
    schema.add_argument("--net", help="network file giving the schema")
    schema.add_argument("--structure", help="structure file giving the schema")
    p.set_defaults(func=cmd_mask)

    p = subs.add_parser("score", help="score a structure against a dataset")
    p.add_argument("--net-structure", dest="net_structure", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--penalty", required=True, help="aic | bic | none | a<alpha>[c<coef>]")
    p.add_argument("--decomposable", action="store_true")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("population", help="population NAL / identifiability report")
    p.add_argument("--net", required=True)
    p.add_argument("--candidates", required=True, help='"order" or a JSON list file')
    p.add_argument("--missing", default="none", help="none | bernoulli:p,... | kper:k")
    p.add_argument("--max-parents", type=int, default=None,
                   help="in-degree bound of --candidates order (default 3)")
    p.set_defaults(func=cmd_population)

    p = subs.add_parser("learn", help="learn a structure from data")
    p.add_argument("--data", required=True)
    p.add_argument("--structure", required=True, help="structure file giving the schema")
    p.add_argument("--order", default=None, help="comma list of variable names")
    p.add_argument("--max-parents", type=int, default=3)
    p.add_argument("--penalty", required=True, help="aic | bic | none | a<alpha>[c<coef>]")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", default=None, help="write the complexity profile CSV")
    p.set_defaults(func=cmd_learn)

    p = subs.add_parser("compare", help="compare an estimate against the truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["two-node", "recovery", "rates"], required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NalearnError, OSError) as exc:  # OSError: a missing file, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
