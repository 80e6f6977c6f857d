"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the program's public functions at the module bindings their
callers use (``nalearn.search:count_sufficient_stats`` is the name the search
code calls, so wrapping it there times the search's counting and nothing
else). Nothing under ``src/`` changes: wrappers are installed for one command
and the original bindings are restored afterwards.

A span is one call of a wrapped function. Its total time counts toward
``<name>.s`` and its self time (total minus the wrapped calls nested inside
it) toward the layer's ``self_s`` and share. A layer is the first component
of a span name and is one module of the package. Counters are taken from a
call's arguments and result by a hook that runs after the span has closed;
its cost is charged to no span and shows only in ``trace.overhead_frac``.

If a refactor removes a binding a workload relies on, or a hook can no longer
read what it needs, the metrics built on it are reported absent instead of
failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

NEG_INF = float("-inf")


def _arg(pos: dict[str, int], args, kwargs, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos[name]]


def _count_forward_sample(c, pos, args, kwargs, result):
    c["sampling.records"] += result.values.shape[0]


def _count_apply_mcar(c, pos, args, kwargs, result):
    c["sampling.masked_cells"] += int((result.values < 0).sum())
    c["sampling.cells"] += result.values.size


def _count_sufficient_stats(c, pos, args, kwargs, result):
    data = _arg(pos, args, kwargs, "data")
    rows = data.values.shape[0]
    c["data.rows_scanned"] += rows
    c["data.rows_available"] += result.n_i
    # computed, not measured: every row of the node and each parent column
    c["data.bytes_read_computed"] += rows * (1 + len(result.parents)) * data.values.itemsize


def _count_nal(c, pos, args, kwargs, result):
    c["scoring.neg_inf"] += result == NEG_INF


def _count_candidates(c, pos, args, kwargs, result):
    c["search.parent_sets"] += len(result)


def _count_profile(c, pos, args, kwargs, result):
    c["search.profile_points"] += len(result)


def _count_joint(c, pos, args, kwargs, result):
    # computed, not measured: one cell per joint state built
    c["population.joint_cells_computed"] += result.size


def _count_replicates(c, pos, args, kwargs, result):
    c["experiments.replicates"] += _arg(pos, args, kwargs, "replicates")


@dataclass(frozen=True)
class Probe:
    """One function, the bindings it is wrapped at, and what is read from it."""

    name: str  # "<layer>.<function>"
    bindings: tuple[str, ...]  # "module:attribute" or "module:Class.attribute"
    hook: Callable | None = None
    span: bool = True  # False: count only, time stays with the caller


PROBES = [
    Probe("cli.main", ("nalearn.cli:main",)),
    Probe("experiments.load_config", ("nalearn.experiments:load_config",)),
    Probe("experiments.run_two_node", ("nalearn.experiments:run_two_node",)),
    Probe("experiments.two_node_wrong_fraction",
          ("nalearn.experiments:two_node_wrong_fraction",), _count_replicates),
    Probe("experiments.write_rows", ("nalearn.experiments:write_rows",)),
    Probe("sampling.forward_sample",
          ("nalearn.experiments:forward_sample", "nalearn.cli:forward_sample"),
          _count_forward_sample),
    Probe("sampling.apply_mcar",
          ("nalearn.experiments:apply_mcar", "nalearn.cli:apply_mcar"), _count_apply_mcar),
    Probe("data.count_sufficient_stats",
          ("nalearn.experiments:count_sufficient_stats", "nalearn.search:count_sufficient_stats",
           "nalearn.scoring:count_sufficient_stats"), _count_sufficient_stats),
    Probe("data.read_csv", ("nalearn.cli:read_csv",)),
    Probe("scoring.node_nal_from_counts",
          ("nalearn.experiments:node_nal_from_counts", "nalearn.search:node_nal_from_counts"),
          _count_nal),
    Probe("search.learn_structure", ("nalearn.cli:learn_structure",)),
    Probe("search.complexity_profile", ("nalearn.cli:complexity_profile",), _count_profile),
    Probe("search.candidate_parent_sets",
          ("nalearn.search:SearchSpace.candidate_parent_sets",), _count_candidates, span=False),
    Probe("population.check_identifiability", ("nalearn.cli:check_identifiability",)),
    Probe("population.beta_of_collection", ("nalearn.cli:beta_of_collection",)),
    Probe("population.induced_theta_mcar", ("nalearn.population:induced_theta_mcar",)),
    Probe("population.population_nal", ("nalearn.population:population_nal",)),
    Probe("population.joint_array", ("nalearn.population:_joint_array",), _count_joint,
          span=False),
]

LAYERS = ["sampling", "data", "scoring", "search", "population", "experiments", "cli"]


@dataclass
class SpanStats:
    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


@dataclass
class Tracer:
    """Spans and counters of one traced command."""

    expected: frozenset[str]  # bindings the workload's command goes through
    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    absent: set[str] = field(default_factory=set)  # probes whose data is incomplete
    _stack: list[list[float]] = field(default_factory=list)

    def _wrap(self, probe: Probe, fn):
        stats = self.spans.setdefault(probe.name, SpanStats())
        params = inspect.signature(fn).parameters
        pos = {name: i for i, name in enumerate(params)}
        stack, counters, absent = self._stack, self.counters, self.absent
        hook = probe.hook

        def run_hook(args, kwargs, result):
            try:
                hook(counters, pos, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError):
                absent.add(probe.name)

        if not probe.span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                stats.calls += 1
                run_hook(args, kwargs, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            frame = [0.0]  # time of the spans nested inside this one
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats.total += t1 - t0
                stats.self_time += t1 - t0 - frame[0]
                stats.calls += 1
            if hook is not None:
                run_hook(args, kwargs, result)
            if stack:
                stack[-1][0] += perf_counter() - t0
            return result

        return spanned

    @contextmanager
    def installed(self):
        """Wrap every probe binding that exists; restore them on exit."""
        restore = []
        try:
            for probe in PROBES:
                for binding in probe.bindings:
                    owner, attr = _resolve(binding)
                    if owner is None or not hasattr(owner, attr):
                        if binding in self.expected:
                            self.absent.add(probe.name)
                        continue
                    fn = getattr(owner, attr)
                    inherited = isinstance(owner, type) and attr not in vars(owner)
                    restore.append((owner, attr, fn, inherited))
                    setattr(owner, attr, self._wrap(probe, fn))
            yield self
        finally:
            for owner, attr, fn, inherited in reversed(restore):
                if inherited:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, fn)


def _resolve(binding: str):
    """(object holding the attribute, attribute name); (None, name) if gone."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, probes it needs, value from (spans, counters))
METRICS: dict[str, tuple[str, tuple[str, ...], Callable]] = {}


def _metric(name: str, unit: str, needs: tuple[str, ...], fn: Callable) -> None:
    METRICS[name] = (unit, needs, fn)


def _span_metrics(probe: str) -> None:
    _metric(f"{probe}.s", "s", (probe,), lambda s, c: s[probe].total)
    _metric(f"{probe}.calls", "count", (probe,), lambda s, c: s[probe].calls)


_span_metrics("sampling.forward_sample")
_metric("sampling.records", "count", ("sampling.forward_sample",),
        lambda s, c: c["sampling.records"])
_span_metrics("sampling.apply_mcar")
_metric("sampling.masked_frac", "ratio", ("sampling.apply_mcar",),
        lambda s, c: _ratio(c["sampling.masked_cells"], c["sampling.cells"]))
_span_metrics("data.count_sufficient_stats")
_metric("data.rows_scanned", "count", ("data.count_sufficient_stats",),
        lambda s, c: c["data.rows_scanned"])
_metric("data.available_frac", "ratio", ("data.count_sufficient_stats",),
        lambda s, c: _ratio(c["data.rows_available"], c["data.rows_scanned"]))
_metric("data.bytes_read_computed", "B", ("data.count_sufficient_stats",),
        lambda s, c: c["data.bytes_read_computed"])
_metric("data.read_csv.s", "s", ("data.read_csv",), lambda s, c: s["data.read_csv"].total)
_span_metrics("scoring.node_nal_from_counts")
_metric("scoring.neg_inf_frac", "ratio", ("scoring.node_nal_from_counts",),
        lambda s, c: _ratio(c["scoring.neg_inf"], s["scoring.node_nal_from_counts"].calls))
_metric("search.learn_structure.self_s", "s", ("search.learn_structure",),
        lambda s, c: s["search.learn_structure"].self_time)
_metric("search.complexity_profile.self_s", "s", ("search.complexity_profile",),
        lambda s, c: s["search.complexity_profile"].self_time)
_metric("search.parent_sets", "count", ("search.candidate_parent_sets",),
        lambda s, c: c["search.parent_sets"])
# every count call of a search workload comes from the search
_metric("search.count_calls_per_parent_set", "ratio",
        ("search.candidate_parent_sets", "data.count_sufficient_stats"),
        lambda s, c: _ratio(s["data.count_sufficient_stats"].calls, c["search.parent_sets"]))
_metric("search.profile_points", "count", ("search.complexity_profile",),
        lambda s, c: c["search.profile_points"])
_span_metrics("population.induced_theta_mcar")
_metric("population.population_nal.s", "s", ("population.population_nal",),
        lambda s, c: s["population.population_nal"].total)
_metric("population.check_identifiability.self_s", "s", ("population.check_identifiability",),
        lambda s, c: s["population.check_identifiability"].self_time)
_metric("population.joint_cells_computed", "count", ("population.joint_array",),
        lambda s, c: c["population.joint_cells_computed"])
_metric("experiments.self_s", "s",
        tuple(p.name for p in PROBES if p.name.startswith("experiments.")),
        lambda s, c: _layer_self(s, "experiments"))
_metric("experiments.replicates", "count", ("experiments.two_node_wrong_fraction",),
        lambda s, c: c["experiments.replicates"])
_metric("cli.self_s", "s", ("cli.main",), lambda s, c: s["cli.main"].self_time)
for _layer in LAYERS:
    _metric(f"{_layer}.share", "ratio",
            ("cli.main",) + tuple(p.name for p in PROBES if p.name.startswith(_layer + ".")),
            lambda s, c, layer=_layer: _ratio(_layer_self(s, layer), s["cli.main"].total))


def _layer_self(spans: dict[str, SpanStats], layer: str) -> float:
    return math.fsum(st.self_time for name, st in spans.items() if name.split(".")[0] == layer)


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Every per-layer metric of one traced command; None where absent."""
    out: dict[str, float | None] = {}
    for name, (_, needs, fn) in METRICS.items():
        if any(n in tracer.absent or n not in tracer.spans for n in needs):
            out[name] = None
        else:
            out[name] = float(fn(tracer.spans, tracer.counters))
    return out
