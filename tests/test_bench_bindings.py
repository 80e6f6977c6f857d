"""Every call path the benchmark traces still exists in the package.

The traced benchmark wraps functions at the module bindings its workloads
list and reports a metric absent when a binding is gone, so a refactor that
drops one would only show as an empty per-layer metric. These tests fail
instead: every binding must resolve, and a traced tiny two-node command must
fill the sampling and counting metrics. The others pin the full-size
learn37_kper2 and population8 outputs to the benchmark's reference digests.
They load perfbench/workloads.py and perfbench/tracing.py from their files and
change nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_bindings_resolve(workload):
    for binding in workloads.WORKLOADS[workload].bindings:
        owner, attr = tracing._resolve(binding)
        assert owner is not None and hasattr(owner, attr), f"{workload}: {binding} is gone"


def test_traced_two_node_command_fills_the_sampling_metrics(tmp_path, capsys):
    # a kernel called around the nalearn.experiments bindings would leave these at 0
    import nalearn.cli

    workload = workloads.WORKLOADS["two_node_table"]
    prepared = workload.prepare(tmp_path, seed=1, size=workloads.TINY)
    tracer = tracing.Tracer(frozenset(workload.bindings))
    with tracer.installed():
        assert nalearn.cli.main(prepared.argv) == 0
    capsys.readouterr()
    assert not tracer.absent
    metrics = tracing.layer_metrics(tracer)
    for name in ("sampling.forward_sample.calls", "sampling.apply_mcar.calls",
                 "data.count_sufficient_stats.calls"):
        assert metrics[name] is not None and metrics[name] > 0, name
    assert metrics["sampling.records"] == prepared.work
    # the probe reads the replicates of each cell's two_node_wrong_fraction call
    assert metrics["experiments.replicates"] == prepared.sizes["replicates"]


def _matches_the_reference_digest(name, seed, tmp_path, capsys) -> bool:
    import nalearn.cli

    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(tmp_path, seed=seed, size=workloads.FULL)
    assert nalearn.cli.main(prepared.argv) == 0
    stdout = capsys.readouterr().out
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    return workload.digest(prepared, stdout) == reference["digests"][name][str(seed)]


def test_learn37_kper2_output_matches_the_reference_digest(tmp_path, capsys):
    # a node's level-1 digit spans the states of up to 36 predecessors, so its
    # code times that span passes 255: a product formed in uint8 would wrap
    assert _matches_the_reference_digest("learn37_kper2", 1, tmp_path, capsys)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_population8_output_matches_the_reference_digest(seed, tmp_path, capsys):
    # every NAL is printed at %.12g: an ulp of drift in a family's score can
    # flip a printed digit
    assert _matches_the_reference_digest("population8", seed, tmp_path, capsys)
