"""Tests of the benchmark itself: tiny runs of each workload, failure counting,
absent metrics, the result-line contract and the refusal to run without sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import nalearn.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# The layer each workload exists to load, and a counter that must be non-zero.
DOMINANT = {
    "two_node_table": ("sampling.forward_sample.calls", "experiments.replicates"),
    "learn37_kper2": ("data.count_sufficient_stats.calls", "search.parent_sets"),
    "population8": ("population.induced_theta_mcar.calls", "population.joint_cells_computed"),
}


def _prepare(name, tmp_path):
    return WORKLOADS[name].prepare(tmp_path, seed=7, size=TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_checks_and_traces_its_layer(name, tmp_path):
    workload = WORKLOADS[name]
    prepared = _prepare(name, tmp_path)
    _, failures, _ = run.run_command(workload, prepared, 7, {})
    assert failures == []

    originals = (nalearn.cli.main, nalearn.search.SearchSpace.candidate_parent_sets)
    tracer = tracing.Tracer(frozenset(workload.bindings))
    _, failures, _ = run.run_command(workload, prepared, 7, {}, tracer)
    assert failures == []
    metrics = tracing.layer_metrics(tracer)
    assert None not in metrics.values()
    for counter in DOMINANT[name]:
        assert metrics[counter] > 0
    # every wrapper is gone once the command returns
    assert (nalearn.cli.main, nalearn.search.SearchSpace.candidate_parent_sets) == originals
    assert nalearn.search.count_sufficient_stats is nalearn.data.count_sufficient_stats


def _break_two_node(prepared, stdout):
    path = prepared.outputs[0]
    lines = path.read_text().splitlines()
    first = lines[1].split(",")  # a0.2, the largest lambda: now the most wrong
    first[3] = "100"
    path.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    return stdout


def _break_learn37(prepared, stdout):
    path = prepared.outputs[1]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")  # t repeats
    return stdout


def _break_population8(prepared, stdout):
    return stdout.replace("# identifiable = True", "# identifiable = False")


CORRUPT = {
    "two_node_table": _break_two_node,
    "learn37_kper2": _break_learn37,
    "population8": _break_population8,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_is_counted_as_failure(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    prepared = _prepare(name, tmp_path)
    real_main = nalearn.cli.main

    def corrupting_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(argv)
        sys.stdout.write(CORRUPT[name](prepared, buf.getvalue()))
        return code

    monkeypatch.setattr(nalearn.cli, "main", corrupting_main)
    runs = run.measure(workload, prepared, 7, 0.01, False, {})
    result, _ = run.summarize(prepared, runs, [0.1], False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_mismatch_at_recorded_seed_is_a_failure(name, tmp_path):
    workload = WORKLOADS[name]
    prepared = _prepare(name, tmp_path)
    _, failures, stdout = run.run_command(workload, prepared, 7, {})
    good = {name: {"7": workload.digest(prepared, stdout)}}
    assert run.run_command(workload, prepared, 7, good)[1] == []
    bad = {name: {"7": "0" * 64}}
    assert run.run_command(workload, prepared, 7, bad)[1] != []
    assert run.run_command(workload, prepared, 8, bad)[1] == []  # seed not recorded


def test_missing_binding_is_reported_absent(tmp_path, monkeypatch):
    workload = WORKLOADS["population8"]
    renamed = "nalearn.population:_joint_array_renamed"
    probes = [replace(p, bindings=(renamed,)) if p.name == "population.joint_array" else p
              for p in tracing.PROBES]
    monkeypatch.setattr(tracing, "PROBES", probes)
    tracer = tracing.Tracer(frozenset(workload.bindings) | {renamed})
    _, failures, _ = run.run_command(workload, _prepare("population8", tmp_path), 7, {}, tracer)
    assert failures == []
    metrics = tracing.layer_metrics(tracer)
    assert metrics["population.joint_cells_computed"] is None
    assert metrics["population.induced_theta_mcar.calls"] > 0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    expected.update({"trace.overhead_frac": "ratio", "failed_frac": "ratio"})
    assert per_layer == expected


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "population8", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "population8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
