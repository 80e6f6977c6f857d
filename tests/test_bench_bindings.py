"""Every call path the benchmark traces still exists in the package.

The traced benchmark wraps functions at the module bindings its workloads
list and reports a metric absent when a binding is gone, so a refactor that
drops one would only show as an empty per-layer metric. This test fails
instead. It loads perfbench/workloads.py and perfbench/tracing.py from their
files and changes nothing there.
"""

import importlib.util
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
