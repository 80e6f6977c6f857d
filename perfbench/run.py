"""nalearn benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nalearn is imported from ``src/``.
Workloads: two_node_table, learn37_kper2, population8 (see README.md).

Set-up (five times, median reported as ``setup_s``) times a fresh interpreter
importing ``nalearn.cli``, writes the inputs made from ``--seed``, and runs a
tiny warm-up of the same command. The measured loop then runs the workload's
CLI command in-process through ``nalearn.cli.main`` until ``--seconds`` is
spent, checks every output, and reports medians. With ``--trace 1`` it
alternates untraced and traced commands and reports the per-layer metrics of
the traced ones. The last line of stdout is the result as one JSON object; a
manifest and the result are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin every thread pool numpy might use before numpy is imported.
THREAD_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
REFERENCE = HERE / "reference.json"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}


def _import_program():
    """Import nalearn from this checkout's src/, never from elsewhere."""
    if not (SRC / "nalearn" / "__init__.py").is_file():
        raise SystemExit(f"error: no nalearn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nalearn.cli

    if Path(nalearn.__file__).resolve().parent != (SRC / "nalearn").resolve():
        raise SystemExit(f"error: imported nalearn from {nalearn.__file__}, not {SRC}")
    return nalearn


def _import_in_fresh_interpreter() -> None:
    """Start a new interpreter that imports the CLI, as every CLI user pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import nalearn.cli"], env=env, check=True,
                   cwd=ROOT, timeout=120)


def run_command(workload, prepared, seed: int | None, reference: dict, tracer=None):
    """Run the workload's CLI command once; return (wall seconds, failures, stdout)."""
    import nalearn.cli

    for path in prepared.outputs:  # a stale output must not pass the check
        if path.exists():
            path.unlink()
    buf = io.StringIO()
    gc.collect()
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    failures: list[str] = []
    t0 = perf_counter()
    try:
        with traced, contextlib.redirect_stdout(buf):
            code = nalearn.cli.main(prepared.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:
        code = None
        failures.append("raised: " + traceback.format_exc(limit=3))
    wall = perf_counter() - t0
    if code != 0 and not failures:
        failures.append(f"exit code {code}")
    stdout = buf.getvalue()
    if not failures:
        try:
            failures += workload.check(prepared, stdout)
            want = reference.get(workload.name, {}).get(str(seed))
            if want is not None and workload.digest(prepared, stdout) != want:
                failures.append(f"output digest differs from the reference at seed {seed}")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"output unreadable: {exc!r}")
    return wall, failures, stdout


def setup(workload, workdir: Path, seed: int):
    """Import probe, inputs from the seed and a tiny warm-up; returns (seconds, prepared)."""
    from workloads import TINY

    t0 = perf_counter()
    _import_in_fresh_interpreter()
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "warm").mkdir(parents=True)
    prepared = workload.prepare(workdir, seed)
    warm = workload.prepare(workdir / "warm", seed, TINY)
    _, failures, _ = run_command(workload, warm, None, {})
    if failures:
        raise RuntimeError(f"warm-up failed: {failures}")
    return perf_counter() - t0, prepared


def measure(workload, prepared, seed: int, seconds: float, trace: bool, reference: dict):
    """Run the command until `seconds` is spent; alternate traced runs if `trace`.

    A new run starts only while it is expected to end by half a run past the
    deadline, so a run lasts about `seconds` whatever one command costs.
    """
    from tracing import Tracer

    runs = []
    start = perf_counter()
    while True:
        tracer = Tracer(frozenset(workload.bindings)) if trace and len(runs) % 2 else None
        t0 = perf_counter()
        wall, failures, _ = run_command(workload, prepared, seed, reference, tracer)
        runs.append({"wall_s": wall, "traced": tracer is not None, "failures": failures,
                     "tracer": tracer})
        last = perf_counter() - t0
        enough = not trace or any(r["traced"] for r in runs)
        if enough and perf_counter() - start + 0.5 * last > seconds:
            return runs


def summarize(prepared, runs, setup_times, trace: bool):
    """The result line, and the names of per-layer metrics left out as absent."""
    from tracing import METRICS, layer_metrics

    failed = sum(1 for r in runs if r["failures"])
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    if not trace:
        wall = statistics.median(plain)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "work_per_s": prepared.work / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced = [layer_metrics(r["tracer"]) for r in runs if r["traced"]]
        for name, (unit, _, _) in METRICS.items():
            vals = [t[name] for t in traced if t[name] is not None]
            if len(vals) < len(traced):
                absent.append(name)
            else:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
        traced_wall = statistics.median([r["wall_s"] for r in runs if r["traced"]])
        metrics["trace.overhead_frac"] = {"value": traced_wall / statistics.median(plain) - 1.0,
                                          "unit": "ratio"}
        metrics["failed_frac"] = {"value": failed / len(runs), "unit": "ratio"}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return result, absent


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def manifest(args, workload, prepared, runs, setup_times, absent) -> dict:
    import nalearn
    import numpy

    failed = [r for r in runs if r["failures"]]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nalearn": nalearn.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "argv": prepared.argv,
        "input_sizes": prepared.sizes,
        "work_per_s_base": {"unit": workload.work_unit, "items_per_run": prepared.work},
        "setup_s_each": setup_times,
        "runs": [{"wall_s": r["wall_s"], "traced": r["traced"]} for r in runs],
        "failed_frac": {"failed": len(failed), "attempted": len(runs)},
        "failures": [r["failures"] for r in failed][:5],
        "absent_metrics": absent,
        "reference_seeds": sorted(_load_reference().get(workload.name, {}), key=int),
    }


def _load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"work_{tag}_{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            seconds, prepared = setup(workload, workdir, args.seed)
            setup_times.append(seconds)
        runs = measure(workload, prepared, args.seed, args.seconds, bool(args.trace),
                       _load_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, absent = summarize(prepared, runs, setup_times, bool(args.trace))
    info = manifest(args, workload, prepared, runs, setup_times, absent)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    (OUT / f"{tag}.manifest.json").write_text(json.dumps(info, indent=1) + "\n")
    for failure in info["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if absent:
        print(f"absent metrics (binding or field gone): {absent}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
