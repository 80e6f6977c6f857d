"""Record each workload's output digest at fixed seeds into reference.json.

    python3 perfbench/record_reference.py [--seeds 1 2 3]

Run it at the commit whose outputs are the reference. A benchmark run whose
--seed is recorded compares its outputs against the digest, so a change that
alters any output byte at that seed is counted as a failed operation. Each
recorded output must also pass the workload's own checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    run._import_program()
    from workloads import WORKLOADS

    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        for seed in args.seeds:
            workdir = run.OUT / f"reference_{workload.name}_{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                prepared = workload.prepare(workdir, seed)
                _, failures, stdout = run.run_command(workload, prepared, seed, {})
                if failures:
                    print(f"{workload.name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                digest = workload.digest(prepared, stdout)
                digests.setdefault(workload.name, {})[str(seed)] = digest
                print(workload.name, seed, digest)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    commit = run._git_commit()
    run.REFERENCE.write_text(
        json.dumps({"commit": commit, "digests": digests}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
