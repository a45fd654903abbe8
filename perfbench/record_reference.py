#!/usr/bin/env python3
"""Record the reference output digests that seed-0 runs are checked against.

usage: python3 perfbench/record_reference.py

Runs each workload once at seed 0 and writes the SHA-256 of its
deterministic outputs to reference_digests.json. Run it only on a commit
whose outputs are known to be right, and only when a workload's inputs
change: the digests are the benchmark's byte-identity gate.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, write_inputs

    run.BUILD.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.BUILD))
        try:
            inputs = workload.inputs(0)
            runner = run.Runner(
                workload, inputs, write_inputs(inputs, workdir), None, workdir
            )
            problems = runner.invoke(traced=False)["problems"]
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = runner.first_digests
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    checks.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
