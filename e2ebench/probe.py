"""One set-up sample, taken in a fresh interpreter.

Times ``import repro.cli`` and then the one-time preparation a command-line
user of the workload pays on every invocation, and prints both as JSON with
the mean of two reference-loop timings taken right before and right after
them (see ``reference.py``)::

    PYTHONPATH=src python3 e2ebench/probe.py --workload dse-chain --seed 1
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    arguments = parser.parse_args()

    from reference import time_reference

    before = time_reference()
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[arguments.workload](arguments.seed, Path.cwd())
    prepare_start = time.perf_counter()
    workload.prepare_invocation()
    done = time.perf_counter()
    after = time_reference()
    print(json.dumps({"import_s": imported - start, "prepare_s": done - prepare_start,
                      "reference_s": (before + after) / 2}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
