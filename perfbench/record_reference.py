"""Record the reference output of every job the benchmark can run.

Usage, from the root of a source checkout::

    python3 perfbench/record_reference.py

Runs each job of ``workloads.all_jobs()`` twice, requires both runs to
succeed with the same output, and writes the exit code and stdout SHA-256
to ``reference.json``.
Record only at a commit whose outputs are known to be right: the benchmark
counts every later difference as a wrong answer.
"""

from __future__ import annotations

import json
import sys
import time

import workloads
from run import REFERENCE, run_job


def main() -> int:
    reference = {}
    for job in workloads.all_jobs():
        key = workloads.job_key(job)
        first, second = (run_job(job, time.monotonic() + 600) for _ in range(2))
        if first.exit_code != 0:
            print(f"error: {key} exits with {first.exit_code}", file=sys.stderr)
            return 1
        if (first.exit_code, first.sha256) != (second.exit_code, second.sha256):
            print(f"error: {key} gives different output on a rerun", file=sys.stderr)
            return 1
        reference[key] = {"exit": first.exit_code, "sha256": first.sha256}
        print(f"{first.seconds:7.3f}s  exit {first.exit_code}  {key}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
