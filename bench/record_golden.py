"""Record the sha256 of every job's report bytes (analyze report JSON,
CLI stdout, valuation tally) for the default seed into golden.json.

    python3 bench/record_golden.py

A run with --trace 1 compares the current bytes against this file and
reports the number of jobs whose bytes changed as cli.reports_changed,
with their names.  Re-record only when a change to report bytes is
intended and explained.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import sample  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main():
    golden = {}
    for name in sorted(WORKLOADS):
        record = sample(name, DEFAULT_SEED, "drift")
        if record["failed"]:
            raise SystemExit(f"{name}: outputs fail their checks: {record['failures']}")
        golden[name] = record["hashes"]
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
