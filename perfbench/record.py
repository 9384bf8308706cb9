"""Record the reference outputs the output check compares against.

Usage: ``python3 perfbench/record.py FIRST_SEED LAST_SEED [WORKLOAD ...]``

For each workload and seed in the inclusive range, runs one single-call
repetition and stores its ``trace.csv`` SHA-256 and simulated totals in
``expected.json``, keeping entries already there.  Re-record only when the
generator changes; a program change must reproduce the recorded outputs.
"""

from __future__ import annotations

import json
import sys

import gen
from run import RECORDED, CHILD_TIMEOUT_S, run_child


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    workloads = argv[2:] or list(gen.WORKLOADS)
    table = json.loads(RECORDED.read_text()) if RECORDED.is_file() else {}
    for workload in workloads:
        entries = table.setdefault(workload, {})
        for seed in range(first, last + 1):
            result = run_child(gen.document_text(workload, seed), "single", CHILD_TIMEOUT_S)
            entries[str(seed)] = {"digest": result["digest"], "stats": result["stats"]}
            print(workload, seed, result["digest"], result["stats"], flush=True)
        table[workload] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
    RECORDED.write_text(json.dumps({w: table[w] for w in sorted(table)}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
