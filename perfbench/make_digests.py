"""Regenerate ``perfbench/digests.json``: the pinned result digests.

    python3 perfbench/make_digests.py

Runs every workload cell and every warm-up cell once at the default
seed and records the SHA-256 of each ``CaseResult.to_dict()`` with the
cell's simulated statistics.  Regenerate only when a change is *meant*
to alter simulation results; a speed-only change must leave it intact.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        for job in [workloads.warmup_cell(name), *workloads.cells(name, workloads.DEFAULT_SEED)]:
            result = job.run()
            cid = workloads.cell_id(job)
            table[cid] = {"sha256": workloads.digest(result), **workloads.summary(result)}
            print(cid, table[cid]["sha256"][:12], flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "cells": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
