"""Micro-benchmarks of the simulation substrate.

Two entry points over the same measurements:

* **standalone** — ``PYTHONPATH=src python benchmarks/bench_engine.py``
  prints one JSON row per benchmark (events/s, net allocations, the
  bucket-vs-heap dispatch speedup) and exits non-zero if the bucket
  kernel misses the 1.8x dispatch target (``--quick`` de-rates the gate
  to ``repro.perf.PERF_GATES_QUICK`` — one repeat over a small
  population is noisy).  This is what CI trend lines consume.
* **pytest-benchmark** — ``pytest benchmarks/bench_engine.py`` runs the
  classic many-round statistical versions.

The dispatch workload itself lives in :mod:`repro.perf` (the
``python -m repro perf`` harness); this file only drives it, so the
benchmarked code path and the profiled code path cannot drift apart.
"""

import json
import sys

import numpy as np

from repro.core.isolation import NfqCfqScheme
from repro.network.arbiter import ISlip
from repro.network.buffers import PacketQueue
from repro.network.packet import Packet
from repro.perf import PERF_GATES, PERF_GATES_QUICK, bench_case, dispatch_microbench

#: the dispatch speedup the bucket kernel must show over the legacy
#: heap/handle path (docs/performance.md).
DISPATCH_SPEEDUP_TARGET = PERF_GATES["speedup"]


# ----------------------------------------------------------------------
# engine dispatch (delegates to repro.perf)
# ----------------------------------------------------------------------
def test_event_dispatch_bucket(benchmark):
    rate = benchmark(
        lambda: dispatch_microbench("bucket", n_events=30_000, repeats=1)["events_per_s"]
    )
    assert rate > 0


def test_event_dispatch_heap(benchmark):
    rate = benchmark(
        lambda: dispatch_microbench("heap", n_events=30_000, repeats=1)["events_per_s"]
    )
    assert rate > 0


# ----------------------------------------------------------------------
# component hot paths
# ----------------------------------------------------------------------
def test_islip_matching_rate(benchmark):
    arb = ISlip(8, 8, iterations=2)
    rng = np.random.default_rng(0)
    requests = [
        {i: list(rng.choice(8, size=rng.integers(1, 4), replace=False)) for i in range(8)}
        for _ in range(256)
    ]

    def match_all():
        n = 0
        for req in requests:
            n += len(arb.match(req))
        return n

    assert benchmark(match_all) > 0


def test_queue_churn(benchmark):
    pkts = [Packet(0, i % 16, 2048, "f") for i in range(512)]

    def churn():
        q = PacketQueue("q", track_dests=True)
        for p in pkts:
            q.push(p)
        while not q.empty:
            q.pop()
        return q.bytes

    assert benchmark(churn) == 0


def test_isolation_update_rate(benchmark):
    """Arrival + post-process + detection on a CCFIT port."""
    from tests.test_isolation import FakeIsolationHost

    def arrivals():
        host = FakeIsolationHost()
        scheme = NfqCfqScheme(host, drive_congestion_state=True)
        for i in range(256):
            scheme.on_arrival(Packet(0, i % 3, 2048, "f"))
            if i % 4 == 3:
                for line in scheme.cam.lines():
                    cfq = scheme.cfqs[line.cfq_index]
                    if not cfq.empty:
                        cfq.pop()
                        scheme.after_dequeue(cfq)
        return scheme.moves

    assert benchmark(arrivals) > 0


# ----------------------------------------------------------------------
# standalone JSON-row mode
# ----------------------------------------------------------------------
def json_rows(quick: bool = False):
    """One dict per benchmark, JSON-safe."""
    n_events = 60_000 if quick else 300_000
    repeats = 1 if quick else 3
    # quick mode is one repeat over a small population: the bucket/heap
    # ratio is noisy there, so the gate de-rates exactly as the perf
    # harness does (repro.perf.PERF_GATES_QUICK).
    gates = PERF_GATES_QUICK if quick else PERF_GATES
    rows = []
    micro = {}
    for kernel in ("bucket", "heap"):
        m = dispatch_microbench(kernel, n_events=n_events, repeats=repeats)
        micro[kernel] = m
        rows.append(
            {
                "bench": "dispatch",
                "kernel": kernel,
                "events": m["events"],
                "events_per_s": m["events_per_s"],
                "allocations": m["alloc_blocks"],
            }
        )
    rows.append(
        {
            "bench": "dispatch_speedup",
            "value": micro["bucket"]["events_per_s"] / micro["heap"]["events_per_s"],
            "target": gates["speedup"],
        }
    )
    ts = 0.03 if quick else 0.1
    for kernel in ("bucket", "heap"):
        row = bench_case("case1", "CCFIT", kernel=kernel, time_scale=ts, seed=1)
        rows.append({"bench": "case1", **row})
    return rows


def main(argv=None) -> int:
    quick = "--quick" in (argv or sys.argv[1:])
    rows = json_rows(quick=quick)
    rc = 0
    for row in rows:
        print(json.dumps(row))
        if row["bench"].startswith("dispatch_speedup") and row["value"] < row["target"]:
            print(
                f"FAIL: {row['bench']} {row['value']:.2f}x < {row['target']}x",
                file=sys.stderr,
            )
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
