"""Host-speed calibration for the end-to-end timings.

On a shared host the same code runs up to ~1.8x slower for minutes at
a time.  The cause is the machine's other tenants, not this process:
its CPU time slows just as much, and steal time stays at zero.  A timing
taken in one run is therefore not comparable with one taken minutes
later.  The benchmark runs this fixed kernel right before and after
every timed sample and reports each timing rescaled to the speed the
kernel shows on a quiet host:

    reported = measured * REFERENCE_S / geomean(kernel before, kernel after)

The kernel is pure Python with the simulator's instruction mix: a
heap-ordered event loop over ``__slots__`` objects, with method calls
and list and dict updates.  Its working set is tiny, so it adds nothing
to the peak memory the benchmark reports.  The kernel is part of the
benchmark, so a change to the program cannot move it.  It runs with the
garbage collector off, so the program's heap does not change its speed.

Set-up time is mostly imports in a fresh process: page faults on
freshly mapped files, unmarshalling, loading extension modules.  The
kernel above does not track how fast the host does that, so set-up is
rescaled by its own reference instead: a fresh interpreter that imports
a fixed set of modules that are not the program's (numpy and some
pure-Python standard-library packages), timed from the inside exactly as
a set-up probe times itself:

    reported = measured * IMPORT_REFERENCE_S / geomean(import before, import after)
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time

#: the kernel's time on a quiet host (2 vCPU Xeon, Python 3.11); it only
#: fixes the scale of the reported seconds.
REFERENCE_S = 0.0140
#: kernel repetitions per reading; their median is the reading.
REPS = 5
#: the import reference's time on the same quiet host; it only fixes
#: the scale of the reported set-up seconds.
IMPORT_REFERENCE_S = 0.120
#: what the import reference imports: numpy, which the program imports
#: too, and standard-library packages that the program does not import.
IMPORT_REFERENCE = ("numpy", "asyncio", "email.mime.multipart", "http.server",
                    "unittest", "xml.dom.minidom")
_IMPORT_SCRIPT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import {modules}\n"
    "print(time.perf_counter() - t0)\n"
).format(modules=", ".join(IMPORT_REFERENCE))


class _Node:
    __slots__ = ("queue", "count")

    def __init__(self) -> None:
        self.queue: list = []
        self.count = 0

    def receive(self, t: float, x: int) -> float:
        self.queue.append(x)
        self.count += 1
        if len(self.queue) > 4:
            self.queue.pop(0)
        return t + 1.0 + (x % 3)


def kernel(steps: int = 20000) -> dict:
    """A small discrete-event loop over 64 nodes."""
    nodes = [_Node() for _ in range(64)]
    heap = [(0.0, i, i) for i in range(64)]
    heapq.heapify(heap)
    seq = 64
    last: dict = {}
    for _ in range(steps):
        t, s, i = heapq.heappop(heap)
        t2 = nodes[i].receive(t, s)
        last[s % 512] = t2
        seq += 1
        heapq.heappush(heap, (t2, seq, (i * 5 + 3) % 64))
    return last


def reading() -> float:
    """Seconds the kernel takes now (median of ``REPS`` runs)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that rescales a sample taken between two readings."""
    return REFERENCE_S / (before * after) ** 0.5


def import_reading(cwd: str) -> float:
    """Seconds a fresh interpreter takes to import ``IMPORT_REFERENCE``."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], cwd=cwd,
                          capture_output=True, text=True, timeout=30.0)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: import reference exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_scale(before: float, after: float) -> float:
    """Factor that rescales a set-up probe taken between two import readings."""
    return IMPORT_REFERENCE_S / (before * after) ** 0.5
