"""Benchmark workloads and the passes that measure them.

Every workload is a fixed list of simulation cells (``SimJob``) built
from the ``--seed`` argument; the simulations receive only that seed.
A pass runs the list through the public ``run_sweep`` entry point:

* a *cold* pass against a fresh cache directory simulates every cell
  and writes the cache (key hashing, pool dispatch, cache writes);
* a *warm* pass over the same directory serves every cell from the
  cache (key hashing, reads with SHA-256 verification);
* a *traced* pass is a cold pass, in-process, with the span tracer of
  :mod:`tracer` installed, followed by a few traced warm passes.

Every result is checked by its digest: the SHA-256 of the canonical
JSON of ``CaseResult.to_dict()``.  ``digests.json`` pins the digests
at the default seed; at any seed every repetition of a cell, cached,
traced or not, must reproduce the first digest seen.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: seed whose digests ``digests.json`` pins (the program's default seed).
DEFAULT_SEED = 1
#: time scale of the untimed warm-up cell run before any timed pass.
WARMUP_TIME_SCALE = 0.01
#: the paper's four schemes, pinned here so the grid cannot drift.
GRID_SCHEMES = ("1Q", "ITh", "FBICM", "CCFIT")
#: a flap of one Config #2 leaf uplink (times at time_scale 1.0).
GRID_FAULT_PLAN = "down:s0p2->s4p0@4ms;up:s0p2->s4p0@6ms"

#: name -> (time_scale, tiny time_scale, runs on nproc workers).  Why
#: each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Tuple[float, float, bool]] = {
    "case4_ccfit": (0.1, 0.01, False),
    "case3_nocc": (0.2, 0.01, False),
    "sweep_grid": (0.05, 0.005, True),
}


def workers_for(name: str) -> int:
    """``nproc`` (the CPUs this process may run on) or 1."""
    return len(os.sched_getaffinity(0)) if WORKLOADS[name][2] else 1


def cells(name: str, seed: int, tiny: bool = False) -> list:
    """The workload's cells at ``seed`` (``tiny`` shrinks the time scale)."""
    from repro.experiments.sweep import SimJob
    from repro.sim.faults import FaultPlan

    full, small, _parallel = WORKLOADS[name]
    ts = small if tiny else full
    if name == "case4_ccfit":
        return [SimJob("case4", "CCFIT", time_scale=ts, seed=seed, extra=(("num_trees", 4),))]
    if name == "case3_nocc":
        return [SimJob("case3", scheme, time_scale=ts, seed=seed) for scheme in ("1Q", "VOQnet")]
    if name == "sweep_grid":
        grid = [
            SimJob(case, scheme, time_scale=ts, seed=seed)
            for case in ("case1", "case2", "case3")
            for scheme in GRID_SCHEMES
        ]
        grid += [
            SimJob("case3", "CCFIT", time_scale=ts, seed=seed, routing="adaptive"),
            SimJob("case3", "PFC+RCM", time_scale=ts, seed=seed, buffer_model="shared"),
            SimJob("case3", "CCFIT", time_scale=ts, seed=seed,
                   faults=FaultPlan.parse(GRID_FAULT_PLAN, name="flap")),
        ]
        return grid
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def warmup_cell(name: str):
    """The untimed warm-up: the workload's first cell, tiny, default seed."""
    import dataclasses

    return dataclasses.replace(cells(name, DEFAULT_SEED)[0], time_scale=WARMUP_TIME_SCALE)


def cell_id(job) -> str:
    """A harness-owned cell identifier (independent of the cache key)."""
    extra = ",".join(f"{k}={v}" for k, v in job.extra)
    faults = job.faults.label() if job.faults is not None else "none"
    return (
        f"{job.case}/{job.scheme}|routing={job.routing}|buffer={job.buffer_model or 'static'}"
        f"|faults={faults}|extra={extra}|ts={job.time_scale}|seed={job.seed}"
    )


def digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def summary(result) -> Dict[str, float]:
    """Simulated statistics recorded beside each digest."""
    return {
        "delivered_packets": result.stats["delivered_packets"],
        "mean_throughput": result.mean_throughput(),
        "cam_failures": result.stats["cfq_alloc_failures"],
    }


class Checker:
    """Counts operations and checks every result's digest."""

    def __init__(self, table: Dict[str, Dict]) -> None:
        self.table = table
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def _matches(self, job, result) -> bool:
        cid = cell_id(job)
        got = digest(result)
        pinned = self.table.get(cid)
        if pinned is not None and pinned["sha256"] != got:
            self.fail(f"{cid}: digest {got[:12]} != pinned {pinned['sha256'][:12]}")
            return False
        first = self.seen.setdefault(cid, got)
        if first != got:
            self.fail(f"{cid}: digest {got[:12]} != first repetition {first[:12]}")
            return False
        return True

    def cell(self, job, result) -> None:
        """One simulated cell: one operation."""
        self.attempted += 1
        if result is None:
            self.fail(f"{cell_id(job)}: no result")
        else:
            self._matches(job, result)

    def cold(self, report) -> None:
        for job, result in zip(report.jobs, report.results):
            self.cell(job, result)
        for failure in report.failures:
            if len(self.errors) < 20:
                self.errors.append(f"{failure.label}: {failure.exception}: {failure.message}")

    def warm(self, report) -> None:
        """One fully cached pass: one operation."""
        self.attempted += 1
        if report.hits != len(report.jobs) or report.failed:
            self.fail(f"warm pass: {report.hits}/{len(report.jobs)} hits, {report.failed} failed")
            return
        for job, result in zip(report.jobs, report.results):
            if not self._matches(job, result):
                return


class Workspace:
    """Fresh cache directories under the checkout, removed at the end."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=root)

    def fresh(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def sweep(jobs, workers: int, cache_dir: str):
    """One timed ``run_sweep`` pass: ``(wall_s, report)``.

    Retries are off, so a cell that raises fails its operation at once
    and no retry backoff lands in the timed wall.
    """
    from repro.experiments.sweep import SweepOptions, run_sweep

    options = SweepOptions(jobs=workers, cache_dir=cache_dir, max_retries=0)
    t0 = time.perf_counter()
    report = run_sweep(jobs, options=options)
    return time.perf_counter() - t0, report


def events(report) -> int:
    return int(sum(r.stats["events"] for r in report.results if r is not None))


def warm_up(name: str, checker: Checker) -> None:
    job = warmup_cell(name)
    checker.cell(job, job.run())


# ----------------------------------------------------------------------
# untraced measurement (--trace 0)
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, tiny: bool, checker: Checker,
            space: Workspace, deadline: float) -> Dict:
    """Cold passes, each followed by warm passes over its cache for a
    third of the cold pass's wall time, until ``seconds`` have passed.

    Interleaving spreads both kinds of sample over the whole run, so a
    slow spell of the host weighs on them alike.  A calibration reading
    (:mod:`calibrate`) separates consecutive samples; each sample is
    reported raw and rescaled by the readings on either side of it.
    """
    import calibrate

    jobs = cells(name, seed, tiny)
    workers = workers_for(name)
    min_cold, min_warm = (2, 20) if tiny else (3, 100)
    start = time.perf_counter()
    warm_up(name, checker)
    cold_walls: List[float] = []
    cold_scaled: List[float] = []
    n_events: List[int] = []
    warm_ms: List[float] = []
    warm_scaled: List[float] = []
    end = min(start + seconds, deadline)
    reading = calibrate.reading()
    while len(cold_walls) < min_cold or time.perf_counter() < end:
        if cold_walls and time.perf_counter() + max(cold_walls) > deadline:
            break
        cache_dir = space.fresh()
        wall, report = sweep(jobs, workers, cache_dir)
        before, reading = reading, calibrate.reading()
        checker.cold(report)
        cold_walls.append(wall)
        cold_scaled.append(wall * calibrate.scale(before, reading))
        n_events.append(events(report))
        slice_ms: List[float] = []
        slice_end = time.perf_counter() + wall / 3.0
        while time.perf_counter() < slice_end or (
            time.perf_counter() >= end and len(warm_ms) + len(slice_ms) < min_warm
        ):
            wall_w, report = sweep(jobs, workers, cache_dir)
            checker.warm(report)
            slice_ms.append(wall_w * 1e3)
            if time.perf_counter() > deadline:
                break
        before, reading = reading, calibrate.reading()
        factor = calibrate.scale(before, reading)
        warm_ms += slice_ms
        warm_scaled += [ms * factor for ms in slice_ms]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # pool workers: the largest worker's peak, counted once per worker
    peak_kb = own + (kids * workers if workers > 1 else 0)
    return {
        "cells": len(jobs),
        "workers": workers,
        "cold_wall_s": cold_walls,
        "cold_scaled_s": cold_scaled,
        "events": n_events,
        "warm_ms": warm_ms,
        "warm_scaled_ms": warm_scaled,
        "peak_rss_mb": peak_kb / 1024.0,
    }


# ----------------------------------------------------------------------
# traced measurement (--trace 1)
# ----------------------------------------------------------------------
TRACED_WARM_PASSES = 5
#: largest share of the traced cells' wall time (``SweepReport.cell_elapsed``)
#: that the in-cell spans may leave uncovered: topology construction,
#: result assembly.  It measured 0.04-0.2% on the full cells and 1-3% on
#: the self-test's tiny ones; a site whose spans go missing shows as more.
UNCOVERED_MAX = 0.05


def _cell_time(report) -> float:
    return sum(t for t in report.cell_elapsed if t is not None)


def traced_pair(jobs, workers: int, checker: Checker, space: Workspace) -> Tuple[Dict, List]:
    """Untraced cold passes, then one traced cold pass plus traced warm
    passes; returns the pair's per-layer figures and the span table.

    The traced pass runs in-process (``jobs=1``) so every layer's spans
    land in this process; the trace overhead is measured against an
    untraced in-process pass.  A parallel workload also makes one
    untraced pass with its own worker count, for ``sweep.overhead_s``.
    """
    from tracer import IN_CELL_LAYERS, Tracer

    u_wall, u_report = sweep(jobs, 1, space.fresh())
    checker.cold(u_report)
    p_report = u_report
    if workers > 1:
        _wall, p_report = sweep(jobs, workers, space.fresh())
        checker.cold(p_report)
    tracer = Tracer()
    cache_dir = space.fresh()
    with tracer:
        _wall, t_report = sweep(jobs, 1, cache_dir)
        gets_cold = tracer.site("ResultCache.get")
        warm_reports = [sweep(jobs, 1, cache_dir)[1] for _ in range(TRACED_WARM_PASSES)]
    checker.cold(t_report)
    for report in warm_reports:
        checker.warm(report)

    layer_self = tracer.layer_self()
    layer_calls = tracer.layer_calls()
    # Self time summed over every site that runs inside a cell is the
    # time the cell's outermost spans cover.  The sweep, not the tracer,
    # times each cell (cell_elapsed), so comparing the two catches spans
    # that go missing, or that are counted twice.
    covered = sum(layer_self.get(layer, 0.0) for layer in IN_CELL_LAYERS)
    traced_cells = _cell_time(t_report)
    uncovered = (traced_cells - covered) / traced_cells if traced_cells else 1.0
    checker.attempted += 1  # the traced pass's span accounting is one operation
    if not -1e-9 <= uncovered < UNCOVERED_MAX:
        checker.fail(f"traced pass: layer self time {covered:.6f} s leaves {100 * uncovered:.2f}% "
                     f"of cell time {traced_cells:.6f} s uncovered (allowed 0-{100 * UNCOVERED_MAX:g}%)")

    ev = events(t_report)
    counts = tracer.counts
    key_calls, key_total, _ = tracer.site("SimJob.key")
    put_calls, put_total, _ = tracer.site("ResultCache.put")
    get_calls, get_total, _ = tracer.site("ResultCache.get")
    warm_get_calls, warm_get_total = get_calls - gets_cold[0], get_total - gets_cold[1]
    arrivals = tracer.site("NfqCfqScheme.on_arrival")[0]
    stats = [r.stats for r in t_report.results if r is not None]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    figures = {
        "engine.self_s": layer_self.get("engine", 0.0),
        "engine.ns_per_event": ratio(layer_self.get("engine", 0.0) * 1e9, ev),
        "engine.events": ev,
        "switch.self_s": layer_self.get("switch", 0.0),
        "switch.calls": layer_calls.get("switch", 0),
        "switch.match_rounds": counts["match_rounds"],
        "switch.match_yield": ratio(counts["match_applied"], counts["match_rounds"]),
        "arbiter.self_s": layer_self.get("arbiter", 0.0),
        "arbiter.calls": layer_calls.get("arbiter", 0),
        "isolation.self_s": layer_self.get("isolation", 0.0),
        "isolation.updates_per_arrival": ratio(tracer.site("NfqCfqScheme.update")[0], arrivals),
        "cam.alloc_failures": sum(s["cfq_alloc_failures"] for s in stats),
        "throttling.self_s": layer_self.get("throttling", 0.0),
        "throttling.becns": sum(s["becns_received"] for s in stats),
        "link.self_s": layer_self.get("link", 0.0),
        "link.sends": tracer.site("Link.send")[0],
        "endnode.self_s": layer_self.get("endnode", 0.0),
        "endnode.calls": layer_calls.get("endnode", 0),
        "collector.self_s": layer_self.get("collector", 0.0),
        "setup.build_fabric_s": tracer.site("setup.build_fabric")[1],
        "setup.attach_traffic_s": tracer.site("setup.attach_traffic")[1],
        "sweep.key_us": ratio(key_total * 1e6, key_calls),
        "cache.get_ms": ratio(warm_get_total * 1e3, warm_get_calls),
        "cache.put_ms": ratio(put_total * 1e3, put_calls),
        "cache.hits": t_report.hits + sum(r.hits for r in warm_reports),
        "cache.misses": t_report.misses + sum(r.misses for r in warm_reports),
        "sweep.overhead_s": p_report.elapsed - _cell_time(p_report) / p_report.workers,
        "trace.overhead_pct": 100.0 * (ratio(traced_cells, _cell_time(u_report)) - 1.0),
    }
    accounting = {
        "covered_s": covered,
        "traced_cell_s": traced_cells,
        "uncovered_pct": 100.0 * uncovered,
        "untraced_cold_wall_s": u_wall,
    }
    return figures, [accounting, tracer.table()]


def measure_traced(name: str, seed: int, seconds: float, tiny: bool, checker: Checker,
                   space: Workspace, deadline: float) -> Dict:
    """Untraced/traced pass pairs for ``seconds``; per-layer medians."""
    jobs = cells(name, seed, tiny)
    workers = workers_for(name)
    start = time.perf_counter()
    warm_up(name, checker)
    pairs: List[Dict] = []
    spans: List = []
    pair_s: List[float] = []
    while not pairs or time.perf_counter() + max(pair_s) < min(start + seconds, deadline):
        t0 = time.perf_counter()
        figures, table = traced_pair(jobs, workers, checker, space)
        pair_s.append(time.perf_counter() - t0)
        pairs.append(figures)
        spans.append(table)
    layers = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}
    return {"cells": len(jobs), "workers": workers, "pairs": len(pairs), "layers": layers,
            "spans": spans}


# ----------------------------------------------------------------------
# set-up probe (a fresh process per probe)
# ----------------------------------------------------------------------
class _StopAtRun(Exception):
    pass


def probe(name: str, seed: int, tiny: bool, src: str) -> Dict[str, float]:
    """Everything a cold process does before ``Fabric.run`` starts.

    Call in a fresh process that has not imported ``repro`` yet; ``src``
    is the directory to import it from.  Each cell runs through
    ``SimJob.run`` (i.e. ``run_case``) until ``Fabric.run`` is entered,
    which a class-level stub intercepts.  Parallel workloads add the
    start-up of a worker pool of the size ``run_sweep`` uses.  The time
    is not rescaled: it is mostly imports (file reads, unmarshalling,
    extension loading), which the calibration kernel does not track.
    """
    import sys

    t_start = time.perf_counter()
    sys.path.insert(0, src)
    import repro  # noqa: F401
    from repro.network.fabric import Fabric

    import_s = time.perf_counter() - t_start
    jobs = cells(name, seed, tiny)
    entered: List[float] = []

    def stop(self, until):
        entered.append(time.perf_counter())
        raise _StopAtRun

    original = Fabric.__dict__["run"]
    Fabric.run = stop
    prerun_s = 0.0
    try:
        for job in jobs:
            t0 = time.perf_counter()
            try:
                job.run()
            except _StopAtRun:
                prerun_s += entered[-1] - t0
            else:
                raise RuntimeError(f"{cell_id(job)} never reached Fabric.run")
    finally:
        Fabric.run = original
    pool_s = 0.0
    workers = workers_for(name)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        t0 = time.perf_counter()
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for future in [pool.submit(os.getpid) for _ in range(workers)]:
                future.result()
            pool_s = time.perf_counter() - t0
        finally:
            pool.shutdown(wait=True)
    return {"import_s": import_s, "prerun_s": prerun_s, "pool_s": pool_s,
            "setup_s": import_s + prerun_s + pool_s, "repro": repro.__file__}


def median_and_tail(samples: List[float]) -> Tuple[float, Optional[float], Optional[float]]:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return statistics.median(samples), pct, cuts[int(round(pct * 10)) - 1]
    return statistics.median(samples), None, None
