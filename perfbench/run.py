"""Benchmark entry point: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload case4_ccfit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up probes in fresh
processes, then one process that runs only this workload (untimed
warm-up, timed cold passes, cached warm passes).  ``--trace 1`` prints
the per-layer metrics from pairs of untraced and traced passes.  Every
metric is printed by name with its unit, and the last line of standard
output is the JSON result.  Run it from the root of a checkout; the
program is imported from ``src/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
#: working directory for cache directories and the span dump (gitignored).
WORK = os.path.join(ROOT, ".perfbench")

#: set-up probes before and after the workload; ``setup_s`` is the
#: median of all of them.
SETUP_PROBES = (4, 5)
#: every process the benchmark starts runs numpy with one BLAS thread: the
#: program does no linear algebra, and each idle BLAS thread pool started
#: at import only adds scheduler noise to a host with few cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: the whole run must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "warm_sweep_ms": "ms",
}

PER_LAYER = {
    "engine.self_s": "s",
    "engine.ns_per_event": "ns",
    "engine.events": "count",
    "switch.self_s": "s",
    "switch.calls": "count",
    "switch.match_rounds": "count",
    "switch.match_yield": "ratio",
    "arbiter.self_s": "s",
    "arbiter.calls": "count",
    "isolation.self_s": "s",
    "isolation.updates_per_arrival": "ratio",
    "cam.alloc_failures": "count",
    "throttling.self_s": "s",
    "throttling.becns": "count",
    "link.self_s": "s",
    "link.sends": "count",
    "endnode.self_s": "s",
    "endnode.calls": "count",
    "collector.self_s": "s",
    "setup.build_fabric_s": "s",
    "setup.attach_traffic_s": "s",
    "sweep.key_us": "us",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "sweep.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # harness-internal: the self-test's tiny cells
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # harness-internal: which process this is
    p.add_argument("--role", choices=("main", "probe", "workload"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--budget", type=float, default=RUN_LIMIT_S, help=argparse.SUPPRESS)
    return p


def _check_program(path: str) -> None:
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {path}, not {SRC}")


def _child(args, role: str, timeout: float, budget: float = 0.0) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--budget", str(budget)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probes(args, n: int) -> list:
    """``n`` set-up probes, each between two import-reference readings."""
    import calibrate

    reading = calibrate.import_reading(ROOT)
    probes = []
    for _ in range(n):
        probe = _child(args, "probe", timeout=30.0)
        before, reading = reading, calibrate.import_reading(ROOT)
        probe["scaled_s"] = probe["setup_s"] * calibrate.import_scale(before, reading)
        probes.append(probe)
    return probes


def _run_probe(args) -> dict:
    import workloads

    out = workloads.probe(args.workload, args.seed, args.tiny, SRC)
    _check_program(out.pop("repro"))
    return out


def _run_workload(args) -> dict:
    sys.path.insert(0, SRC)
    import multiprocessing

    import repro
    import workloads

    _check_program(repro.__file__)
    with open(DIGESTS) as fh:
        table = json.load(fh)["cells"]
    checker = workloads.Checker(table)
    space = workloads.Workspace(WORK)
    deadline = time.perf_counter() + args.budget
    try:
        measure = workloads.measure_traced if args.trace else workloads.measure
        out = measure(args.workload, args.seed, args.seconds, args.tiny, checker, space, deadline)
    finally:
        space.close()
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
    spans = out.pop("spans", None)
    if spans is not None:
        # the span tables are written once, after every pass has ended
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "pairs": spans}, fh, indent=1)
    out.update(attempted=checker.attempted, failed=checker.failed, errors=checker.errors)
    return out


def _fmt(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:32s} {value:>16.6g} {unit:6s} {note}"


def _end_to_end(probes: list, res: dict) -> dict:
    """Medians of the calibrated samples; the raw medians are printed too."""
    import workloads

    med = statistics.median
    walls, raw_walls = res["cold_scaled_s"], res["cold_wall_s"]
    events = res["events"]
    warm_p50, tail_pct, tail = workloads.median_and_tail(res["warm_scaled_ms"])
    metrics = {
        "wall_s": med(walls),
        "events_per_s": med(e / w for e, w in zip(events, walls)),
        "setup_s": med(p["scaled_s"] for p in probes),
        "peak_rss_mb": res["peak_rss_mb"],
        "cells_per_s": med(res["cells"] / w for w in walls),
        "warm_sweep_ms": warm_p50,
    }
    n_cold = f"n={len(walls)} cold passes"
    notes = {
        "wall_s": f"median of {n_cold}; raw {med(raw_walls):.4f} s",
        "events_per_s": f"median of {n_cold}; raw "
                        f"{med(e / w for e, w in zip(events, raw_walls)):.0f} /s",
        "setup_s": f"median of n={len(probes)} fresh-process probes; raw "
                   f"{med(p['setup_s'] for p in probes):.4f} s: import "
                   f"{med(p['import_s'] for p in probes):.4f} + pre-run "
                   f"{med(p['prerun_s'] for p in probes):.4f} + pool "
                   f"{med(p['pool_s'] for p in probes):.4f}",
        "peak_rss_mb": "workload process plus its largest pool worker x workers",
        "cells_per_s": f"median of {n_cold}; {res['cells']} cells, {res['workers']} worker(s)",
        "warm_sweep_ms": f"p50 of n={len(res['warm_ms'])} warm passes"
                         + (f", p{tail_pct:g} {tail:.4f} ms" if tail_pct else "")
                         + f"; raw p50 {med(res['warm_ms']):.4f} ms",
    }
    print("timings are medians rescaled to the reference host speed (perfbench/calibrate.py):"
          " setup_s by the import reference, the others by the kernel;"
          " a sample count below 20 supports no tail percentile")
    for name, unit in END_TO_END.items():
        print(_fmt(name, metrics[name], unit, notes[name]))
    return metrics


def _per_layer(res: dict) -> dict:
    metrics = {name: res["layers"][name] for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        print(_fmt(name, metrics[name], unit, f"median of {res['pairs']} traced pass(es)"))
    return metrics


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parser().parse_args(argv)
    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.role == "probe":
        print(json.dumps(_run_probe(args)))
        return 0
    if args.role == "workload":
        print(json.dumps(_run_workload(args)))
        return 0

    os.makedirs(WORK, exist_ok=True)
    os.environ.update(BLAS_ENV)
    before, after = (1, 1) if args.tiny else SETUP_PROBES
    probes = [] if args.trace else _probes(args, before)
    left = RUN_LIMIT_S - (time.perf_counter() - t_start)
    res = _child(args, "workload", timeout=left, budget=left - 30.0)
    if not args.trace:
        probes += _probes(args, after)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {len(os.sched_getaffinity(0))}")
    metrics = _per_layer(res) if args.trace else _end_to_end(probes, res)
    for err in res["errors"]:
        print(f"FAILED: {err}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(f"error_rate {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
