"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print Table I and the per-scheme hardware-cost comparison.
``fig 7a|7b|7c|8a|8b|8c|9|10``
    Regenerate one figure of §IV (series/flow tables to stdout).
``case 1|2|3 --scheme CCFIT``
    Run a single traffic case under one scheme and print per-flow
    bandwidths plus the CC counters.
``trees N --scheme CCFIT``
    Run the Case #4 scalability probe with N congestion trees.
``sweep NAME``
    Run any registered experiment (``fig7a`` ... ``fig10``,
    ``case1`` ... ``case4``) through the sweep engine and report the
    cache hit count.  ``repro sweep --list`` enumerates the names.
``perf``
    Benchmark the simulation engine (dispatch microbenchmark on every
    kernel + full-case events/s with a per-subsystem event histogram)
    and write ``BENCH_engine.json``.  ``--quick`` runs a CI-sized
    smoke; ``--check`` ratchets the speedup ratios against the
    committed baseline and exits 1 on regression; ``--cprofile`` adds
    a cProfile top-N listing.  See docs/performance.md.
``telemetry NAME --scheme CCFIT --out DIR``
    Run one experiment cell with the telemetry sampler attached and
    render the bundle (JSONL / Prometheus text / SVG dashboard — pick
    with ``--format``).  Every simulation command also accepts
    ``--telemetry`` / ``--telemetry-interval NS`` to attach sampling
    without changing results (bundles ride on the cached results).
    See docs/telemetry.md.
``serve --broker DIR --port 8642``
    Long-running service front-end: submit experiments over HTTP
    (``POST /experiments``), stream cell-level progress as NDJSON/SSE,
    fetch cached ``CaseResult``\\ s, scrape live Prometheus
    ``/metrics``, and lease cells to pull workers.  See
    docs/service.md.
``worker --broker URL``
    Pull-based sweep worker: lease cells from a broker (a shared
    directory or an ``http://`` ``repro serve`` endpoint), execute
    them with the standard retry/timeout machinery, publish results
    into the shared content-addressed cache.  See docs/service.md.
``cache [--dir PATH] [--prune ...]``
    Shared-cache hygiene: occupancy stats, ``--prune`` by
    ``--older-than AGE`` and/or ``--max-size SIZE``, ``--quarantined``
    to list quarantined entries, ``--clear`` to drop everything.

Common options: ``--scale`` (time compression, default 0.3),
``--seed``, ``--csv PATH`` (dump the throughput series),
``--jobs N`` (worker processes for the simulation grid),
``--routing NAME[,NAME..]`` (routing policy axis — ``det``, ``ecmp``,
``adaptive``, ``flowlet``; names match case-insensitively, see
docs/routing.md), ``--kernel NAME`` (simulation kernel — ``bucket``
or ``heap``; byte-identical results, see docs/performance.md),
``--cache-dir PATH`` / ``--no-cache`` (on-disk
result cache; ``sweep`` caches by default, the other commands opt in
via ``--cache-dir``), ``--faults SPEC`` (deterministic fault
injection — link/switch failures and degradations, see
docs/faults.md), ``--buffer-model NAME`` (switch buffer organisation —
``static`` or ``shared``; unlike ``--kernel`` this changes results,
see docs/buffers.md).  See docs/sweep.md for the job/cache model.

Resilience options (docs/robustness.md): ``--timeout SECONDS``
(per-cell wall-clock budget), ``--retries N`` (bounded retries with
exponential backoff), ``--journal PATH`` + ``--resume`` (completed-job
journal for crash-safe restarts), ``--manifest PATH`` (structured
ok/retried/failed report), and ``--validate`` (run every simulation
under the invariant guard, :mod:`repro.sim.guard`).  A sweep with
failed cells still renders the surviving results and exits 1.

Every simulation command dispatches through
:mod:`repro.experiments.registry`, so registering a new experiment
makes it runnable here with no CLI changes.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import sys
from typing import Dict, Iterable, Optional

from repro.core.ccfit import SCHEMES
from repro.experiments import registry
from repro.experiments.configs import CONFIG3, table1
from repro.experiments.costs import cost_table
from repro.experiments.registry import Experiment
from repro.experiments.report import (
    render_fault_matrix,
    render_fig8_summary,
    render_flow_table,
    render_pfc_matrix,
    render_routing_grid,
    render_series,
    render_table,
)
from repro.experiments.runner import CaseResult
from repro.experiments.sweep import SweepOptions, SweepReport, default_cache_dir
from repro.sim.guard import ENV_VALIDATE

__all__ = ["main", "build_parser"]

_SIM_COMMANDS = ("fig", "case", "trees", "sweep")


def _add_engine_options(
    p: argparse.ArgumentParser, suppress: bool = False, kernel: bool = True
) -> None:
    """The sweep-engine knobs, shared by every simulation command.

    They live on the main parser (before the subcommand) *and*, with
    ``default=SUPPRESS``, on each subparser — so both
    ``repro --jobs 4 sweep fig9`` and ``repro sweep fig9 --jobs 4``
    work, and a subparser never clobbers a value given up front.
    """
    sup = argparse.SUPPRESS

    def d(value):
        return sup if suppress else value

    p.add_argument("--jobs", type=int, default=d(1), metavar="N",
                   help="worker processes for the simulation grid (1 = serial)")
    p.add_argument("--routing", type=str, default=d(None), metavar="NAME[,NAME..]",
                   help="routing policy (det|ecmp|adaptive|flowlet, "
                        "case-insensitive; default det).  `sweep` accepts a "
                        "comma-separated list forming a grid axis")
    if kernel:
        # `perf` opts out: its own --kernel selects which kernels to
        # *measure* (a list), not which one to simulate on.
        p.add_argument("--kernel", type=str, default=d(None), metavar="NAME",
                       help="simulation kernel (bucket|heap, case-insensitive; "
                            "default: engine default / REPRO_SIM_KERNEL).  Kernels "
                            "are byte-identical — this picks speed, not results")
    p.add_argument("--cache-dir", type=str, default=d(None), metavar="PATH",
                   help="on-disk result cache directory "
                        "(default: ~/.cache/repro-sweep for `sweep`, off otherwise)")
    p.add_argument("--no-cache", action="store_true", default=d(False),
                   help="disable the on-disk result cache")
    p.add_argument("--timeout", type=float, default=d(None), metavar="SECONDS",
                   help="wall-clock budget per cell; a cell that exceeds it is "
                        "retried in isolation and then recorded as failed")
    p.add_argument("--retries", type=int, default=d(2), metavar="N",
                   help="retries per failed cell, with exponential backoff (default 2)")
    p.add_argument("--journal", type=str, default=d(None), metavar="PATH",
                   help="append completed cells to a JSONL journal (crash-safe)")
    p.add_argument("--resume", action="store_true", default=d(False),
                   help="replay finished cells from --journal before simulating")
    p.add_argument("--manifest", type=str, default=d(None), metavar="PATH",
                   help="write a structured ok/retried/failed manifest as JSON")
    p.add_argument("--validate", action="store_true", default=d(False),
                   help="run simulations under the runtime invariant guard "
                        "(sets REPRO_SIM_VALIDATE=1 so workers inherit it)")
    p.add_argument("--telemetry", action="store_true", default=d(False),
                   help="attach the telemetry sampler to every simulation "
                        "(results stay byte-identical; bundles ride on the results)")
    p.add_argument("--telemetry-interval", type=float, default=d(100_000.0),
                   metavar="NS", help="telemetry sampling period in ns (default 100000)")
    p.add_argument("--faults", type=str, default=d(None), metavar="SPEC",
                   help="inject deterministic faults into every cell, e.g. "
                        "'kill:s0p4->s16p0@1.2ms' or "
                        "'degrade:LINK@2ms:bw=0.5,drop=0.01;seed=7' "
                        "(docs/faults.md; plans are part of the cache key)")
    p.add_argument("--buffer-model", type=str, default=d(None), metavar="NAME",
                   help="switch buffer organisation (static|shared, "
                        "case-insensitive; default static, the paper's "
                        "per-port partitioning).  Unlike --kernel this "
                        "changes results and is part of the cache key "
                        "(docs/buffers.md)")


class _Parser(argparse.ArgumentParser):
    """Argparse with the repo's did-you-mean treatment for a typo'd
    subcommand: same hint + exit-2 contract as unknown experiment and
    scheme names (:func:`_unknown_name`), instead of the stock
    usage-dump error."""

    def error(self, message: str) -> "NoReturn":  # noqa: F821 - argparse idiom
        m = re.search(r"argument command: invalid choice: '([^']+)'", message)
        if m:
            raise SystemExit(_unknown_name("command", m.group(1), _COMMANDS))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="repro",
        description="CCFIT (ICPP 2011) reproduction — regenerate the paper's evaluation",
    )
    p.add_argument("--scale", type=float, default=0.3, help="time compression (1.0 = paper scale)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", type=str, default=None, help="write the throughput series as CSV")
    p.add_argument("--svg", type=str, default=None, help="render the figure as an SVG chart")
    _add_engine_options(p)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I + scheme hardware costs")

    fig = sub.add_parser("fig", help="regenerate a figure (7a..7c, 8a..8c, 9, 10)")
    fig.add_argument("panel", choices=["7a", "7b", "7c", "8a", "8b", "8c", "9", "10"])

    case = sub.add_parser("case", help="run one traffic case under one scheme")
    case.add_argument("number", type=int, choices=[1, 2, 3])
    case.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme (validated with a "
                           "did-you-mean hint, exit code 2 on a typo)")

    trees = sub.add_parser("trees", help="Case #4 scalability probe")
    trees.add_argument("count", type=int)
    trees.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme")

    sweep = sub.add_parser(
        "sweep",
        help="run a registered experiment through the parallel sweep engine",
        description="Decompose an experiment into independent (scheme) cells, "
                    "run them across --jobs worker processes, and memoize the "
                    "cells in the on-disk cache so repeated invocations are "
                    "served without re-simulating.",
    )
    sweep.add_argument("name", nargs="?", metavar="NAME",
                       help="experiment to run (see --list)")
    sweep.add_argument("--list", action="store_true", dest="list_experiments",
                       help="list registered experiments and exit")
    sweep.add_argument("--schemes", "--scheme", type=str, default=None, metavar="A,B,..",
                       help="comma-separated scheme subset (default: the experiment's "
                            "list); names match case-insensitively")

    perf = sub.add_parser(
        "perf",
        help="benchmark the simulation engine and write BENCH_engine.json",
        description="Dispatch microbenchmark on every kernel plus full figure "
                    "cells with per-subsystem event histograms.",
    )
    perf.add_argument("--quick", action="store_true",
                      help="CI-sized smoke run (small microbench, one short case)")
    perf.add_argument("--case", default="case1", dest="perf_case",
                      help="figure cell to benchmark (case1..case4)")
    perf.add_argument("--schemes", type=str, default="CCFIT", metavar="A,B,..",
                      help="comma-separated schemes to benchmark (default CCFIT)")
    perf.add_argument("--kernel", dest="perf_kernel", default="all",
                      metavar="NAME[,NAME..]",
                      help="engine kernel(s) to measure: a comma-separated subset of "
                           "bucket|heap (case-insensitive) or 'all' (default)")
    perf.add_argument("--events", type=int, default=300_000,
                      help="microbenchmark event count")
    perf.add_argument("--out", default="BENCH_engine.json",
                      help="JSON report path (default: ./BENCH_engine.json)")
    perf.add_argument("--check", action="store_true",
                      help="compare the fresh run against the committed baseline "
                           "(--baseline) and the hard speedup floors; exit 1 on "
                           "regression (the perf ratchet, see docs/performance.md)")
    perf.add_argument("--baseline", default="BENCH_engine.json", metavar="PATH",
                      help="baseline report for --check (default: the committed "
                           "./BENCH_engine.json; read before --out is rewritten)")
    perf.add_argument("--cprofile", action="store_true",
                      help="also run one case under cProfile and print the top functions")

    tele = sub.add_parser(
        "telemetry",
        help="run one experiment cell with the sampler attached and render the bundle",
        description="Run a single (experiment, scheme) cell with telemetry "
                    "enabled and export the bundle: fsync'd JSONL samples, "
                    "Prometheus text exposition and/or a self-contained SVG "
                    "dashboard (see docs/telemetry.md).",
    )
    tele.add_argument("name", metavar="NAME",
                      help="experiment to instrument (see `repro sweep --list`)")
    tele.add_argument("--scheme", default="CCFIT", metavar="NAME",
                      help="congestion-management scheme (default CCFIT)")
    tele.add_argument("--out", default="telemetry-out", metavar="DIR",
                      help="output directory for the rendered bundle (default ./telemetry-out)")
    tele.add_argument("--format", default="all", dest="tele_format", metavar="FMT",
                      help="export format: jsonl | prom | html | all (default all)")
    tele.add_argument("--interval", type=float, default=100_000.0, metavar="NS",
                      help="sampling period in ns (default 100000)")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP service front-end (submit / stream / fetch / metrics)",
        description="Long-running service mode: an HTTP front-end over a shared "
                    "filesystem broker.  Submit experiments (POST /experiments), "
                    "stream cell-level progress (GET /runs/<id>/events, NDJSON or "
                    "SSE), fetch cached CaseResults and telemetry bundles, scrape "
                    "live Prometheus /metrics, and lease cells to `repro worker` "
                    "processes over the /broker/* endpoints (see docs/service.md).",
    )
    serve.add_argument("--broker", default=None, metavar="DIR",
                       help="broker state directory (default: $REPRO_BROKER_DIR "
                            "or ~/.cache/repro-broker)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (default 8642; 0 picks a free port)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared result cache (default: the standard sweep "
                            "cache, so service results and in-process sweeps "
                            "memoize into one namespace)")
    serve.add_argument("--lease-ttl", type=float, default=60.0, metavar="S",
                       help="seconds without a heartbeat before a leased cell "
                            "is requeued (default 60)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    worker = sub.add_parser(
        "worker",
        help="pull-based sweep worker: lease cells from a broker and run them",
        description="Lease cells from a broker — a shared directory or an "
                    "http:// `repro serve` endpoint — execute them with the "
                    "standard retry/timeout machinery, and publish results into "
                    "the shared content-addressed cache.  Workers are "
                    "crash-safe: a worker that dies mid-cell stops "
                    "heartbeating, its lease expires, and the cell is requeued "
                    "for another worker (see docs/service.md).",
    )
    worker.add_argument("--broker", required=True, metavar="URL",
                        help="broker to lease from: a directory path (or "
                             "dir://PATH) for direct filesystem access, or the "
                             "http://HOST:PORT of a `repro serve` instance")
    worker.add_argument("--id", default=None, dest="worker_id", metavar="NAME",
                        help="worker identity recorded in manifests "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-cell wall-clock timeout; runs each cell in a "
                             "quarantined child process")
    worker.add_argument("--retries", type=int, default=2, metavar="N",
                        help="in-worker retries per cell before giving the "
                             "lease back as failed (default 2)")
    worker.add_argument("--heartbeat", type=float, default=None, metavar="S",
                        help="heartbeat period while running a cell "
                             "(default: lease ttl / 4)")
    worker.add_argument("--poll-interval", type=float, default=0.5, metavar="S",
                        help="idle sleep between claim attempts (default 0.5)")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after completing N cells")
    worker.add_argument("--idle-exit", type=float, default=None, metavar="S",
                        help="exit after S seconds with nothing to claim "
                             "(default: run until interrupted)")
    worker.add_argument("--journal", default=None, metavar="PATH",
                        help="also append completed cells to a local JSONL "
                             "journal (same format as `repro sweep --journal`)")

    cache = sub.add_parser(
        "cache",
        help="result-cache hygiene: stats, prune by age/size, quarantine list",
        description="Inspect and maintain the shared content-addressed result "
                    "cache.  With no flags prints occupancy stats; --prune "
                    "removes entries by --older-than age and/or evicts oldest "
                    "entries until the cache fits --max-size.",
    )
    cache.add_argument("--dir", default=None, dest="cache_dir", metavar="PATH",
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro-sweep)")
    cache.add_argument("--prune", action="store_true",
                       help="remove entries per --older-than / --max-size "
                            "(with neither, prunes only quarantined entries)")
    cache.add_argument("--older-than", default=None, metavar="AGE",
                       help="age threshold for --prune, e.g. 45s, 30m, 12h, 7d")
    cache.add_argument("--max-size", default=None, metavar="SIZE",
                       help="size budget for --prune, e.g. 64K, 500M, 2G "
                            "(oldest entries evicted first)")
    cache.add_argument("--keep-quarantine", action="store_true",
                       help="leave quarantined entries alone while pruning")
    cache.add_argument("--quarantined", action="store_true",
                       help="list quarantined (corrupt) entries and exit")
    cache.add_argument("--clear", action="store_true",
                       help="remove every entry (including quarantine)")
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="emit machine-readable JSON instead of a table")

    for sp in (fig, case, trees, sweep, tele):
        _add_engine_options(sp, suppress=True)
    _add_engine_options(perf, suppress=True, kernel=False)
    return p


def _unknown_name(kind: str, name: str, choices: Iterable[str]) -> int:
    """Satellite UX: a typo'd experiment/scheme name exits with code 2
    and a did-you-mean hint instead of a traceback."""
    names = sorted(choices)
    # match case-insensitively so "ccfti" still suggests CCFIT
    folded = {n.casefold(): n for n in names}
    close = difflib.get_close_matches(name.casefold(), list(folded), n=3, cutoff=0.4)
    close = [folded[c] for c in close]
    hint = f" — did you mean {' or '.join(close)}?" if close else ""
    print(
        f"repro: unknown {kind} {name!r}{hint} (choose from {', '.join(names)})",
        file=sys.stderr,
    )
    return 2


def _canonical_scheme(name: str) -> Optional[str]:
    """Case-insensitive scheme lookup (``"ccfit"`` -> ``"CCFIT"``)
    against the live registry; None for an unknown name."""
    return {s.casefold(): s for s in SCHEMES}.get(name.casefold())


def _resolve_routings(args) -> Optional[tuple]:
    """Parse/validate ``--routing``: comma-separated policy names,
    matched case-insensitively against the live policy registry.
    Returns None when the flag was not given; a typo prints a
    did-you-mean hint and exits 2 (same contract as unknown schemes)."""
    raw = getattr(args, "routing", None)
    if not raw:
        return None
    from repro.network.routing import policy_names

    by_fold = {n.casefold(): n for n in policy_names()}
    out: list = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        match = by_fold.get(item.casefold())
        if match is None:
            raise SystemExit(_unknown_name("routing policy", item, policy_names()))
        if match not in out:
            out.append(match)
    return tuple(out) if out else None


def _resolve_kernel(args) -> Optional[str]:
    """Parse/validate ``--kernel``: one simulation-kernel name, matched
    case-insensitively.  Returns None when the flag was not given; a
    typo prints a did-you-mean hint and exits 2 (same contract as
    unknown schemes and routing policies)."""
    raw = getattr(args, "kernel", None)
    if not raw:
        return None
    from repro.sim.engine import KERNELS, resolve_kernel

    try:
        return resolve_kernel(raw)
    except ValueError:
        raise SystemExit(_unknown_name("simulator kernel", raw, KERNELS))


def _resolve_buffer_model(args) -> Optional[str]:
    """Parse/validate ``--buffer-model``: one registered model name,
    matched case-insensitively.  Returns None when the flag was not
    given; a typo prints a did-you-mean hint and exits 2 (same contract
    as unknown schemes, routing policies and kernels)."""
    raw = getattr(args, "buffer_model", None)
    if not raw:
        return None
    from repro.network.buffers import buffer_model_names

    names = buffer_model_names()
    match = {n.casefold(): n for n in names}.get(raw.casefold())
    if match is None:
        raise SystemExit(_unknown_name("buffer model", raw, names))
    return match


def _single_routing(args, command: str) -> str:
    """Commands that run one cell take exactly one policy."""
    routings = _resolve_routings(args)
    if routings is not None and len(routings) > 1:
        print(f"repro: `{command}` accepts a single --routing policy "
              f"(got {','.join(routings)})", file=sys.stderr)
        raise SystemExit(2)
    return routings[0] if routings else "det"


def _options(
    args: argparse.Namespace, *, cache_by_default: bool, routing: str = "det"
) -> SweepOptions:
    """Build SweepOptions from parsed args.  The cache engages when a
    directory was given explicitly, or by default for ``sweep``;
    ``--no-cache`` always wins."""
    cache_dir = args.cache_dir
    if cache_dir is None and cache_by_default and not args.no_cache:
        cache_dir = default_cache_dir()
    if args.resume and not args.journal:
        print("repro: --resume requires --journal PATH", file=sys.stderr)
        raise SystemExit(2)
    telemetry = None
    if getattr(args, "telemetry", False):
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(interval=args.telemetry_interval)
    faults = None
    if getattr(args, "faults", None):
        from repro.sim.faults import FaultPlan, FaultPlanError

        try:
            faults = FaultPlan.parse(args.faults)
        except FaultPlanError as exc:
            print(f"repro: bad --faults spec: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return SweepOptions(
        time_scale=args.scale,
        seed=args.seed,
        routing=routing,
        kernel=_resolve_kernel(args),
        jobs=args.jobs,
        cache_dir=cache_dir,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        max_retries=max(0, args.retries),
        journal=args.journal,
        resume=args.resume,
        telemetry=telemetry,
        faults=faults,
        buffer_model=_resolve_buffer_model(args),
    )


def _write_csv(path: str, results: Dict[str, CaseResult]) -> None:
    with open(path, "w") as fh:
        fh.write("scheme,time_ns,throughput_gbs\n")
        for scheme, res in results.items():
            times, rates = res.throughput
            for t, r in zip(times, rates):
                fh.write(f"{scheme},{t:.1f},{r:.6f}\n")
    print(f"wrote {path}")


def _print_case(res: CaseResult) -> None:
    print(f"scheme {res.scheme}: {res.duration / 1e6:.2f} ms simulated")
    if res.flow_bandwidth:
        rows = [
            {"flow": f, "GB/s (tail window)": f"{bw:.3f}"}
            for f, bw in sorted(res.flow_bandwidth.items())
        ]
        print(render_table(rows))
    interesting = (
        "delivered_packets",
        "fecn_marked",
        "becns_received",
        "cfq_alloc_failures",
        "events",
    )
    print(render_table([{k: int(res.stats[k]) for k in interesting}]))


def _render_results(exp: Experiment, results: Dict[str, CaseResult], args) -> None:
    """The figure-style rendering, shared by ``fig`` and ``sweep``."""
    if not results:  # every cell failed — the engine report says why
        return
    if exp.kind == "series":
        stride_div = 15 if exp.case == "case4" else 18
        n = len(next(iter(results.values())).throughput[0])
        print(render_series(results, stride=max(1, n // stride_div)))
        if exp.case == "case4":
            print(render_fig8_summary(results))
    elif exp.kind == "grid":
        print(render_routing_grid(results))
    elif exp.kind == "faults":
        print(render_fault_matrix(results))
    elif exp.kind == "buffers":
        print(render_pfc_matrix(results))
    else:
        print(render_flow_table(results, exp.flows))
    if args.csv:
        _write_csv(args.csv, results)
    if args.svg:
        from repro.metrics.svgplot import chart_results

        if exp.kind == "flows" and exp.name in ("fig9", "fig10"):
            # one panel per scheme, suffixed like the paper's (a)-(d)
            base = args.svg[:-4] if args.svg.endswith(".svg") else args.svg
            panel = exp.name[3:]
            for tag, (scheme, res) in zip("abcd", results.items()):
                path = f"{base}{tag}.svg"
                chart_results({scheme: res}, f"Fig. {panel}{tag}", per_flow=True).write(path)
                print(f"wrote {path}")
        else:
            chart_results(results, exp.title.split(" — ")[0]).write(args.svg)
            print(f"wrote {args.svg}")


def _report_engine(
    report: SweepReport,
    opts: SweepOptions,
    args: Optional[argparse.Namespace] = None,
    always: bool = False,
) -> int:
    """Print the engine summary and failure details, write the manifest
    when requested, and turn failures into exit code 1."""
    if always or opts.jobs > 1 or opts.cache_enabled or report.failures:
        print(f"sweep: {report.summary()}")
    for failure in report.failures:
        print(f"sweep: FAILED {failure.summary()}", file=sys.stderr)
    manifest = getattr(args, "manifest", None) if args is not None else None
    if manifest:
        report.write_manifest(manifest)
        print(f"wrote {manifest}")
    return 1 if report.failures else 0


def _cmd_table1(args) -> int:
    print("TABLE I — evaluated network configurations")
    print(render_table(table1()))
    print()
    print("Scheme hardware costs on Config #3 (64 nodes):")
    print(render_table(cost_table(CONFIG3.topo())))
    return 0


def _case_schemes() -> tuple:
    """Schemes accepted by `case` / `trees`: the live registry, so
    schemes added via ``register_scheme`` are runnable immediately."""
    return tuple(SCHEMES)


def _result_key(scheme: str, routing: str, faults=None, buffer_model=None) -> str:
    """The key :meth:`Experiment.run` files a cell under."""
    key = scheme if routing == "det" else f"{scheme}@{routing}"
    if faults is not None:
        key += f"+{faults.label()}"
    if buffer_model is not None and buffer_model != "static":
        key += f"%{buffer_model}"
    return key


def _cmd_fig(args) -> int:
    exp = registry.get(f"fig{args.panel}")
    routings = _resolve_routings(args)
    opts = _options(args, cache_by_default=False,
                    routing=routings[0] if routings else "det")
    results, report = exp.run(routings=routings, options=opts)
    _render_results(exp, results, args)
    return _report_engine(report, opts, args)


def _cmd_case(args) -> int:
    scheme = _canonical_scheme(args.scheme)
    if scheme is None:
        return _unknown_name("scheme", args.scheme, _case_schemes())
    routing = _single_routing(args, "case")
    exp = registry.get(f"case{args.number}")
    opts = _options(args, cache_by_default=False, routing=routing)
    results, report = exp.run(schemes=(scheme,), options=opts)
    key = _result_key(scheme, routing, opts.faults, opts.buffer_model)
    if key in results:
        _print_case(results[key])
    if args.csv:
        _write_csv(args.csv, results)
    return _report_engine(report, opts, args)


def _cmd_trees(args) -> int:
    scheme = _canonical_scheme(args.scheme)
    if scheme is None:
        return _unknown_name("scheme", args.scheme, _case_schemes())
    routing = _single_routing(args, "trees")
    exp = registry.get("case4")
    opts = _options(args, cache_by_default=False, routing=routing)
    results, report = exp.run(schemes=(scheme,), options=opts, num_trees=args.count)
    key = _result_key(scheme, routing, opts.faults, opts.buffer_model)
    if key in results:
        res = results[key]
        _print_case(res)
        print(f"burst-window throughput: {res.mean_throughput():.1f} GB/s")
    if args.csv:
        _write_csv(args.csv, results)
    return _report_engine(report, opts, args)


def _cmd_sweep(args) -> int:
    if args.list_experiments:
        rows = [
            {"name": e.name, "case": e.case, "schemes": ",".join(e.schemes),
             "routings": ",".join(e.routings) or "det", "title": e.title}
            for e in registry.experiments()
        ]
        print(render_table(rows))
        return 0
    if args.name is None:
        print("sweep: experiment name required (try `repro sweep --list`)", file=sys.stderr)
        return 2
    if args.name not in registry.names():
        return _unknown_name("experiment", args.name, registry.names())
    exp = registry.get(args.name)
    schemes: Optional[tuple] = None
    if args.schemes:
        schemes = []
        for raw in args.schemes.split(","):
            raw = raw.strip()
            if not raw:
                continue
            canonical = _canonical_scheme(raw)
            if canonical is None:
                return _unknown_name("scheme", raw, SCHEMES)
            schemes.append(canonical)
        schemes = tuple(schemes)
    routings = _resolve_routings(args)
    opts = _options(args, cache_by_default=True,
                    routing=routings[0] if routings else "det")
    results, report = exp.run(schemes=schemes, routings=routings, options=opts)
    print(exp.title)
    _render_results(exp, results, args)
    return _report_engine(report, opts, args, always=True)


def _cmd_perf(args) -> int:
    from repro.core.ccfit import SCHEMES as ALL_SCHEMES
    from repro.experiments.runner import CASE_NAMES
    from repro.perf import cprofile_case, render_report, run_perf, write_report

    if args.perf_case not in CASE_NAMES:
        print(f"perf: unknown case {args.perf_case!r}; choose from {CASE_NAMES}",
              file=sys.stderr)
        return 2
    schemes = []
    for raw in args.schemes.split(","):
        raw = raw.strip()
        if not raw:
            continue
        canonical = _canonical_scheme(raw)
        if canonical is None:
            return _unknown_name("scheme", raw, ALL_SCHEMES)
        schemes.append(canonical)
    schemes = tuple(schemes)
    routing = _single_routing(args, "perf")
    from repro.sim.engine import KERNELS, resolve_kernel

    raw_kernels = args.perf_kernel
    if raw_kernels == "all":
        kernels = KERNELS
    else:
        kernels = []
        for item in raw_kernels.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                canonical = resolve_kernel(item)
            except ValueError:
                return _unknown_name("simulator kernel", item, KERNELS)
            if canonical not in kernels:
                kernels.append(canonical)
        kernels = tuple(kernels) or KERNELS
    if args.quick:
        time_scale, micro_events, micro_repeats = 0.03, 60_000, 1
    else:
        time_scale, micro_events, micro_repeats = args.scale, args.events, 3
    report = run_perf(
        cases=(args.perf_case,),
        schemes=schemes,
        kernels=kernels,
        time_scale=time_scale,
        seed=args.seed,
        micro_events=micro_events,
        micro_repeats=micro_repeats,
        routing=routing,
    )
    report["quick"] = bool(args.quick)
    print(render_report(report))
    baseline = None
    if args.check:
        # read the committed baseline *before* --out may overwrite it
        # (they default to the same path).
        import json as _json

        try:
            with open(args.baseline) as fh:
                baseline = _json.load(fh)
        except (OSError, ValueError):
            baseline = None
    write_report(report, args.out)
    print(f"wrote {args.out}")
    if args.cprofile:
        print(cprofile_case(args.perf_case, schemes[0], kernel=kernels[0],
                            time_scale=time_scale, seed=args.seed))
    if args.check:
        from repro.perf import check_report

        ok, lines = check_report(report, baseline)
        print("perf check vs " + (args.baseline if baseline is not None else "hard floors"))
        for line in lines:
            print("  " + line)
        if not ok:
            print("perf check: REGRESSION", file=sys.stderr)
            return 1
        print("perf check: ok")
    return 0


def _cmd_telemetry(args) -> int:
    from repro.telemetry import TELEMETRY_FORMATS, TelemetryConfig, write_bundle

    if args.name not in registry.names():
        return _unknown_name("experiment", args.name, registry.names())
    scheme = _canonical_scheme(args.scheme)
    if scheme is None:
        return _unknown_name("scheme", args.scheme, _case_schemes())
    if args.tele_format not in TELEMETRY_FORMATS:
        return _unknown_name("telemetry format", args.tele_format, TELEMETRY_FORMATS)
    routing = _single_routing(args, "telemetry")
    exp = registry.get(args.name)
    import dataclasses

    opts = dataclasses.replace(
        _options(args, cache_by_default=False, routing=routing),
        telemetry=TelemetryConfig(interval=args.interval),
    )
    results, report = exp.run(schemes=(scheme,), routings=(routing,), options=opts)
    rc = _report_engine(report, opts, args)
    res = results.get(_result_key(scheme, routing, opts.faults, opts.buffer_model))
    if res is None or res.telemetry is None:
        print("telemetry: no bundle produced (cell failed?)", file=sys.stderr)
        return rc or 1
    bundle = res.telemetry
    written = write_bundle(
        bundle, args.out, fmt=args.tele_format,
        title=f"{exp.title} — {scheme}" + (f" @{routing}" if routing != "det" else ""),
    )
    stats = bundle.get("tree_stats") or {}
    print(
        f"telemetry: {bundle['ticks']} samples at {args.interval:.0f} ns "
        f"({bundle['dropped']} dropped), "
        f"{stats.get('trees', 0)} congestion trees "
        f"(max {stats.get('max_concurrent_trees', 0)} concurrent)"
    )
    for path in written:
        print(f"wrote {path}")
    return rc


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
_SIZE_UNITS = {"b": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_age(text: str) -> float:
    """``"45s" | "30m" | "12h" | "7d"`` (or bare seconds) -> seconds."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([smhd]?)\s*", text, re.IGNORECASE)
    if not m:
        raise ValueError(f"bad age {text!r} (expected e.g. 45s, 30m, 12h, 7d)")
    return float(m.group(1)) * _AGE_UNITS.get(m.group(2).lower(), 1.0)


def _parse_size(text: str) -> int:
    """``"64K" | "500M" | "2G"`` (or bare bytes) -> bytes."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([bkmg]?)b?\s*", text, re.IGNORECASE)
    if not m:
        raise ValueError(f"bad size {text!r} (expected e.g. 64K, 500M, 2G)")
    return int(float(m.group(1)) * _SIZE_UNITS.get(m.group(2).lower(), 1))


def default_broker_dir() -> str:
    """``$REPRO_BROKER_DIR`` or ``~/.cache/repro-broker``."""
    env = os.environ.get("REPRO_BROKER_DIR")
    return env if env else os.path.join(os.path.expanduser("~"), ".cache", "repro-broker")


def _cmd_serve(args) -> int:
    from repro.service import serve

    try:
        serve(
            args.broker or default_broker_dir(),
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir or default_cache_dir(),
            lease_ttl=args.lease_ttl,
            verbose=args.verbose,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_worker(args) -> int:
    from repro.experiments.resilience import RetryPolicy
    from repro.service import Worker

    policy = RetryPolicy(max_retries=max(0, args.retries))
    worker = Worker(
        args.broker,
        worker_id=args.worker_id,
        policy=policy,
        timeout=args.timeout,
        heartbeat_interval=args.heartbeat,
        poll_interval=args.poll_interval,
        journal=args.journal,
        max_cells=args.max_cells,
        idle_exit=args.idle_exit,
    )
    try:
        summary = worker.run()
    except KeyboardInterrupt:
        summary = {"worker": worker.id, "completed": worker.completed,
                   "failed": worker.failed, "elapsed": None}
    print(
        f"worker {summary['worker']}: {summary['completed']} completed, "
        f"{summary['failed']} failed"
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_cache(args) -> int:
    import json as _json

    from repro.experiments.sweep import ResultCache

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.quarantined:
        import time as _time

        now = _time.time()
        rows = [
            {"name": name, "bytes": size, "age_s": round(now - mtime, 1)}
            for name, size, mtime in cache.quarantined()
        ]
        if args.as_json:
            print(_json.dumps(rows, indent=2))
        elif rows:
            print(render_table(rows))
        else:
            print("cache: no quarantined entries")
        return 0
    if args.clear:
        summary = cache.prune(max_age_s=0.0, include_quarantine=True)
        print(f"cache: removed {summary['removed'] + summary['quarantine_removed']} "
              f"entries, freed {summary['freed_bytes']} bytes")
        return 0
    if args.prune:
        try:
            max_age = _parse_age(args.older_than) if args.older_than else None
            max_bytes = _parse_size(args.max_size) if args.max_size else None
        except ValueError as exc:
            print(f"cache: {exc}", file=sys.stderr)
            return 2
        summary = cache.prune(
            max_age_s=max_age,
            max_bytes=max_bytes,
            include_quarantine=not args.keep_quarantine,
        )
        if args.as_json:
            print(_json.dumps(summary, indent=2))
        else:
            print(
                f"cache: pruned {summary['removed']} entries "
                f"(+{summary['quarantine_removed']} quarantined), "
                f"freed {summary['freed_bytes']} bytes"
            )
        return 0
    stats = cache.stats()
    if args.as_json:
        print(_json.dumps(stats, indent=2))
    else:
        print(render_table([{
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "oldest": f"{stats['oldest_age_s']:.0f}s" if stats["oldest_age_s"] is not None else "-",
            "newest": f"{stats['newest_age_s']:.0f}s" if stats["newest_age_s"] is not None else "-",
            "quarantined": stats["quarantined"],
        }]))
        print(f"cache dir: {stats['root']}")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "fig": _cmd_fig,
    "case": _cmd_case,
    "trees": _cmd_trees,
    "sweep": _cmd_sweep,
    "perf": _cmd_perf,
    "telemetry": _cmd_telemetry,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env_kernel = os.environ.get("REPRO_SIM_KERNEL")
    if env_kernel:
        # fail fast with the did-you-mean contract instead of a
        # ValueError traceback from deep inside the first simulation;
        # rewrite the env to the canonical spelling so sweep workers
        # inherit it resolved.
        from repro.sim.engine import KERNELS, resolve_kernel

        try:
            os.environ["REPRO_SIM_KERNEL"] = resolve_kernel(env_kernel)
        except ValueError:
            return _unknown_name("simulator kernel (REPRO_SIM_KERNEL)",
                                 env_kernel, KERNELS)
    if getattr(args, "validate", False):
        # environment (not a plumbed flag) so forked sweep workers and
        # every build_fabric call inherit guard mode (repro.sim.guard).
        os.environ[ENV_VALIDATE] = "1"
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
