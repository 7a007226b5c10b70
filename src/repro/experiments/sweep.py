"""Parallel sweep engine with a content-addressed on-disk result cache.

Every figure of §IV is an embarrassingly parallel grid of independent
simulations — (case, scheme, seed, time_scale) cells.  This module
turns such a grid into explicit :class:`SimJob` values and executes
them through :func:`run_sweep`, which

* fans cells out across worker processes via
  :class:`concurrent.futures.ProcessPoolExecutor` when
  ``SweepOptions.jobs > 1`` (falling back to serial in-process
  execution when the platform lacks usable multiprocessing),
* memoizes finished cells in a :class:`ResultCache` keyed by a SHA-256
  hash of everything that determines the cell's output — topology
  descriptor, :class:`~repro.core.params.CCParams`, traffic case,
  scheme, routing policy, seed, time scale and the ``repro`` version —
  so repeated CLI
  runs, benchmarks and EXPERIMENTS.md regeneration reuse results
  instead of re-simulating, and
* survives misbehaving cells: per-job wall-clock timeouts, bounded
  retries with exponential backoff, quarantine of jobs that crash or
  wedge their worker (retried in an isolated single-worker process,
  then recorded in the failure manifest without aborting the sweep),
  graceful degradation to serial execution when pools keep breaking,
  and an optional completed-job journal enabling ``--resume`` after an
  interrupt.  Partial results are first-class: a failed cell leaves a
  ``None`` slot and a structured :class:`~repro.experiments.resilience.JobFailure`
  in ``SweepReport.failures``.

Determinism contract: a cell is seeded only by its own ``SimJob``
fields, so a parallel run, a serial run, a retried run, a resumed run
and a cache hit all yield bit-for-bit identical aggregates
(`CaseResult` serialization is lossless; JSON round-trips finite
floats exactly).

See ``docs/sweep.md`` for the job/cache model and
``docs/robustness.md`` for the failure-handling model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
import traceback as _traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.params import CCParams
from repro.experiments.configs import CONFIG1, CONFIG2, CONFIG3
from repro.experiments.resilience import (
    JobFailure,
    RetryPolicy,
    SweepJournal,
    execute_job,
    run_isolated,
    terminate_pool,
)
from repro.experiments.runner import CASE_NAMES, CaseResult, run_case
from repro.sim.faults import FaultPlan
from repro.telemetry import TelemetryConfig

__all__ = [
    "SweepOptions",
    "SimJob",
    "ResultCache",
    "SweepReport",
    "run_sweep",
    "default_cache_dir",
]


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweep``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return env if env else os.path.join(os.path.expanduser("~"), ".cache", "repro-sweep")


@dataclass(frozen=True)
class SweepOptions:
    """Execution options shared by runners, the CLI and scripts.

    ``time_scale``/``seed``/``params`` are the *defaults* a runner
    applies when the caller did not pass them explicitly; ``jobs`` and
    the cache fields control the engine.  ``cache_dir=None`` (the
    default) disables the cache entirely, keeping programmatic calls
    pure — the CLI opts in explicitly.
    """

    time_scale: float = 1.0
    seed: int = 1
    params: Optional[CCParams] = None
    #: default routing policy for cells that don't pin one
    #: (docs/routing.md); "det" is the paper's deterministic routing.
    routing: str = "det"
    #: simulation kernel for cells that don't pin one
    #: (docs/performance.md); None defers to the engine default /
    #: ``REPRO_SIM_KERNEL``.  All kernels are byte-identical, so this
    #: is a speed knob, not a result knob.
    kernel: Optional[str] = None
    #: worker processes; 1 = serial in-process execution.
    jobs: int = 1
    #: cache directory, or None for no on-disk cache.
    cache_dir: Optional[str] = None
    #: master switch (lets a CLI ``--no-cache`` keep the dir setting).
    use_cache: bool = True
    #: per-job wall-clock timeout in *seconds*, or None for no limit.
    #: Enforcing a timeout requires running the job in a worker process
    #: (a wedged in-process job cannot be interrupted), so a timeout
    #: also routes ``jobs=1`` runs through single-worker pools.
    timeout: Optional[float] = None
    #: bounded retries per failing cell (on top of the first attempt).
    max_retries: int = 2
    #: first retry backoff in seconds (doubles per retry, plus
    #: deterministic per-job jitter — see resilience.RetryPolicy).
    backoff: float = 0.25
    #: path of a completed-job JSONL journal, or None for no journal.
    journal: Optional[str] = None
    #: replay completed cells from the journal instead of re-running.
    resume: bool = False
    #: attach a telemetry sampler to every cell (docs/telemetry.md);
    #: None runs without telemetry.  Results stay byte-identical — the
    #: bundle is additive — but the config is part of the cache key, so
    #: telemetry and non-telemetry runs never serve each other's cells.
    telemetry: Optional[TelemetryConfig] = None
    #: inject deterministic faults into every cell (docs/faults.md);
    #: None runs fault-free.  The plan is part of the cache key, so
    #: faulted and fault-free runs never serve each other's cells.
    faults: Optional[FaultPlan] = None
    #: switch buffer organisation for cells that don't pin one
    #: (docs/buffers.md); None defers to the params default ("static",
    #: the paper's per-port partitioning).  Non-static models change
    #: admission decisions, so the model is part of the cache key.
    buffer_model: Optional[str] = None

    @property
    def cache_enabled(self) -> bool:
        return self.use_cache and self.cache_dir is not None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries, backoff_base=self.backoff)


#: per-case topology descriptors baked into cache keys: a cell's output
#: depends on the network the case runs on, not only the case name.
_CASE_CONFIG = {"case1": CONFIG1, "case2": CONFIG2, "case3": CONFIG2, "case4": CONFIG3}


def _config_descriptor(case: str) -> Dict[str, Any]:
    cfg = _CASE_CONFIG[case]
    return {
        "config": cfg.name,
        "topology": cfg.topology,
        "nodes": cfg.num_nodes,
        "switches": cfg.num_switches,
        "crossbar_bw": cfg.crossbar_bw,
        "link_bandwidths": list(cfg.link_bandwidths),
        "mtu": cfg.mtu,
        "memory_size": cfg.memory_size,
    }


@dataclass(frozen=True)
class SimJob:
    """One independent simulation cell of a sweep grid."""

    #: traffic case ("case1".."case4") — fixes topology and workload.
    case: str
    scheme: str
    time_scale: float = 1.0
    seed: int = 1
    #: None means the case's default parameters (``CCParams()``).
    params: Optional[CCParams] = None
    #: per-case knobs, e.g. (("num_trees", 4), ("duration_ms", 3.0)).
    extra: Tuple[Tuple[str, Any], ...] = ()
    #: telemetry sampling config, or None for no telemetry.
    telemetry: Optional[TelemetryConfig] = None
    #: routing policy the cell runs under (docs/routing.md); "det" is
    #: the paper's deterministic routing.
    routing: str = "det"
    #: simulation kernel the cell runs on (docs/performance.md); None
    #: defers to the engine default / ``REPRO_SIM_KERNEL``.  Canonical
    #: at construction (case-insensitive, did-you-mean on typos).
    kernel: Optional[str] = None
    #: deterministic fault plan (docs/faults.md), or None for a
    #: fault-free cell.  Times are at ``time_scale=1.0``; the runner
    #: scales them with the cell.
    faults: Optional[FaultPlan] = None
    #: switch buffer organisation (docs/buffers.md); None defers to
    #: the params default ("static").  Unlike ``kernel`` this *is*
    #: part of the cache key: a shared-buffer cell admits, pauses and
    #: therefore delivers differently from a static one.
    buffer_model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.case not in CASE_NAMES:
            raise KeyError(f"unknown case {self.case!r}; choose from {sorted(CASE_NAMES)}")
        if self.kernel is not None:
            from repro.sim.engine import resolve_kernel

            object.__setattr__(self, "kernel", resolve_kernel(self.kernel))

    def __getattr__(self, name: str) -> Any:
        # jobs pickled (or journaled) before the routing/kernel axes
        # existed deserialize without the fields; they meant
        # deterministic routing on the default kernel.
        if name == "routing":
            return "det"
        if name in ("kernel", "faults", "buffer_model"):
            return None
        raise AttributeError(name)

    def payload(self) -> Dict[str, Any]:
        """Everything that determines this cell's output (the cache-key
        preimage); see docs/sweep.md for the field inventory.  The
        ``telemetry`` key appears only when telemetry is enabled, the
        ``routing`` key only for non-default policies, and the
        ``buffer_model`` key only for non-static models, so
        pre-telemetry / pre-routing / pre-buffer-model cache entries
        keep their keys.

        ``kernel`` is deliberately **absent**: every kernel produces
        byte-identical results (the golden-equivalence contract, see
        docs/performance.md), so a cached bucket-kernel cell may serve
        a heap-kernel run and vice versa — the kernel is a speed
        knob, not part of the output's preimage."""
        out = {
            "version": __version__,
            "case": self.case,
            "topology": _config_descriptor(self.case),
            "scheme": self.scheme,
            "time_scale": self.time_scale,
            "seed": self.seed,
            "params": dataclasses.asdict(self.params if self.params is not None else CCParams()),
            "extra": dict(self.extra),
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.to_dict()
        if self.routing != "det":
            out["routing"] = self.routing
        if self.faults is not None:
            # unscaled plan + time_scale: the preimage is the *input*;
            # the runner derives the scaled plan deterministically.
            out["faults"] = self.faults.to_dict()
        if self.buffer_model is not None and self.buffer_model != "static":
            out["buffer_model"] = self.buffer_model
        return out

    def key(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def run(self) -> CaseResult:
        """Execute the cell in-process (deterministic for fixed fields)."""
        return run_case(
            self.case,
            scheme=self.scheme,
            time_scale=self.time_scale,
            seed=self.seed,
            params=self.params,
            telemetry=self.telemetry,
            routing=self.routing,
            kernel=self.kernel,
            faults=self.faults,
            buffer_model=self.buffer_model,
            **dict(self.extra),
        )

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.extra)
        base = f"{self.case}/{self.scheme}"
        if self.routing != "det":
            base += f"@{self.routing}"
        if self.kernel is not None:
            base += f"#{self.kernel}"
        if self.faults is not None:
            base += f"+{self.faults.label()}"
        if self.buffer_model is not None and self.buffer_model != "static":
            base += f"%{self.buffer_model}"
        return base + (f"[{extra}]" if extra else "")


class ResultCache:
    """Content-addressed store of finished cells: one JSON file per
    cache key under ``root``.

    Integrity hardening:

    * writes are atomic (tmp + rename), so concurrent sweeps sharing a
      directory never observe torn files;
    * every entry embeds a SHA-256 digest of its result payload,
      verified on read, so a corrupt or truncated entry can never
      silently poison a figure;
    * a corrupt entry is moved to ``root/quarantine/`` (preserving the
      evidence), counted in :attr:`discarded`, reported through
      :mod:`warnings`, and the cell is recomputed — a bad entry is a
      loud miss, never a wrong result.

    Only *data* errors are treated as misses (unreadable file, invalid
    JSON, digest mismatch, undecodable result schema); programming
    errors propagate.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: entries discarded as corrupt/undecodable since construction.
        self.discarded = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @staticmethod
    def _digest(result: Dict[str, Any]) -> str:
        blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _discard(self, key: str, reason: str) -> None:
        """Quarantine a bad entry (or drop it if even that fails)."""
        self.discarded += 1
        target: Optional[Path] = self.quarantine_dir / f"{key}.json"
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(self.path(key), target)
        except OSError:
            target = None
            try:
                self.path(key).unlink()
            except OSError:
                pass
        where = f"; quarantined to {target}" if target is not None else ""
        warnings.warn(
            f"sweep cache entry {key[:12]}... discarded: {reason}{where} "
            f"(the cell will be recomputed)",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, key: str) -> Optional[CaseResult]:
        try:
            text = self.path(key).read_text()
        except FileNotFoundError:
            return None  # a plain miss
        except OSError as exc:
            warnings.warn(
                f"sweep cache entry {key[:12]}... unreadable ({exc}); treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        try:
            data = json.loads(text)
        except ValueError:
            self._discard(key, "invalid JSON (torn or truncated write)")
            return None
        if not isinstance(data, dict) or "result" not in data:
            self._discard(key, "unrecognized entry schema")
            return None
        stored = data.get("sha256")
        if stored is not None and stored != self._digest(data["result"]):
            self._discard(key, "content digest mismatch")
            return None
        try:
            return CaseResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError) as exc:
            # digest-valid but undecodable: written by an incompatible
            # schema version.  Loudly recompute rather than guess.
            self._discard(key, f"undecodable result ({type(exc).__name__}: {exc})")
            return None

    def put(self, key: str, result: CaseResult, job: Optional[SimJob] = None) -> None:
        self.put_dict(key, result.to_dict(), job_payload=job.payload() if job is not None else None)

    def put_dict(
        self, key: str, result_dict: Dict[str, Any], job_payload: Optional[Dict[str, Any]] = None
    ) -> None:
        """Store an already-serialized result (the worker/service path
        receives dicts over the wire; re-hydrating just to re-serialize
        would be waste).  Same atomic-write + digest envelope as
        :meth:`put`."""
        payload: Dict[str, Any] = {
            "schema": 2,
            "sha256": self._digest(result_dict),
            "result": result_dict,
        }
        if job_payload is not None:
            payload["job"] = job_payload
        tmp = self.path(key).with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        n = 0
        for p in self.root.glob("*.json"):
            try:
                p.unlink()
                n += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return n

    # -- hygiene (the `repro cache` subcommand) ------------------------
    def entries(self) -> List[Tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` per entry, oldest first."""
        out: List[Tuple[str, int, float]] = []
        for p in self.root.glob("*.json"):
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((p.stem, st.st_size, st.st_mtime))
        out.sort(key=lambda e: e[2])
        return out

    def quarantined(self) -> List[Tuple[str, int, float]]:
        """``(name, size_bytes, mtime)`` per quarantined file."""
        out: List[Tuple[str, int, float]] = []
        if not self.quarantine_dir.is_dir():
            return out
        for p in self.quarantine_dir.iterdir():
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((p.name, st.st_size, st.st_mtime))
        out.sort(key=lambda e: e[2])
        return out

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe summary: entry/byte totals and age extremes —
        what ``repro cache`` prints for a shared namespace."""
        entries = self.entries()
        quarantined = self.quarantined()
        now = time.time()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _k, size, _m in entries),
            "oldest_age_s": (now - entries[0][2]) if entries else None,
            "newest_age_s": (now - entries[-1][2]) if entries else None,
            "quarantined": len(quarantined),
            "quarantined_bytes": sum(size for _n, size, _m in quarantined),
        }

    def prune(
        self,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        include_quarantine: bool = True,
    ) -> Dict[str, int]:
        """Evict entries older than ``max_age_s``, then — oldest first —
        until the namespace fits ``max_bytes``.  Quarantined files are
        pruned by the same age rule (they are evidence, not results —
        they never count toward the size budget).  Returns removal
        accounting."""
        removed = freed = 0
        now = time.time()
        entries = self.entries()
        if max_age_s is not None:
            cutoff = now - max_age_s
            keep: List[Tuple[str, int, float]] = []
            for key, size, mtime in entries:
                if mtime < cutoff:
                    try:
                        self.path(key).unlink()
                        removed += 1
                        freed += size
                    except OSError:
                        pass
                else:
                    keep.append((key, size, mtime))
            entries = keep
        if max_bytes is not None:
            total = sum(size for _k, size, _m in entries)
            for key, size, _mtime in entries:  # oldest first
                if total <= max_bytes:
                    break
                try:
                    self.path(key).unlink()
                    removed += 1
                    freed += size
                    total -= size
                except OSError:
                    pass
        q_removed = 0
        if include_quarantine and max_age_s is not None:
            cutoff = now - max_age_s
            for name, size, mtime in self.quarantined():
                if mtime < cutoff:
                    try:
                        (self.quarantine_dir / name).unlink()
                        q_removed += 1
                        freed += size
                    except OSError:
                        pass
        return {"removed": removed, "freed_bytes": freed, "quarantine_removed": q_removed}


@dataclass
class SweepReport:
    """What :func:`run_sweep` did: results aligned with the job list,
    plus cache, execution and failure accounting.

    Partial results are first-class: a cell that exhausted its retries
    leaves ``None`` in :attr:`results` and a structured
    :class:`~repro.experiments.resilience.JobFailure` in
    :attr:`failures`; everything else is intact.
    """

    jobs: List[SimJob]
    results: List[Optional[CaseResult]]
    #: cells served from the on-disk cache.
    hits: int = 0
    #: cells not served from cache/journal (attempted this run).
    misses: int = 0
    #: worker processes used (1 = serial, incl. parallel fallback).
    workers: int = 1
    elapsed: float = 0.0
    #: cells replayed from the resume journal.
    resumed: int = 0
    #: retry attempts performed across all cells.
    retried: int = 0
    #: structured records of the cells that could not be completed.
    failures: List[JobFailure] = field(default_factory=list)
    #: execution degraded to serial after repeated pool breakage.
    degraded: bool = False
    #: corrupt cache entries discarded (and recomputed) this run.
    cache_discarded: int = 0
    #: human-readable execution notes (e.g. unenforceable timeouts).
    notes: List[str] = field(default_factory=list)
    #: per-cell wall-clock seconds, aligned with :attr:`jobs` (None for
    #: cells served from cache/journal or failed).  Recorded so the
    #: manifest and the service progress stream agree on timing
    #: attribution.
    cell_elapsed: List[Optional[float]] = field(default_factory=list)
    #: per-cell executor id, aligned with :attr:`jobs`: ``"pid<n>"``
    #: for simulated cells, ``"cache"``/``"journal"`` for replayed
    #: ones, None for failed cells.
    cell_workers: List[Optional[str]] = field(default_factory=list)

    @property
    def ok(self) -> int:
        """Cells simulated successfully this run."""
        return self.misses - len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def by_scheme(self) -> Dict[str, CaseResult]:
        """Scheme -> result, for the common one-cell-per-scheme grids.
        Failed cells are absent from the mapping."""
        return {
            job.scheme: res for job, res in zip(self.jobs, self.results) if res is not None
        }

    def summary(self) -> str:
        s = (
            f"{len(self.jobs)} cell(s): {self.hits} cache hit(s), "
            f"{self.ok} simulated on {self.workers} worker(s) "
            f"in {self.elapsed:.1f} s"
        )
        if self.resumed:
            s += f", {self.resumed} resumed from journal"
        if self.retried:
            s += f", {self.retried} retried"
        if self.failures:
            s += f", {len(self.failures)} FAILED"
        if self.degraded:
            s += " (degraded to serial after pool breakage)"
        return s

    # -- failure manifest ----------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """A JSON-safe structured account of the run (see
        docs/robustness.md for the schema)."""
        failed_keys = {f.key for f in self.failures}
        cells = []
        for i, (job, res) in enumerate(zip(self.jobs, self.results)):
            key = job.key()
            cell = {
                "label": job.label(),
                "key": key,
                "status": "failed" if key in failed_keys and res is None else "ok",
            }
            if i < len(self.cell_workers) and self.cell_workers[i] is not None:
                cell["worker"] = self.cell_workers[i]
            if i < len(self.cell_elapsed) and self.cell_elapsed[i] is not None:
                cell["elapsed_s"] = self.cell_elapsed[i]
            cells.append(cell)
        return {
            "schema": 1,
            "cells": len(self.jobs),
            "ok": self.ok,
            "cache_hits": self.hits,
            "resumed": self.resumed,
            "retried": self.retried,
            "failed": len(self.failures),
            "workers": self.workers,
            "degraded": self.degraded,
            "cache_discarded": self.cache_discarded,
            "elapsed_s": self.elapsed,
            "notes": list(self.notes),
            "jobs": cells,
            "failures": [f.to_dict() for f in self.failures],
        }

    def write_manifest(self, path) -> None:
        """Atomically write :meth:`manifest` as JSON to ``path``."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_suffix(p.suffix + f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.manifest(), indent=2) + "\n")
        os.replace(tmp, p)


def _execute_job(job: SimJob) -> Dict[str, Any]:
    """Worker entry point (kept as the historical name; the
    implementation lives in :func:`repro.experiments.resilience.execute_job`).
    Returns a structured ``{"ok": ..., ...}`` record — worker exceptions
    never surface as bare pool failures, while ``KeyboardInterrupt``
    still propagates promptly."""
    return execute_job(job)


#: pool-infrastructure failures that trigger the serial fallback;
#: simulation errors inside a worker are *not* swallowed (they come
#: back as structured records from :func:`execute_job`).
_POOL_ERRORS = (
    OSError,
    ImportError,
    NotImplementedError,
    PermissionError,
    BrokenProcessPool,
    pickle.PicklingError,
)

#: pool teardowns tolerated before degrading to serial execution.
_MAX_POOL_REBUILDS = 2


class _SweepRun:
    """One :func:`run_sweep` invocation's mutable execution state."""

    def __init__(
        self,
        jobs: Sequence[SimJob],
        keys: List[str],
        opts: SweepOptions,
        cache: Optional[ResultCache],
        journal: Optional[SweepJournal],
    ) -> None:
        self.jobs = jobs
        self.keys = keys
        self.opts = opts
        self.cache = cache
        self.journal = journal
        self.policy = opts.retry_policy()
        self.results: List[Optional[CaseResult]] = [None] * len(jobs)
        self.failures: List[JobFailure] = []
        self.retried = 0
        self.degraded = False
        self.notes: List[str] = []
        self.cell_elapsed: List[Optional[float]] = [None] * len(jobs)
        self.cell_workers: List[Optional[str]] = [None] * len(jobs)

    # -- bookkeeping ---------------------------------------------------
    def complete(
        self,
        i: int,
        result: CaseResult,
        result_dict: Optional[Dict] = None,
        elapsed: Optional[float] = None,
        worker: Optional[str] = None,
    ) -> None:
        self.results[i] = result
        self.cell_elapsed[i] = elapsed
        self.cell_workers[i] = worker
        if self.cache is not None:
            self.cache.put(self.keys[i], result, job=self.jobs[i])
        if self.journal is not None:
            self.journal.record_result(
                self.keys[i], result_dict if result_dict is not None else result.to_dict()
            )

    def fail(self, i: int, kind: str, exception: str, message: str, tb: str, attempts: int) -> None:
        failure = JobFailure(
            key=self.keys[i],
            label=self.jobs[i].label(),
            kind=kind,
            exception=exception,
            message=message,
            traceback=tb,
            attempts=attempts,
        )
        self.failures.append(failure)
        if self.journal is not None:
            self.journal.record_failure(failure)

    def backoff(self, attempt: int, i: int) -> None:
        self.retried += 1
        time.sleep(self.policy.delay(attempt, self.keys[i]))

    # -- in-process serial execution -----------------------------------
    def run_serial(self, indices: Sequence[int]) -> None:
        """The zero-infrastructure path: in-process, exceptions captured
        per cell, retries honoured.  Wall-clock timeouts cannot be
        enforced in-process (a wedged job never yields control)."""
        for i in indices:
            attempt = 0
            while True:
                attempt += 1
                t0 = time.perf_counter()
                try:
                    result = self.jobs[i].run()
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if attempt <= self.policy.max_retries:
                        self.backoff(attempt, i)
                        continue
                    self.fail(
                        i, "error", type(exc).__name__, str(exc),
                        _traceback.format_exc(), attempt,
                    )
                    break
                else:
                    self.complete(
                        i, result,
                        elapsed=time.perf_counter() - t0,
                        worker=f"pid{os.getpid()}",
                    )
                    break

    # -- quarantined (isolated single-worker) execution ----------------
    def run_quarantined(self, i: int, attempt: int) -> None:
        """A job suspected of poisoning a shared pool (or needing an
        enforced timeout) runs in its own single-worker process until it
        completes or exhausts its retry budget."""
        while True:
            attempt += 1
            try:
                record = run_isolated(self.jobs[i], timeout=self.opts.timeout)
            except _POOL_ERRORS:
                # cannot even bring up an isolation process: last resort
                # is the in-process path (no timeout enforcement).
                if self.opts.timeout is not None:
                    self.notes.append(
                        f"{self.jobs[i].label()}: isolation pool unavailable; "
                        f"ran in-process without timeout enforcement"
                    )
                self.run_serial([i])
                return
            if record.get("ok"):
                self.complete(
                    i, CaseResult.from_dict(record["result"]), record["result"],
                    elapsed=record.get("elapsed"), worker=record.get("worker"),
                )
                return
            if attempt <= self.policy.max_retries:
                self.backoff(attempt, i)
                continue
            err = record.get("error", {})
            self.fail(
                i,
                record.get("kind", "error"),
                err.get("exception", "UnknownError"),
                err.get("message", ""),
                err.get("traceback", ""),
                attempt,
            )
            return

    # -- shared-pool parallel execution --------------------------------
    def run_parallel(self, indices: Sequence[int], max_workers: int) -> bool:
        """Fan ``indices`` out across a worker pool.

        Returns False when the pool infrastructure is unusable (the
        caller falls back to :meth:`run_serial`).  Handles, without
        aborting the sweep:

        * structured error records — bounded retries with backoff;
        * a worker crash (``BrokenProcessPool``) — every in-flight job
          becomes a *suspect* and is retried in quarantine, where the
          poisoned job reveals itself and innocent bystanders complete;
        * a per-job timeout — the pool is torn down (the wedged worker
          cannot be interrupted), the expired job goes to quarantine
          with an enforced timeout, and unexpired in-flight jobs are
          requeued without blame;
        * repeated pool breakage — after ``_MAX_POOL_REBUILDS``
          teardowns the remaining cells degrade to quarantined/serial
          execution.
        """
        queue = deque((i, 1) for i in indices)
        inflight: Dict[Any, Tuple[int, int, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        pool_breaks = 0
        timeout = self.opts.timeout
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except _POOL_ERRORS:
            return False
        try:
            while queue or inflight:
                # degrade once pools have proven unreliable
                if pool is None and pool_breaks >= _MAX_POOL_REBUILDS:
                    self.degraded = True
                    remaining = [i for i, _a in queue]
                    queue.clear()
                    if timeout is not None:
                        for i in remaining:
                            self.run_quarantined(i, 0)
                    else:
                        self.run_serial(remaining)
                    continue
                if pool is None:
                    try:
                        pool = ProcessPoolExecutor(max_workers=max_workers)
                    except _POOL_ERRORS:
                        pool_breaks = _MAX_POOL_REBUILDS  # force degradation
                        continue
                # top up the pool
                broken = False
                suspects: List[Tuple[int, int]] = []
                while queue and len(inflight) < max_workers:
                    i, attempt = queue.popleft()
                    try:
                        future = pool.submit(execute_job, self.jobs[i])
                    except _POOL_ERRORS:
                        queue.appendleft((i, attempt))
                        broken = True
                        break
                    deadline = (time.monotonic() + timeout) if timeout is not None else None
                    inflight[future] = (i, attempt, deadline)
                expired: List[Tuple[Any, Tuple[int, int, Optional[float]]]] = []
                if not broken and inflight:
                    wait_for: Optional[float] = None
                    if timeout is not None:
                        nearest = min(dl for (_i, _a, dl) in inflight.values())
                        wait_for = max(0.0, nearest - time.monotonic())
                    done, _not_done = wait(
                        set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        i, attempt, _dl = inflight.pop(future)
                        try:
                            record = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BaseException:
                            # the worker died while running this job (or
                            # the pool broke under it): quarantine.
                            suspects.append((i, attempt))
                            broken = True
                            continue
                        if record.get("ok"):
                            self.complete(
                                i, CaseResult.from_dict(record["result"]), record["result"],
                                elapsed=record.get("elapsed"), worker=record.get("worker"),
                            )
                        elif attempt <= self.policy.max_retries:
                            self.backoff(attempt, i)
                            queue.append((i, attempt + 1))
                        else:
                            err = record.get("error", {})
                            self.fail(
                                i, "error",
                                err.get("exception", "UnknownError"),
                                err.get("message", ""),
                                err.get("traceback", ""),
                                attempt,
                            )
                    if not done and timeout is not None:
                        now = time.monotonic()
                        expired = [
                            (f, v) for f, v in inflight.items()
                            if v[2] is not None and v[2] <= now
                        ]
                if expired:
                    # a worker is wedged: the pool must go (a stuck
                    # process cannot be interrupted from outside).
                    for future, (i, attempt, _dl) in expired:
                        del inflight[future]
                        suspects.append((i, attempt))
                    broken = True
                if broken:
                    # unexpired in-flight jobs are innocent bystanders:
                    # requeue them without consuming a retry.
                    for future, (i, attempt, _dl) in list(inflight.items()):
                        queue.appendleft((i, attempt))
                    inflight.clear()
                    terminate_pool(pool)
                    pool = None
                    pool_breaks += 1
                    for i, attempt in suspects:
                        self.run_quarantined(i, attempt)
            return True
        finally:
            if pool is not None:
                terminate_pool(pool)


def run_sweep(jobs: Sequence[SimJob], *, options: Optional[SweepOptions] = None) -> SweepReport:
    """Execute a grid of cells, reusing cached results where possible.

    Cells already in the cache (or, with ``options.resume``, the
    journal) are returned without simulating; the rest run either
    serially (``options.jobs <= 1``) or on a process pool.  If the pool
    cannot be brought up (restricted platforms, unpicklable state), the
    engine degrades gracefully to serial execution — results are
    identical either way.  A cell that crashes, times out or keeps
    raising is recorded in ``SweepReport.failures`` and leaves a
    ``None`` result slot; the rest of the sweep completes normally.
    """
    opts = options if options is not None else SweepOptions()
    cache = ResultCache(opts.cache_dir) if opts.cache_enabled else None
    journal = SweepJournal(opts.journal) if opts.journal else None
    t0 = time.perf_counter()

    keys = [job.key() for job in jobs]
    journaled = journal.load() if (journal is not None and opts.resume) else {}
    run = _SweepRun(jobs, keys, opts, cache, journal)

    pending: List[int] = []
    hits = 0
    resumed = 0
    for i, job in enumerate(jobs):
        rec = journaled.get(keys[i])
        if rec is not None:
            run.results[i] = CaseResult.from_dict(rec["result"])
            run.cell_workers[i] = "journal"
            resumed += 1
            continue
        if cache is not None:
            found = cache.get(keys[i])
            if found is not None:
                run.results[i] = found
                run.cell_workers[i] = "cache"
                hits += 1
                continue
        pending.append(i)

    workers = 1
    try:
        if pending:
            if opts.jobs > 1 and len(pending) > 1:
                n_workers = min(opts.jobs, len(pending))
                if run.run_parallel(pending, n_workers):
                    workers = n_workers
                else:
                    run.run_serial(pending)
            elif opts.timeout is not None:
                # timeouts need a worker process even for serial runs
                for i in pending:
                    run.run_quarantined(i, 0)
            else:
                run.run_serial(pending)
    finally:
        if journal is not None:
            journal.close()

    return SweepReport(
        jobs=list(jobs),
        results=run.results,
        hits=hits,
        misses=len(pending),
        workers=workers,
        elapsed=time.perf_counter() - t0,
        resumed=resumed,
        retried=run.retried,
        failures=run.failures,
        degraded=run.degraded,
        cache_discarded=cache.discarded if cache is not None else 0,
        notes=run.notes,
        cell_elapsed=run.cell_elapsed,
        cell_workers=run.cell_workers,
    )
