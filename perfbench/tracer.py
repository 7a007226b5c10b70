"""Span tracer for the benchmark's traced run.

The tracer times calls into each simulator layer *from outside the
program*: it replaces selected methods on the layer classes with
wrappers that record a span per call.  Wrappers are installed on the
classes, never on instances, and must be installed *before*
``build_fabric`` runs, because switches, end nodes and throttles
capture bound methods (``on_release=self.pump``,
``on_delivery=collector.record_delivery``) at construction.

Spans are kept in memory as per-site aggregates (calls, total seconds,
self seconds).  A span's self time is its duration minus the time its
child spans cover; the engine's self time is the ``Simulator.run`` span
minus every child span, i.e. dispatch overhead plus the callbacks no
site covers (see ``README.md``).  Nothing is written while the
simulation runs; :meth:`Tracer.table` is dumped once at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer -> ((module, class, methods), ...).  Each method is wrapped on
#: the class that defines it, so subclasses that do not override it are
#: covered too.  Tiny buffer operations (``BufferPool.reserve``,
#: ``PacketQueue.push``...) are deliberately not wrapped: the wrapper
#: would cost more than the body, so they are charged to their caller.
LAYER_SITES: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "engine": (("repro.sim.engine", "Simulator", ("run",)),),
    "switch": (
        ("repro.network.switch", "Switch", ("_match", "kick")),
        (
            "repro.network.switch",
            "InputPort",
            (
                "receive_packet",
                "receive_control",
                "can_accept",
                "reserve",
                "release_packet",
                "cancel_reservation",
                "announced_tree",
                "root_cfq_hot_changed",
                "set_output_hot",
                "send_upstream",
            ),
        ),
        ("repro.network.switch", "OutputPort", ("on_tx_done", "on_credit", "receive_reverse_control")),
        ("repro.network.queueing", "CongestionControlScheme", ("eligible_heads",)),
        ("repro.network.queueing", "OneQScheme", ("on_arrival",)),
        ("repro.network.queueing", "VOQswScheme", ("on_arrival", "after_dequeue")),
        ("repro.network.queueing", "DbbmScheme", ("on_arrival",)),
        ("repro.network.queueing", "VOQnetScheme", ("on_arrival", "can_accept_extra", "reserve_extra")),
        ("repro.schemes.pfc", "PfcQueueScheme", ("on_arrival", "_build_heads", "on_control_message")),
    ),
    "arbiter": (("repro.network.arbiter", "ISlip", ("match", "match_single")),),
    "isolation": (
        (
            "repro.core.isolation",
            "NfqCfqScheme",
            ("on_arrival", "after_dequeue", "_build_heads", "update", "on_control_message",
             "holds_destination"),
        ),
    ),
    "throttling": (
        ("repro.core.scheme", "CongestionStateMarking", ("should_mark",)),
        ("repro.core.throttling", "ThrottleState", ("on_becn", "_decay", "next_allowed", "record_injection")),
        ("repro.schemes.rcm", "QueueDepthMarking", ("should_mark",)),
        ("repro.schemes.rcm", "RcmGate", ("on_becn", "_recover", "next_allowed", "record_injection")),
    ),
    "link": (
        (
            "repro.network.link",
            "Link",
            (
                "send",
                "can_send",
                "return_credit",
                "send_control",
                "send_reverse_control",
                "_tx_done",
                "_deliver",
                "_credit_arrive",
                "_deliver_control",
                "_deliver_reverse_control",
            ),
        ),
    ),
    "endnode": (
        (
            "repro.network.endnode",
            "EndNode",
            ("offer", "pump", "_inject", "on_tx_done", "on_credit", "receive_reverse_control",
             "receive_packet", "receive_control"),
        ),
        ("repro.network.endnode", "IaStage", ("kick",)),
        ("repro.traffic.flows", "FlowGenerator", ("_tick",)),
        ("repro.traffic.flows", "UniformGenerator", ("_tick",)),
    ),
    "collector": (("repro.metrics.collector", "Collector", ("record_delivery",)),),
    # the simulation's outer boundary; its self time is Fabric.run's own
    # work around Simulator.run
    "run": (("repro.network.fabric", "Fabric", ("run",)),),
    "sweep": (("repro.experiments.sweep", "SimJob", ("key",)),),
    "cache": (("repro.experiments.sweep", "ResultCache", ("get", "put")),),
}

#: module-level functions the runner imported by name; patched on the
#: runner module, where ``run_case`` looks them up.
SETUP_SITES = (
    ("repro.experiments.runner", "build_fabric", "setup.build_fabric"),
    ("repro.experiments.runner", "attach_traffic", "setup.attach_traffic"),
)

#: layers whose self time lies inside ``Fabric.run``.
SIM_LAYERS = ("engine", "switch", "arbiter", "isolation", "throttling", "link", "endnode", "collector")
#: layers whose spans lie inside one cell's ``run_case``.
IN_CELL_LAYERS = SIM_LAYERS + ("run", "setup")


class Tracer:
    """Installs timing wrappers and aggregates their spans.

    ``sites`` maps ``"Class.method"`` to ``[layer, calls, total_s,
    self_s]``.  Two counters ride on plain counting wrappers (no span):
    ``match_rounds`` (``Switch.collect_requests`` calls) and
    ``match_applied`` (``Switch.apply_matches`` calls that started at
    least one transmission).
    """

    def __init__(self) -> None:
        self.sites: Dict[str, List] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        # child-time accumulators; the bottom entry collects top-level spans
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn: Callable, site: str, layer: str) -> Callable:
        rec = self.sites.setdefault(site, [layer, 0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[1] += 1
                rec[2] += dt
                rec[3] += dt - child
                stack[-1] += dt

        return wrapper

    def _counted(self, fn: Callable, name: str, truthy_name: str = "") -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if truthy_name and out:
                counts[truthy_name] += 1
            return out

        return wrapper

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every site.  Call before the fabric is built."""
        for layer, entries in LAYER_SITES.items():
            for module, cls_name, methods in entries:
                cls = getattr(importlib.import_module(module), cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._timed(cls.__dict__[meth], f"{cls_name}.{meth}", layer))
        switch_cls = importlib.import_module("repro.network.switch").Switch
        self._patch(switch_cls, "collect_requests",
                    self._counted(switch_cls.__dict__["collect_requests"], "match_rounds"))
        self._patch(switch_cls, "apply_matches",
                    self._counted(switch_cls.__dict__["apply_matches"], "apply_calls", "match_applied"))
        for module, func, site in SETUP_SITES:
            mod = importlib.import_module(module)
            self._patch(mod, func, self._timed(mod.__dict__[func], site, "setup"))
        return self

    def uninstall(self) -> None:
        """Restore every original attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for layer, _calls, _total, self_s in self.sites.values():
            out[layer] += self_s
        return dict(out)

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for layer, calls, _total, _self in self.sites.values():
            out[layer] += calls
        return dict(out)

    def site(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one site (zeros if never hit)."""
        rec = self.sites.get(name)
        return (rec[1], rec[2], rec[3]) if rec is not None else (0, 0.0, 0.0)

    def table(self) -> List[Dict[str, object]]:
        """Every site's aggregate span record, busiest first."""
        rows = [
            {"site": site, "layer": layer, "calls": calls, "total_s": total, "self_s": self_s}
            for site, (layer, calls, total, self_s) in self.sites.items()
            if calls
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
