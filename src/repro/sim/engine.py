"""Deterministic discrete-event simulation engine.

Time is a ``float`` in **nanoseconds**.  Events scheduled for the same
instant fire in scheduling order (FIFO tie-break via a monotonically
increasing sequence number), which makes every simulation in this
repository bit-for-bit reproducible for a fixed seed.

Three interchangeable kernels implement that contract (see
docs/performance.md):

* ``"bucket"`` (the default) — a calendar/bucket queue covering a
  sliding near-future window, with a binary-heap overflow for events
  beyond the window.  The dominant event classes of a packet-grain
  interconnect simulation (link serialisation completions, deliveries,
  credit returns, matching rounds) land a few hundred nanoseconds to a
  few microseconds ahead, so almost every insertion is an O(1) list
  append; a bucket is sorted once (C-level, on ``(time, seq)``) when
  the clock enters it.  Queue entries are mutable lists recycled
  through a free-list, and the :meth:`Simulator.post` /
  :meth:`Simulator.schedule_pair` fast paths skip the cancellation
  handle entirely, so steady-state dispatch allocates nothing.
* ``"heap"`` — the original engine, faithfully: a ``heapq`` of
  ``(time, seq, Event)`` tuples with one handle object allocated per
  event (``post``/``schedule_pair`` degrade to plain ``schedule``
  calls consuming the same sequence numbers).  Kept as the golden
  reference and the benchmark baseline; ``Simulator(kernel="heap")``
  (or ``REPRO_SIM_KERNEL=heap``) selects it, and the equivalence tests
  assert byte-identical results against the bucket kernel across all
  schemes.
* ``"batch"`` — the struct-of-arrays slot kernel
  (:mod:`repro.sim.batch`): pending events live in flat parallel
  arrays keyed by MTU-slot index, each slot is ordered once with a
  vectorised ``lexsort`` when the clock enters it, and homogeneous
  recurring event populations can be promoted to vectorised
  *channels* (:meth:`repro.sim.batch.BatchSimulator.add_channel`)
  that advance a whole array of timers per slot instead of running
  one Python callback per event.  ``Simulator(kernel="batch")`` (or
  ``REPRO_SIM_KERNEL=batch``) transparently constructs a
  :class:`~repro.sim.batch.BatchSimulator`.

All kernels share the seq allocator and dispatch order ``(time,
seq)``, so they fire the exact same callbacks in the exact same order:
determinism is the contract, the kernel is an implementation detail.
"""

from __future__ import annotations

import heapq
import os
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "KERNELS",
    "DEFAULT_KERNEL",
    "resolve_kernel",
]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


#: the available queue kernels (see module docstring).
KERNELS = ("bucket", "heap", "batch")
#: process-wide default kernel; the ``REPRO_SIM_KERNEL`` environment
#: variable overrides it (inherited by sweep worker processes).
DEFAULT_KERNEL = "bucket"
_KERNEL_ENV = "REPRO_SIM_KERNEL"

#: calendar-queue geometry defaults.  Buckets are kept *narrower* than
#: the shortest recurring delay (the 40 ns wire delay): an event landing
#: in the bucket currently being consumed needs an O(bucket-population)
#: ``insort``, while anything filed into a later bucket is an O(1)
#: append — so a sub-wire-delay width turns virtually every insertion
#: into an append regardless of how many events are in flight.  The
#: window still spans ~262 µs, far beyond every recurring delay (link
#: delays, control hops, IRD timers, metric sampling periods).
DEFAULT_BUCKET_NS = 32.0
DEFAULT_NUM_BUCKETS = 8192

#: free-list caps — bound worst-case idle memory, never hit in steady
#: state (pool population ≈ peak concurrently-queued events).
_ENTRY_POOL_MAX = 8192

_INF = float("inf")


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """``kernel`` argument > ``REPRO_SIM_KERNEL`` env > module default.

    Names match case-insensitively (``"BATCH"`` resolves to
    ``"batch"``); an unknown name raises :class:`ValueError` with a
    did-you-mean hint — the CLI turns that into exit code 2, the same
    contract as unknown scheme/routing names.
    """
    if kernel is None:
        kernel = os.environ.get(_KERNEL_ENV) or DEFAULT_KERNEL
    if kernel in KERNELS:
        return kernel
    folded = str(kernel).strip().casefold()
    for known in KERNELS:
        if folded == known:
            return known
    import difflib

    close = difflib.get_close_matches(folded, KERNELS, n=1, cutoff=0.4)
    hint = f" — did you mean {close[0]!r}?" if close else ""
    raise ValueError(
        f"unknown simulator kernel {kernel!r}{hint}; choose from {KERNELS}"
    )


def _noop(*_args: Any) -> None:
    return None


class _Cancelled:
    """Callable sentinel planted in a queue entry's ``fn`` slot by
    :meth:`Event.cancel` — an identity check at pop time is cheaper
    than an attribute load on a handle object."""

    __slots__ = ()

    def __call__(self, *_args: Any) -> None:  # pragma: no cover - never invoked
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cancelled>"


_CANCELLED = _Cancelled()

# Queue-entry layout.  Entries are *lists* (mutable, recyclable) that
# compare lexicographically exactly like the historical ``(time, seq,
# ...)`` tuples; ``seq`` is unique so a comparison never reaches the
# non-orderable fn slot.  A chained entry (``schedule_pair``) carries
# its second firing inline and is re-filed in place of being freed.
_TIME, _SEQ, _FN, _ARGS, _T2, _S2, _FN2, _ARGS2, _HANDLE = range(9)


def _insort_desc(lst: list, e: list) -> None:
    """Insert ``e`` into ``lst``, kept sorted in *descending* (time,
    seq) order — the bucket being consumed, which dispatch pops from
    the end (O(1), and consumed entries leave the list, so there is
    never a stale prefix to skip).  Only an event landing less than
    one bucket width ahead takes this path — mostly same-instant posts
    (a switch kicking itself at ``now``).  A new strict minimum is a
    plain append (the small-config common case), and a new strict
    maximum a plain front insert (on the 64-node config, a kick posted
    for the latest instant in a slot-aligned burst of a few hundred
    entries: nearly half the calls); otherwise bisect, because those
    bursts put ~10-40 equal-time entries ahead of the insertion point,
    which a linear scan would walk every time."""
    et = e[0]
    es = e[1]
    hi = len(lst)
    if hi:
        m = lst[-1]
        if m[0] > et or (m[0] == et and m[1] > es):
            lst.append(e)
            return
        m = lst[0]
        if m[0] < et or (m[0] == et and m[1] < es):
            lst.insert(0, e)
            return
        hi -= 1  # lst[-1] precedes e, so the slot is at most hi - 1
    else:
        lst.append(e)
        return
    lo = 1  # lst[0] precedes e
    while lo < hi:
        mid = (lo + hi) // 2
        m = lst[mid]
        if m[0] > et or (m[0] == et and m[1] > es):
            lo = mid + 1
        else:
            hi = mid
    lst.insert(lo, e)


class Event:
    """Handle for a cancellable scheduled callback.

    Returned by :meth:`Simulator.schedule`; keep it only if you may
    need to :meth:`cancel` the event later.  Cancellation is O(1): the
    queue entry is tombstoned and skipped at pop time.  The hot-path
    scheduling APIs (:meth:`Simulator.post`,
    :meth:`Simulator.schedule_pair`) do not create handles at all.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_entry", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # "still queued" marker: the bucket kernel's list entry, or the
        # heap kernel's (time, seq, Event) tuple.  None once fired.
        self._entry: Any = None
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op after
        the event has already fired."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled events do not pin component
        # state alive inside the queue until they are popped.
        self.fn = _noop
        self.args = ()
        # ``_entry`` marks "still queued": the bucket kernel stores the
        # recyclable list entry here (tombstoned below); the heap
        # kernel stores its heap tuple, checked via ``cancelled`` at
        # pop time.  Dispatch clears it, making a late cancel a no-op.
        e = self._entry
        if e is not None:
            self._entry = None
            if type(e) is list:
                e[_FN] = _CANCELLED
                e[_ARGS] = ()
                e[_FN2] = None
                e[_ARGS2] = None
                e[_HANDLE] = None
            sim = self._sim
            if sim is not None:
                sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.1f} seq={self.seq} {state}>"


class Simulator:
    """Event queue + clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1, arg2)   # absolute time
        sim.schedule_in(5.0, handler)             # relative delay
        sim.post(12.0, handler)                   # pooled, no handle
        sim.run(until=1_000_000.0)

    The engine guarantees:

    * events fire in non-decreasing time order;
    * equal-time events fire in the order they were scheduled;
    * a handler scheduling new events at the *current* time has them run
      within the same instant, after already-pending equal-time events.

    Parameters
    ----------
    kernel:
        ``"bucket"`` (default), ``"heap"`` or ``"batch"``; ``None``
        resolves through :func:`resolve_kernel` (``REPRO_SIM_KERNEL``
        env override).  ``"batch"`` transparently constructs a
        :class:`repro.sim.batch.BatchSimulator`.
    bucket_ns, num_buckets:
        Calendar-queue geometry (bucket kernel only).
    profile:
        Maintain :attr:`event_counts`, a per-callback-qualname dispatch
        histogram consumed by :mod:`repro.perf`.  Off by default — it
        costs a dict update per event.
    """

    __slots__ = (
        "now",
        "_seq",
        "_heap",
        "_live",
        "events_dispatched",
        "kernel",
        "_bucketed",
        "_base",
        "_width",
        "_inv_width",
        "_span",
        "_nbuckets",
        "_buckets",
        "_nbucketed",
        "_bidx",
        "_cur",
        "_cur_bi",
        "_pool",
        "event_counts",
    )

    def __new__(cls, kernel: Optional[str] = None, *args: Any, **kwargs: Any):
        # ``Simulator(kernel="batch")`` (or the env override) hands the
        # whole construction to the struct-of-arrays kernel, so every
        # call site — runner, sweep workers, guard, perf — selects it
        # through the exact same ``kernel=`` plumbing as the others.
        if cls is Simulator and resolve_kernel(kernel) == "batch":
            from repro.sim.batch import BatchSimulator

            return object.__new__(BatchSimulator)
        return object.__new__(cls)

    def __init__(
        self,
        kernel: Optional[str] = None,
        bucket_ns: float = DEFAULT_BUCKET_NS,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        profile: bool = False,
    ) -> None:
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns}")
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.kernel = resolve_kernel(kernel)
        self._bucketed = self.kernel == "bucket"
        self.now: float = 0.0
        self._seq: int = 0
        #: overflow heap (bucket kernel) / the whole queue (heap kernel).
        self._heap: list = []
        #: live (non-cancelled, not-yet-fired) events — O(1) pending().
        self._live: int = 0
        #: total events executed — useful for performance reporting.
        self.events_dispatched: int = 0
        #: per-callback dispatch histogram (``profile=True`` only).
        self.event_counts: Optional[dict] = {} if profile else None
        # calendar-queue state
        self._base: float = 0.0
        self._width = float(bucket_ns)
        self._inv_width = 1.0 / float(bucket_ns)
        self._nbuckets = int(num_buckets)
        self._span = self._width * self._nbuckets
        self._buckets: list = [[] for _ in range(self._nbuckets)] if self._bucketed else []
        self._nbucketed = 0          # entries in _buckets (excludes _cur)
        self._bidx = 0               # next bucket index to scan
        #: bucket being consumed: sorted descending, popped from the end
        self._cur: list = []
        self._cur_bi = -1            # bucket index _cur was built from
        #: entry free-list (bucket kernel only — the heap kernel keeps
        #: the historical allocate-per-event behaviour as the baseline).
        self._pool: Optional[list] = [] if self._bucketed else None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _file(self, e: list) -> None:
        """Place an entry into the bucket window or the overflow heap.

        The overflow heap receives *only* events at or beyond the
        window end (``rel >= span``), so every heap entry strictly
        follows every windowed entry and the dispatch loop never has
        to compare the heap head against the current bucket — the
        rebase in :meth:`_refill` is the only path that drains it.
        Everything else lands in a bucket: float rounding at the
        window rim clamps into the last bucket, and a bucket at or
        behind the one being consumed (same-instant posts; a schedule
        after ``run`` returned mid-bucket) sorts into ``_cur``, whose
        descending order puts it right where it fires."""
        rel = e[_TIME] - self._base
        if rel >= self._span:
            heapq.heappush(self._heap, e)
            return
        i = int(rel * self._inv_width) if rel > 0.0 else 0
        if i > self._cur_bi:
            if i >= self._nbuckets:  # float rounding at the window rim
                i = self._nbuckets - 1
                if i == self._cur_bi:
                    _insort_desc(self._cur, e)
                    return
            self._buckets[i].append(e)
            self._nbucketed += 1
        else:
            _insort_desc(self._cur, e)

    def schedule(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns a
        cancellable :class:`Event` handle.

        Raises :class:`SimulationError` if ``time`` lies in the past.
        Scheduling exactly at :attr:`now` is allowed (the event runs
        later within the same instant).
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        ev._sim = self
        self._live += 1
        if self._bucketed:
            pool = self._pool
            if pool:
                e = pool.pop()
                e[_TIME] = time
                e[_SEQ] = seq
                e[_FN] = fn
                e[_ARGS] = args
            else:
                e = [time, seq, fn, args, 0.0, 0, None, None, None]
            e[_HANDLE] = ev
            ev._entry = e
            self._file(e)
        else:
            # legacy kernel: the handle itself rides in the heap tuple.
            ev._entry = e = (time, seq, ev)
            heapq.heappush(self._heap, e)
        return ev

    def post(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` with **no**
        cancellation handle — the pooled hot path used by links,
        switches and traffic generators.  Identical ordering semantics
        to :meth:`schedule`."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if self._bucketed:
            pool = self._pool
            if pool:
                e = pool.pop()
                e[_TIME] = time
                e[_SEQ] = seq
                e[_FN] = fn
                e[_ARGS] = args
            else:
                e = [time, seq, fn, args, 0.0, 0, None, None, None]
            rel = time - self._base
            if 0.0 <= rel < self._span:
                i = int(rel * self._inv_width)
                if i > self._cur_bi:
                    if i < self._nbuckets:
                        self._buckets[i].append(e)
                        self._nbucketed += 1
                    else:
                        self._file(e)  # float edge at the window rim
                else:
                    _insort_desc(self._cur, e)
            else:
                self._file(e)
        else:
            # legacy kernel has no handle-free path: allocate the
            # per-event handle exactly as the original engine did.
            ev = Event(time, seq, fn, args)
            ev._sim = self
            ev._entry = e = (time, seq, ev)
            heapq.heappush(self._heap, e)

    def post_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Pooled relative-delay variant of :meth:`post`.  Standalone
        (not delegating) — it is called once per credit return."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        if self._bucketed:
            pool = self._pool
            if pool:
                e = pool.pop()
                e[_TIME] = time
                e[_SEQ] = seq
                e[_FN] = fn
                e[_ARGS] = args
            else:
                e = [time, seq, fn, args, 0.0, 0, None, None, None]
            rel = time - self._base
            if 0.0 <= rel < self._span:
                i = int(rel * self._inv_width)
                if i > self._cur_bi:
                    if i < self._nbuckets:
                        self._buckets[i].append(e)
                        self._nbucketed += 1
                    else:
                        self._file(e)  # float edge at the window rim
                else:
                    _insort_desc(self._cur, e)
            else:
                self._file(e)
        else:
            ev = Event(time, seq, fn, args)
            ev._sim = self
            ev._entry = e = (time, seq, ev)
            heapq.heappush(self._heap, e)

    def schedule_pair(
        self,
        t1: float,
        fn1: Callable[..., Any],
        args1: tuple,
        t2: float,
        fn2: Callable[..., Any],
        args2: tuple,
    ) -> None:
        """Schedule two chained firings through **one** queue entry:
        ``fn1(*args1)`` at ``t1``, then ``fn2(*args2)`` at ``t2 >= t1``.

        Both sequence numbers are reserved *now*, so the firing order is
        bit-for-bit identical to ``schedule(t1, fn1, ...); schedule(t2,
        fn2, ...)`` — but only one entry lives in the queue at a time
        and no handle objects are allocated.  Links use this to coalesce
        the serialisation-done + delivery pair of every packet hop.
        Not cancellable.
        """
        if t1 < self.now:
            raise SimulationError(f"cannot schedule at t={t1} < now={self.now}")
        if t2 < t1:
            raise SimulationError(f"chained firing at t={t2} precedes first at t={t1}")
        seq = self._seq
        self._seq = seq + 2
        self._live += 2
        if self._bucketed:
            pool = self._pool
            if pool:
                e = pool.pop()
                e[_TIME] = t1
                e[_SEQ] = seq
                e[_FN] = fn1
                e[_ARGS] = args1
                e[_T2] = t2
                e[_S2] = seq + 1
                e[_FN2] = fn2
                e[_ARGS2] = args2
            else:
                e = [t1, seq, fn1, args1, t2, seq + 1, fn2, args2, None]
            rel = t1 - self._base
            if 0.0 <= rel < self._span:
                i = int(rel * self._inv_width)
                if i > self._cur_bi:
                    if i < self._nbuckets:
                        self._buckets[i].append(e)
                        self._nbucketed += 1
                    else:
                        self._file(e)  # float edge at the window rim
                else:
                    _insort_desc(self._cur, e)
            else:
                self._file(e)
        else:
            # legacy kernel: two independent schedules consuming the
            # same (seq, seq+1) pair — bit-identical firing order.
            ev1 = Event(t1, seq, fn1, args1)
            ev1._sim = self
            ev1._entry = e1 = (t1, seq, ev1)
            ev2 = Event(t2, seq + 1, fn2, args2)
            ev2._sim = self
            ev2._entry = e2 = (t2, seq + 1, ev2)
            heapq.heappush(self._heap, e1)
            heapq.heappush(self._heap, e2)

    def schedule_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay`` (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn, *args)

    def call_every(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` periodically (metrics sampling, watchdogs).

        The chain starts at ``start`` (default: one period from now) and
        stops after ``end`` if given.  Cancel via the returned
        :class:`PeriodicTask`.
        """
        if period <= 0:
            raise SimulationError(f"non-positive period {period}")
        first = self.now + period if start is None else start
        return PeriodicTask(self, first, period, end, fn, args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _refill(self) -> bool:
        """Point ``_cur`` at the next non-empty bucket (sorted
        descending — dispatch pops from the end), or rebase the window
        onto the overflow heap.  True iff a bucket was materialised."""
        if self._nbucketed:
            buckets = self._buckets
            n = self._nbuckets
            i = self._bidx
            while i < n:
                b = buckets[i]
                if b:
                    self._nbucketed -= len(b)
                    b.sort(reverse=True)
                    buckets[i] = []
                    self._cur = b
                    self._cur_bi = i
                    self._bidx = i
                    return True
                i += 1
            self._nbucketed = 0  # count drift guard; should be unreachable
        # Window exhausted — rebase it onto the overflow heap so far
        # events dispatch bucketed too (and future schedules stay near
        # the new base).
        self._cur = []
        self._cur_bi = -1
        self._bidx = 0
        heap = self._heap
        if not heap:
            self._base = self.now
            return False
        base = heap[0][_TIME]
        self._base = base
        span = self._span
        invw = self._inv_width
        n = self._nbuckets
        buckets = self._buckets
        pop = heapq.heappop
        moved = 0
        while heap:
            rel = heap[0][_TIME] - base
            if rel >= span:
                break
            i = int(rel * invw)
            if i >= n:  # float rounding at the rim: clamp into the window
                i = n - 1
            buckets[i].append(pop(heap))
            moved += 1
        if moved:
            self._nbucketed += moved
            return self._refill()
        return False

    def _run_bucket(self, until: Optional[float], max_events: Optional[int]) -> None:
        pool = self._pool
        pool_append = pool.append
        counts = self.event_counts
        CANC = _CANCELLED
        until_f = _INF if until is None else until
        limit = (1 << 62) if max_events is None else max_events
        dispatched = 0
        hit_until = False
        # ``cur`` is the current bucket, sorted descending: ``cur[-1]``
        # is the next event and ``cur.pop()`` consumes it in O(1) with
        # no cursor bookkeeping.  The overflow heap never competes with
        # it (every heap entry lies at or beyond the window end — see
        # :meth:`_file`), so the loop consults only ``cur`` and lets
        # :meth:`_refill` drain the heap on rebase.  Callbacks may
        # insert into the same list object (``_insort_desc``), so it is
        # re-examined every iteration; the local only re-binds on
        # refill.  The window geometry is hoisted too: only
        # :meth:`_refill` rebases it, and it never runs in a callback.
        cur = self._cur
        cur_bi = self._cur_bi
        base = self._base
        span = self._span
        inv_width = self._inv_width
        nbuckets = self._nbuckets
        buckets = self._buckets
        while True:
            if cur:
                e = cur[-1]
            elif self._refill():
                cur = self._cur
                cur_bi = self._cur_bi
                base = self._base
                continue
            else:
                break  # drained
            fn = e[2]
            if fn is CANC:
                cur.pop()
                e[3] = None
                if len(pool) < _ENTRY_POOL_MAX:
                    pool_append(e)
                continue
            t = e[0]
            if t > until_f:
                hit_until = True
                break
            cur.pop()
            self.now = t
            dispatched += 1
            if counts is not None:
                key = getattr(fn, "__qualname__", None) or repr(fn)
                counts[key] = counts.get(key, 0) + 1
            a = e[3]
            if a:
                fn(*a)
            else:
                fn()
            if e[6] is not None:
                # chained entry: re-file in place for its second firing
                # (filing inlined — one per link hop, always near-future)
                t2 = e[4]
                e[0] = t2
                e[1] = e[5]
                e[2] = e[6]
                e[3] = e[7]
                e[6] = None
                e[7] = None
                rel = t2 - base
                if 0.0 <= rel < span:
                    i = int(rel * inv_width)
                    if i > cur_bi:
                        if i < nbuckets:
                            buckets[i].append(e)
                            self._nbucketed += 1
                        else:
                            self._file(e)  # float edge at the rim
                    else:
                        _insort_desc(cur, e)
                else:
                    self._file(e)
            else:
                h = e[8]
                if h is not None:
                    h._entry = None
                    e[8] = None
                e[2] = None
                e[3] = None
                if len(pool) < _ENTRY_POOL_MAX:
                    pool_append(e)
            if dispatched >= limit:
                break
        # The per-event ``_live`` debit is deferred to one batch
        # subtraction here: ``cancel()`` debits the attribute directly
        # even mid-batch, and subtraction commutes, so the counter is
        # exact again the moment run() returns (see :meth:`pending`).
        self._live -= dispatched
        self.events_dispatched += dispatched
        if until is not None and self.now < until and (hit_until or self._live == 0):
            self.now = until

    def _run_heap(self, until: Optional[float], max_events: Optional[int]) -> None:
        # The original engine's loop, preserved as the golden reference
        # and benchmark baseline: peek the (time, seq, Event) tuple,
        # skip tombstones via the handle's ``cancelled`` attribute,
        # dispatch through the handle's fn/args.
        heap = self._heap
        counts = self.event_counts
        pop = heapq.heappop
        dispatched = 0
        hit_until = False
        while heap:
            t, _s, ev = heap[0]
            if ev.cancelled:
                pop(heap)
                continue
            if until is not None and t > until:
                hit_until = True
                break
            pop(heap)
            self.now = t
            self._live -= 1
            # detach so a late cancel() is a true no-op
            ev._entry = None
            dispatched += 1
            fn = ev.fn
            if counts is not None:
                key = getattr(fn, "__qualname__", None) or repr(fn)
                counts[key] = counts.get(key, 0) + 1
            fn(*ev.args)
            if max_events is not None and dispatched >= max_events:
                break
        self.events_dispatched += dispatched
        if until is not None and self.now < until and (hit_until or self._live == 0):
            self.now = until

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched.

        ``until`` is inclusive: events stamped exactly ``until`` run.
        On return, :attr:`now` is ``until`` when the queue is drained or
        every remaining event lies beyond ``until``; a stop on
        ``max_events`` leaves the clock at the last event executed so a
        subsequent :meth:`run` resumes without misordering.
        """
        if self._bucketed:
            self._run_bucket(until, max_events)
        else:
            self._run_heap(until, max_events)

    def step(self) -> bool:
        """Run the single next pending event.  Returns False when idle."""
        before = self.events_dispatched
        self.run(max_events=1)
        return self.events_dispatched != before

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (live) event, or None when idle."""
        CANC = _CANCELLED
        best: Optional[float] = None
        cur = self._cur
        for i in range(len(cur) - 1, -1, -1):  # descending: min at the end
            e = cur[i]
            if e[2] is not CANC:
                best = e[0]
                break
        if self._nbucketed:
            for b in self._buckets:
                for e in b:
                    if e[2] is not CANC and (best is None or e[0] < best):
                        best = e[0]
        heap = self._heap
        if self._bucketed:
            while heap and heap[0][2] is CANC:
                heapq.heappop(heap)
        else:
            # legacy kernel: heap holds (time, seq, Event) tuples
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
        if heap and (best is None or heap[0][0] < best):
            best = heap[0][0]
        return best

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)
        via a counter maintained on schedule/cancel/dispatch.

        Exact whenever :meth:`run` is not on the stack (the place the
        watchdog/robustness paths call it from); inside a callback the
        bucket kernel may over-report by the events dispatched so far
        in the current batch, whose debits are synced when the batch
        ends."""
        return self._live

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a batch of events (helper for component teardown)."""
        for ev in events:
            ev.cancel()

    def queue_snapshot(self) -> dict:
        """Histogram of pending callbacks: qualname -> queued count.

        A diagnostic for the invariant guard's watchdog dump (what is
        the simulation waiting on?).  O(pending); never called on the
        dispatch fast path.  Counts both firings of a chained
        :meth:`schedule_pair` entry; cancelled tombstones are skipped.
        """
        counts: dict = {}

        def _count(fn: Any) -> None:
            key = getattr(fn, "__qualname__", None) or repr(fn)
            counts[key] = counts.get(key, 0) + 1

        if self._bucketed:
            CANC = _CANCELLED
            buckets = [self._cur, *self._buckets]
            for bucket in buckets:
                for e in bucket:
                    if e[_FN] is not CANC:
                        _count(e[_FN])
                        if e[_FN2] is not None:
                            _count(e[_FN2])
            for e in self._heap:
                if e[_FN] is not CANC:
                    _count(e[_FN])
                    if e[_FN2] is not None:
                        _count(e[_FN2])
        else:
            for _t, _s, ev in self._heap:
                if not ev.cancelled:
                    _count(ev.fn)
        return counts


class PeriodicTask:
    """A repeating callback chain created by :meth:`Simulator.call_every`."""

    __slots__ = ("sim", "period", "end", "fn", "args", "cancelled", "_next")

    def __init__(
        self,
        sim: Simulator,
        first: float,
        period: float,
        end: Optional[float],
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.sim = sim
        self.period = period
        self.end = end
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._next: Event = sim.schedule(first, self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        nxt = self.sim.now + self.period
        if self.end is None or nxt <= self.end:
            self._next = self.sim.schedule(nxt, self._tick)
        self.fn(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        self._next.cancel()
