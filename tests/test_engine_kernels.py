"""Bucket/heap kernel contract: identical dispatch order, pooled API
semantics, and byte-identical figure results.

The bucket kernel is an implementation detail — these tests pin the
contract that makes it invisible: both kernels share the sequence
allocator and fire callbacks in ``(time, seq)`` order, so every
simulation in the repository produces bit-for-bit identical results on
either.  See docs/performance.md.
"""

import json

import pytest

from repro.sim.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    SimulationError,
    Simulator,
    resolve_kernel,
)


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


# ----------------------------------------------------------------------
# kernel selection
# ----------------------------------------------------------------------
def test_default_kernel_is_bucket():
    assert DEFAULT_KERNEL == "bucket"
    assert Simulator().kernel == "bucket"


def test_kernel_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "heap")
    assert resolve_kernel() == "heap"
    assert Simulator().kernel == "heap"
    # an explicit argument wins over the environment
    assert Simulator(kernel="bucket").kernel == "bucket"


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        Simulator(kernel="splay")
    with pytest.raises(ValueError):
        resolve_kernel("fibonacci")


def _stale_resolve_kernel(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError) as exc:
        resolve_kernel("batch")
    return str(exc.value)


def _stale_simulator(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError) as exc:
        Simulator(kernel="batch")
    return str(exc.value)


def _stale_cli_flag(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--kernel", "batch", "case", "1"])
    assert exc.value.code == 2
    return capsys.readouterr().err


def _stale_cli_env(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    assert main(["table1"]) == 2
    return capsys.readouterr().err


def _stale_http_submit(tmp_path, monkeypatch, capsys):
    from repro.service import ServiceClient, ServiceServer
    from repro.service.api import ServiceError

    with ServiceServer(tmp_path / "broker", port=0,
                       cache_dir=str(tmp_path / "cache")) as srv:
        with pytest.raises(ServiceError) as exc:
            ServiceClient(srv.url).submit("fig7a", kernel="batch")
    assert "HTTP 400" in str(exc.value)
    return str(exc.value)


def _stale_queued_spec(tmp_path, monkeypatch, capsys):
    from repro.experiments import registry
    from repro.service import FsBroker, Worker

    (job, *_) = registry.get("fig7a").jobs(schemes=("CCFIT",), time_scale=0.02, seed=1)
    broker = FsBroker(tmp_path)
    run = broker.submit([job], experiment="fig7a")
    # a spec queued by a submitter that still knew the name
    path = tmp_path / "queue" / f"{job.key()}.json"
    rec = json.loads(path.read_text())
    assert rec["spec"]["schema"] == 1
    rec["spec"]["kernel"] = "batch"
    path.write_text(json.dumps(rec))
    summary = Worker(broker, worker_id="w1", max_cells=1).run()
    assert summary["failed"] == 1
    message = broker.run_manifest(run.id)["failures"][0]["message"]
    assert "undecodable job spec" in message
    return message


@pytest.mark.parametrize("entry", [
    _stale_resolve_kernel,
    _stale_simulator,
    _stale_cli_flag,
    _stale_cli_env,
    _stale_http_submit,
    _stale_queued_spec,
], ids=lambda fn: fn.__name__[len("_stale_"):])
def test_stale_batch_kernel_name_fails_loudly(entry, tmp_path, monkeypatch, capsys):
    """``batch`` is no longer a kernel: every entry point that accepts a
    kernel name rejects it and lists the valid ones."""
    message = entry(tmp_path, monkeypatch, capsys)
    assert "'batch'" in message
    assert "('bucket', 'heap')" in message or "choose from bucket, heap" in message


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        Simulator(bucket_ns=0.0)
    with pytest.raises(ValueError):
        Simulator(num_buckets=0)


# ----------------------------------------------------------------------
# pooled scheduling APIs
# ----------------------------------------------------------------------
def test_post_orders_with_schedule(kernel):
    sim = Simulator(kernel=kernel)
    fired = []
    sim.schedule(5.0, fired.append, "s1")
    sim.post(5.0, fired.append, "p1")
    sim.post(3.0, fired.append, "p0")
    sim.schedule(5.0, fired.append, "s2")
    sim.run()
    assert fired == ["p0", "s1", "p1", "s2"]


def test_post_in_past_raises(kernel):
    sim = Simulator(kernel=kernel)
    sim.post(4.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_in(-0.5, lambda: None)


def test_schedule_pair_equivalent_to_two_schedules(kernel):
    # the pair must interleave with independently scheduled events
    # exactly as two separate schedules would (both seqs reserved at
    # schedule time)
    sim = Simulator(kernel=kernel)
    fired = []
    sim.schedule_pair(10.0, fired.append, ("tx",), 12.0, fired.append, ("rx",))
    sim.schedule(10.0, fired.append, "after-tx")  # later seq, same time
    sim.schedule(12.0, fired.append, "after-rx")
    sim.schedule(11.0, fired.append, "between")
    sim.run()
    assert fired == ["tx", "after-tx", "between", "rx", "after-rx"]
    assert sim.events_dispatched == 5


def test_schedule_pair_same_instant(kernel):
    sim = Simulator(kernel=kernel)
    fired = []
    sim.schedule_pair(7.0, fired.append, ("a",), 7.0, fired.append, ("b",))
    sim.schedule(7.0, fired.append, "c")
    sim.run()
    # both pair seqs (0, 1) predate c's (2), so FIFO gives a, b, c
    assert fired == ["a", "b", "c"]


def test_schedule_pair_validates_times(kernel):
    sim = Simulator(kernel=kernel)
    with pytest.raises(SimulationError):
        sim.schedule_pair(5.0, lambda: None, (), 4.0, lambda: None, ())
    sim.post(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_pair(0.5, lambda: None, (), 2.0, lambda: None, ())


def test_pending_counts_pairs_and_posts(kernel):
    sim = Simulator(kernel=kernel)
    sim.post(1.0, lambda: None)
    sim.schedule_pair(2.0, lambda: None, (), 3.0, lambda: None, ())
    assert sim.pending() == 3
    sim.run(max_events=2)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_entry_recycling_keeps_order(kernel):
    # churn far more events than the pool cap with shifting times; a
    # recycled entry carrying stale state would misorder or drop events
    sim = Simulator(kernel=kernel, bucket_ns=8.0, num_buckets=16)
    fired = []
    count = 9000

    def tick(i):
        fired.append(i)
        if i + 1 < count:
            sim.post(sim.now + 1.0 + (i % 7) * 3.0, tick, i + 1)

    sim.post(0.0, tick, 0)
    sim.run()
    assert fired == list(range(count))


# ----------------------------------------------------------------------
# run()/clock semantics (satellite: no fast-forward on max_events)
# ----------------------------------------------------------------------
def test_max_events_break_does_not_fast_forward_clock(kernel):
    sim = Simulator(kernel=kernel)
    fired = []
    for i in range(1, 11):
        sim.post(float(i), fired.append, i)
    sim.run(until=100.0, max_events=3)
    assert fired == [1, 2, 3]
    assert sim.now == 3.0  # NOT 100.0: there is still pending work
    sim.run(until=100.0)
    assert fired == list(range(1, 11))
    assert sim.now == 100.0  # drained -> clock advances to until


def test_until_with_remaining_future_events_advances_clock(kernel):
    sim = Simulator(kernel=kernel)
    sim.post(50.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0
    sim.run(until=49.0)
    assert sim.now == 49.0
    sim.run(until=50.0)
    assert sim.pending() == 0


def test_peek_time_across_kernels(kernel):
    sim = Simulator(kernel=kernel, bucket_ns=4.0, num_buckets=8)
    assert sim.peek_time() is None
    ev = sim.schedule(3.0, lambda: None)
    sim.post(1000.0, lambda: None)  # beyond the bucket window -> overflow
    assert sim.peek_time() == 3.0
    ev.cancel()
    assert sim.peek_time() == 1000.0


def test_far_future_events_rebase_window():
    # events far beyond the bucket span must dispatch in order after
    # the window rebases onto the overflow heap (several times over)
    sim = Simulator(kernel="bucket", bucket_ns=2.0, num_buckets=4)  # span = 8 ns
    fired = []
    times = [1.0, 7.5, 100.0, 101.0, 5000.0, 5000.0, 123456.0]
    for i, t in enumerate(times):
        sim.post(t, fired.append, (t, i))
    sim.run()
    assert fired == [(t, i) for i, t in enumerate(times)]
    assert sim.now == 123456.0


def test_cancel_after_fire_does_not_corrupt_live_count(kernel):
    sim = Simulator(kernel=kernel)
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    ev.cancel()  # already fired: must be a no-op
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# cross-kernel parity (randomized)
# ----------------------------------------------------------------------
def _mixed_workload(sim, seed):
    """A deterministic schedule/post/pair/cancel storm; returns the
    dispatch trace."""
    import numpy as np

    rng = np.random.default_rng(seed)
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))
        r = rng.random()
        if r < 0.30:
            sim.post(sim.now + float(rng.integers(0, 50)), fire, tag + 1000)
        elif r < 0.55:
            done = sim.now + float(rng.integers(1, 20))
            sim.schedule_pair(done, fire, (tag + 2000,), done + 3.0, fire, (tag + 3000,))
        elif r < 0.75:
            handles.append(sim.schedule(sim.now + float(rng.integers(0, 900)), fire, tag + 4000))
        elif r < 0.85 and handles:
            handles.pop(int(rng.integers(len(handles)))).cancel()

    for i in range(40):
        sim.post(float(rng.integers(0, 200)), fire, i)
    sim.run(until=4000.0)
    return trace


def test_kernels_dispatch_identically_randomized():
    # small bucket window to force frequent rebases/overflow traffic
    t_bucket = _mixed_workload(Simulator(kernel="bucket", bucket_ns=16.0, num_buckets=32), seed=7)
    t_heap = _mixed_workload(Simulator(kernel="heap"), seed=7)
    assert len(t_bucket) > 100
    assert t_bucket == t_heap


# ----------------------------------------------------------------------
# golden test: byte-identical figure results across kernels
# ----------------------------------------------------------------------
def test_case_results_byte_identical_across_kernels():
    from repro.experiments.runner import PAPER_SCHEMES, run_case

    for scheme in PAPER_SCHEMES:
        blobs = {}
        for k in KERNELS:
            res = run_case(
                "case1",
                scheme=scheme,
                time_scale=0.05,
                seed=1,
                sim_factory=lambda k=k: Simulator(kernel=k),
            )
            blobs[k] = json.dumps(res.to_dict(), sort_keys=True)
        assert blobs["bucket"] == blobs["heap"], f"kernel divergence under {scheme}"


# ----------------------------------------------------------------------
# PeriodicTask edge cases (satellite)
# ----------------------------------------------------------------------
def test_periodic_cancel_from_own_callback(kernel):
    sim = Simulator(kernel=kernel)
    fired = []
    holder = {}

    def cb():
        fired.append(sim.now)
        if len(fired) == 3:
            holder["task"].cancel()

    holder["task"] = sim.call_every(10.0, cb)
    sim.run(until=200.0)
    assert fired == [10.0, 20.0, 30.0]
    assert sim.pending() == 0  # the chain left no dangling event


def test_periodic_end_exactly_on_tick_boundary(kernel):
    sim = Simulator(kernel=kernel)
    fired = []
    sim.call_every(10.0, lambda: fired.append(sim.now), start=10.0, end=30.0)
    sim.run(until=100.0)
    assert fired == [10.0, 20.0, 30.0]  # a tick landing on `end` fires


def test_periodic_reentrant_call_every(kernel):
    # a periodic callback spawning another periodic chain must not
    # disturb either cadence
    sim = Simulator(kernel=kernel)
    outer, inner = [], []

    def outer_cb():
        outer.append(sim.now)
        if len(outer) == 1:
            sim.call_every(5.0, lambda: inner.append(sim.now), end=25.0)

    sim.call_every(10.0, outer_cb, end=40.0)
    sim.run(until=100.0)
    assert outer == [10.0, 20.0, 30.0, 40.0]
    assert inner == [15.0, 20.0, 25.0]
