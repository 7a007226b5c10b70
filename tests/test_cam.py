"""Unit tests for the congestion-tree CAMs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cam import CamError, CamLine, InputCam, OutputCam


class TestInputCam:
    def test_allocate_and_lookup(self):
        cam = InputCam(2)
        line = cam.allocate(dest=4, root=True, now=0.0)
        assert line is not None
        assert line.root and line.cfq_index == 0
        assert cam.lookup(4) is line
        assert cam.lookup(5) is None

    def test_capacity_exhaustion_counts_failures(self):
        cam = InputCam(2)
        assert cam.allocate(1, False, 0.0) is not None
        assert cam.allocate(2, False, 0.0) is not None
        assert cam.full
        assert cam.allocate(3, False, 0.0) is None
        assert cam.alloc_failures == 1
        assert cam.allocations == 2

    def test_free_recycles_slot(self):
        cam = InputCam(1)
        line = cam.allocate(1, False, 0.0)
        cam.free(line)
        assert not cam.full
        again = cam.allocate(2, False, 1.0)
        assert again is not None and again.cfq_index == 0

    def test_double_allocate_same_dest_raises(self):
        cam = InputCam(2)
        cam.allocate(1, False, 0.0)
        with pytest.raises(CamError):
            cam.allocate(1, True, 0.0)

    def test_double_free_raises(self):
        cam = InputCam(1)
        line = cam.allocate(1, False, 0.0)
        cam.free(line)
        with pytest.raises(CamError):
            cam.free(line)

    def test_lines_lists_only_allocated(self):
        cam = InputCam(3)
        a = cam.allocate(1, False, 0.0)
        b = cam.allocate(2, False, 0.0)
        cam.free(a)
        assert cam.lines() == [b]
        assert cam.line_at(0) is None
        assert cam.line_at(1) is b

    def test_fresh_line_state(self):
        line = CamLine(dest=9, cfq_index=1, root=False, now=5.0)
        assert not line.stopped
        assert not line.stop_sent
        assert not line.propagated
        assert not line.orphaned
        assert not line.hot
        assert line.allocated_at == 5.0


class TestInputCamLiveCache:
    """The cached live-line tuple the isolation hot paths iterate."""

    def test_interleaved_allocate_free_full(self):
        cam = InputCam(3)
        a = cam.allocate(10, False, 0.0)
        b = cam.allocate(11, False, 0.0)
        assert cam.live == (a, b) and not cam.full
        c = cam.allocate(12, True, 0.0)
        assert cam.live == (a, b, c) and cam.full
        cam.free(b)
        assert cam.live == (a, c) and not cam.full
        d = cam.allocate(13, False, 0.0)  # refills the freed slot 1
        assert d.cfq_index == 1
        assert cam.live == (a, d, c) and cam.full
        assert cam.lines() == [a, d, c]
        cam.free(a)
        cam.free(c)
        assert cam.live == (d,) and cam.lines() == [d]
        cam.free(d)
        assert cam.live == () and cam.lines() == [] and not cam.full
        cam.audit()

    def test_free_while_iterating_lines(self):
        cam = InputCam(4)
        lines = [cam.allocate(dest, False, 0.0) for dest in range(4)]
        seen = []
        for line in cam.lines():
            seen.append(line)
            cam.free(line)
        assert seen == lines
        assert cam.live == () and cam.lines() == []
        cam.audit()

    def test_free_while_iterating_live(self):
        cam = InputCam(3)
        lines = [cam.allocate(dest, False, 0.0) for dest in range(3)]
        seen = []
        for line in cam.live:  # the tuple is a snapshot
            seen.append(line)
            if line.dest == 0:
                cam.free(lines[1])
        assert seen == lines
        assert cam.live == (lines[0], lines[2])
        cam.audit()

    def test_lines_returns_a_fresh_list(self):
        cam = InputCam(2)
        a = cam.allocate(1, False, 0.0)
        got = cam.lines()
        got.clear()
        assert cam.lines() == [a]

    def test_audit_catches_live_cache_drift(self):
        cam = InputCam(2)
        a = cam.allocate(1, False, 0.0)
        b = cam.allocate(2, False, 0.0)
        cam.audit()
        cam.live = (b, a)  # right lines, wrong (non-index) order
        with pytest.raises(CamError, match="live-line cache"):
            cam.audit()
        cam.live = (a,)  # a line missing
        with pytest.raises(CamError, match="live-line cache"):
            cam.audit()

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_live_matches_line_array_under_random_ops(self, ops):
        cam = InputCam(3)
        model = {}  # dest -> line
        for alloc, dest in ops:
            if alloc and dest not in model:
                line = cam.allocate(dest, False, 0.0)
                if line is not None:
                    model[dest] = line
                else:
                    assert len(model) == 3
            elif not alloc and dest in model:
                cam.free(model.pop(dest))
            assert cam.live == tuple(sorted(model.values(), key=lambda ln: ln.cfq_index))
            assert cam.full == (len(model) == 3)
            cam.audit()


class TestOutputCam:
    def test_allocate_is_idempotent(self):
        cam = OutputCam(2)
        a = cam.allocate(7)
        assert cam.allocate(7) is a
        assert cam.destinations() == [7]

    def test_capacity(self):
        cam = OutputCam(1)
        assert cam.allocate(1) is not None
        assert cam.allocate(2) is None
        assert cam.alloc_failures == 1

    def test_free(self):
        cam = OutputCam(2)
        cam.allocate(1)
        cam.free(1)
        assert cam.lookup(1) is None
        with pytest.raises(CamError):
            cam.free(1)
