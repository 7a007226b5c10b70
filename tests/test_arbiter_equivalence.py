"""Equivalence of the iSlip matcher with its earlier scan-per-output form.

``ReferenceISlip`` carries the matcher as it was before the
output -> requesters map was built once per iteration: one list
comprehension over every request for each output, and picks that
break stamp ties by index.  Both matchers are driven through the same
random call sequences (``match`` and ``match_single``, LRG and pointer
modes, 1-3 iterations); every call must return the same matching and
leave the same arbiter state behind.
"""

from typing import Dict, Iterable, List, Mapping, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.arbiter import ISlip, _next_from


class ReferenceISlip(ISlip):
    """The earlier matcher, copied verbatim (match and both picks)."""

    def match(self, requests: Mapping[int, Iterable[int]]) -> Dict[int, int]:
        req: Dict[int, Set[int]] = {i: set(outs) for i, outs in requests.items() if outs}
        matched_in: Dict[int, int] = {}
        matched_out: Dict[int, int] = {}

        for iteration in range(self.iterations):
            grants: Dict[int, List[int]] = {}  # input -> outputs granting it
            for out in range(self.num_outputs):
                if out in matched_out:
                    continue
                requesters = [
                    i for i, outs in req.items() if out in outs and i not in matched_in
                ]
                if not requesters:
                    continue
                winner = self._pick_grant(out, requesters)
                grants.setdefault(winner, []).append(out)
            if not grants:
                break
            for inp, outs in grants.items():
                choice = self._pick_accept(inp, outs)
                matched_in[inp] = choice
                matched_out[choice] = inp
                self._commit(inp, choice, iteration)
        return matched_in

    def _pick_grant(self, out: int, requesters: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(requesters, self.grant_ptr[out])
        stamps = self._grant_stamp[out]
        return min(requesters, key=lambda i: (stamps[i], i))

    def _pick_accept(self, inp: int, outs: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(outs, self.accept_ptr[inp])
        stamps = self._accept_stamp[inp]
        return min(outs, key=lambda o: (stamps[o], o))


def _state(arb: ISlip) -> tuple:
    return (
        [list(row) for row in arb._grant_stamp],
        [list(row) for row in arb._accept_stamp],
        arb._clock,
        list(arb.grant_ptr),
        list(arb.accept_ptr),
    )


@st.composite
def scenarios(draw):
    ni = draw(st.integers(1, 6))
    no = draw(st.integers(1, 6))
    ports_out = st.lists(st.integers(0, no - 1), max_size=no + 1)  # duplicates too
    request_map = st.dictionaries(st.integers(0, ni - 1), ports_out, max_size=ni)
    single = st.tuples(st.integers(0, ni - 1), st.lists(st.integers(0, no - 1), min_size=1, max_size=no))
    calls = draw(st.lists(st.one_of(request_map, single), min_size=1, max_size=25))
    mode = draw(st.sampled_from(["lrg", "pointer"]))
    iterations = draw(st.integers(1, 3))
    return ni, no, mode, iterations, calls


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_match_equals_reference_call_by_call(scenario):
    ni, no, mode, iterations, calls = scenario
    new = ISlip(ni, no, iterations=iterations, mode=mode)
    ref = ReferenceISlip(ni, no, iterations=iterations, mode=mode)
    for call in calls:
        if isinstance(call, tuple):
            inp, outs = call
            assert new.match_single(inp, outs) == ref.match_single(inp, outs)
        else:
            got = new.match(call)
            want = ref.match(call)
            assert got == want
            # dict order is the commit order the LRG clock follows
            assert list(got.items()) == list(want.items())
        assert _state(new) == _state(ref)


def test_reference_agrees_on_a_contended_sequence():
    """A deterministic anchor next to the property: full contention on
    every output, repeated, keeps both matchers in lockstep."""
    new, ref = ISlip(4, 4), ReferenceISlip(4, 4)
    req = {i: [0, 1, 2, 3] for i in range(4)}
    for _ in range(50):
        assert list(new.match(req).items()) == list(ref.match(req).items())
    assert _state(new) == _state(ref)
