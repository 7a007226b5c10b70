"""iSlip crossbar scheduling (McKeown [31]).

The evaluated switches arbitrate with iSlip: every output round-robins
over requesting inputs (grant), every input round-robins over granting
outputs (accept), and the handshake iterates.  Per [12] this gives fair
service of the input ports sharing a hot output — the property the
parking-lot analysis of §IV-C rests on.

**Granularity note.**  Classic iSlip advances a *pointer* one past the
port served, once per cell slot.  At packet granularity in an
event-driven simulation, pointer-RR exhibits *pointer capture*: a
periodic interleaving flow can reset an output's pointer before every
contested slot, permanently starving one input — behaviour a
cell-slotted switch does not show over time because pointer updates and
slots are much finer than packet service times.  The default selection
rule here is therefore **least-recently-granted** (LRG) round-robin:
each output serves the requesting input granted longest ago (and each
input accepts the output it least recently used).  LRG is the
long-run-fair fixed point pointer-RR approximates, and reproduces the
inter-port fairness of the paper's cycle-level iSlip.  The classic
pointer rule is kept as ``mode="pointer"`` for the arbitration ablation
bench, which demonstrates the capture artifact.

The matcher keeps only its RR state between calls; the switch invokes
:meth:`ISlip.match` event-driven with the currently free ports and
pending requests.  A plain single-iteration greedy matcher
(:class:`RoundRobin`) is provided for differential tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set

try:  # numpy accelerates match_matrix; everything degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None  # type: ignore[assignment]

__all__ = ["ISlip", "RoundRobin", "SlotArbiter"]


class ISlip:
    """Iterative round-robin matcher for one switch.

    Parameters
    ----------
    num_inputs, num_outputs:
        Port counts.
    iterations:
        Handshake rounds per matching.  iSlip converges in at most
        ``min(N, M)`` iterations; 2 recover most of the gain.
    mode:
        ``"lrg"`` (default, see module docstring) or ``"pointer"``
        (classic iSlip pointers, first-iteration updates only).
    """

    def __init__(
        self,
        num_inputs: int,
        num_outputs: int,
        iterations: int = 2,
        mode: str = "lrg",
    ) -> None:
        if num_inputs < 1 or num_outputs < 1:
            raise ValueError("need at least one input and one output")
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if mode not in ("lrg", "pointer"):
            raise ValueError(f"unknown arbiter mode {mode!r}")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.iterations = iterations
        self.mode = mode
        # pointer state (mode="pointer")
        self.grant_ptr = [0] * num_outputs
        self.accept_ptr = [0] * num_inputs
        # LRG state (mode="lrg"): last service stamp per pair, plus a
        # monotone clock.  Initial stamps favour low indices, like
        # zeroed pointers.
        self._clock = 1
        self._grant_stamp = [[-inp for inp in range(num_inputs)] for _ in range(num_outputs)]
        self._accept_stamp = [[-out for out in range(num_outputs)] for _ in range(num_inputs)]

    def match(self, requests: Mapping[int, Iterable[int]]) -> Dict[int, int]:
        """Compute a conflict-free input→output matching.

        ``requests`` maps each requesting input port to the output
        ports it has an eligible head packet for.  Busy ports must be
        left out by the caller.  Returns ``{input: output}`` — always a
        valid matching (injective both ways) over the requested pairs.
        """
        req: Dict[int, Set[int]] = {i: set(outs) for i, outs in requests.items() if outs}
        matched_in: Dict[int, int] = {}
        matched_out: Dict[int, int] = {}

        for iteration in range(self.iterations):
            # output -> its unmatched requesters, each list in request
            # order (the order the per-output scan used to produce)
            by_out: Dict[int, List[int]] = {}
            for i, outs in req.items():
                if i not in matched_in:
                    for out in outs:
                        if out not in matched_out:
                            by_out.setdefault(out, []).append(i)
            if not by_out:
                break
            # Outputs grant in ascending order, so the grants dict (and
            # with it the commit order and the LRG clock) is filled the
            # same way as a scan over range(num_outputs).
            grants: Dict[int, List[int]] = {}  # input -> outputs granting it
            for out in sorted(by_out):
                winner = self._pick_grant(out, by_out[out])
                grants.setdefault(winner, []).append(out)
            for inp, outs in grants.items():
                choice = self._pick_accept(inp, outs)
                matched_in[inp] = choice
                matched_out[choice] = inp
                self._commit(inp, choice, iteration)
        return matched_in

    def match_matrix(self, requests: Sequence[Sequence[bool]]) -> Dict[int, int]:
        """Vectorized :meth:`match` over a dense request matrix.

        ``requests[i][o]`` is truthy when input ``i`` has an eligible
        head packet for output ``o`` — the natural shape when a slot
        driver batches arbitration across a whole fabric.  Produces the
        exact matching and the exact post-call arbiter state of
        ``match({i: [o for o if requests[i][o]]})``.

        Vectorization rests on two structural facts about one LRG
        iteration of :meth:`match`: every grant pick reads
        iteration-*start* grant stamps (the grant loop completes before
        any commit), and every accept pick reads a stamp row only its
        *own* later commit could touch — so both picks batch into masked
        argmins over integer keys ``stamp * n + index`` (monotone in the
        ``(stamp, index)`` tie-break for ``0 <= index < n``).  Only the
        commits are ordered: inputs in order of their first granting
        output, matching the scalar grants-dict insertion order, so the
        clock stamps land identically.  Pointer mode (and a missing
        numpy) delegates to the scalar path — both pointer picks are
        order-insensitive over the candidate set, so results agree.
        """
        if len(requests) != self.num_inputs:
            raise ValueError(
                f"request matrix has {len(requests)} rows, expected {self.num_inputs}"
            )
        if _np is None or self.mode == "pointer":
            req: Dict[int, List[int]] = {}
            for i, row in enumerate(requests):
                outs = [o for o in range(self.num_outputs) if row[o]]
                if outs:
                    req[i] = outs
            return self.match(req)

        mask = _np.asarray(requests, dtype=bool)
        if mask.shape != (self.num_inputs, self.num_outputs):
            raise ValueError(
                f"request matrix shape {mask.shape} != "
                f"({self.num_inputs}, {self.num_outputs})"
            )
        ni, no = self.num_inputs, self.num_outputs
        # Integer pick keys: stamp * n + index encodes the (stamp, index)
        # lexicographic tie-break in one argmin-able value.
        ikey = _np.asarray(self._grant_stamp, dtype=_np.int64) * ni + _np.arange(ni)
        okey = _np.asarray(self._accept_stamp, dtype=_np.int64) * no + _np.arange(no)
        big = _np.int64(1) << 62
        avail_in = _np.ones(ni, dtype=bool)
        avail_out = _np.ones(no, dtype=bool)
        out_ids = _np.arange(no)
        matched: Dict[int, int] = {}

        for iteration in range(self.iterations):
            live = mask & avail_in[:, None] & avail_out[None, :]
            gmask = live.T  # (out, in): requesters per unmatched output
            has_req = gmask.any(axis=1)
            if not has_req.any():
                break
            # Grant: each output's least-recently-granted requester.
            winners = _np.where(gmask, ikey, big).argmin(axis=1)
            granting = _np.nonzero(has_req)[0]
            G = _np.zeros((ni, no), dtype=bool)  # G[i, o]: o grants i
            G[winners[granting], granting] = True
            # Accept: each granted input's least-recently-used output.
            # Iteration-start okey is sound here — only an input's own
            # commit writes its accept row, and that happens post-pick.
            choice = _np.where(G, okey, big).argmin(axis=1)
            # Commit in scalar order: inputs by first granting output
            # (distinct per input — an output grants one winner).
            first_out = _np.where(G, out_ids, no).min(axis=1)
            granted = _np.nonzero(G.any(axis=1))[0]
            for inp in granted[_np.argsort(first_out[granted])]:
                i, o = int(inp), int(choice[inp])
                matched[i] = o
                avail_in[i] = False
                avail_out[o] = False
                self._commit(i, o, iteration)
                stamp = self._clock - 1
                ikey[o, i] = stamp * ni + i
                okey[i, o] = stamp * no + o
        return matched

    def match_single(self, inp: int, outs: Iterable[int]) -> int:
        """Fast path for rounds where exactly one input requests.

        With a single requester every requested output grants it on the
        first iteration, the input accepts one of them, and the second
        iteration has nothing left to do — so the full grant/accept
        bookkeeping of :meth:`match` collapses to one accept pick plus
        one state commit.  Returns the chosen output; state updates are
        exactly those ``match({inp: outs})`` would make (both pick
        rules are order-insensitive over the candidate set).
        """
        choice = self._pick_accept(inp, outs)
        self._commit(inp, choice, 0)
        return choice

    # ------------------------------------------------------------------
    def _pick_grant(self, out: int, requesters: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(requesters, self.grant_ptr[out])
        # stamps are unique within a row (distinct initial values, then
        # a monotone clock), so the stamp alone orders the candidates
        return min(requesters, key=self._grant_stamp[out].__getitem__)

    def _pick_accept(self, inp: int, outs: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(outs, self.accept_ptr[inp])
        return min(outs, key=self._accept_stamp[inp].__getitem__)

    def _commit(self, inp: int, out: int, iteration: int) -> None:
        if self.mode == "pointer":
            if iteration == 0:
                # Pointers move one position beyond the match, only for
                # first-iteration matches (the iSlip rule).
                self.grant_ptr[out] = (inp + 1) % self.num_inputs
                self.accept_ptr[inp] = (out + 1) % self.num_outputs
        else:
            self._grant_stamp[out][inp] = self._clock
            self._accept_stamp[inp][out] = self._clock
            self._clock += 1


class RoundRobin:
    """Single-pointer greedy matcher: outputs served in index order,
    each picking the next requesting input round-robin.

    Simpler than iSlip and less fair under asymmetric load; kept as a
    differential-testing and ablation baseline.
    """

    def __init__(self, num_inputs: int, num_outputs: int) -> None:
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.ptr = [0] * num_outputs

    def match(self, requests: Mapping[int, Iterable[int]]) -> Dict[int, int]:
        req = {i: set(outs) for i, outs in requests.items() if outs}
        matched_in: Dict[int, int] = {}
        taken: Set[int] = set()
        for out in range(self.num_outputs):
            requesters = [
                i for i, outs in req.items() if out in outs and i not in matched_in
            ]
            if not requesters or out in taken:
                continue
            winner = _next_from(requesters, self.ptr[out])
            matched_in[winner] = out
            taken.add(out)
            self.ptr[out] = (winner + 1) % self.num_inputs
        return matched_in


class SlotArbiter:
    """Slot-synchronous arbitration driver for a set of switches.

    Where the event-driven path re-arbitrates one switch per ``kick``
    event, a slot driver sweeps **all** switches once per MTU slot:
    for each switch it pulls the request sets via
    ``collect_requests()``, matches them (through the vectorized
    :meth:`ISlip.match_matrix` when profitable), and starts the granted
    transmissions via ``apply_matches()`` — repeating per switch until
    the round is quiescent, exactly like the event path's re-kick loop.
    Works over anything duck-typed like
    :class:`~repro.network.switch.Switch` (``collect_requests``,
    ``apply_matches``, ``arbiter`` attributes).

    The driver produces the same matchings as the event path because it
    runs the same phases in the same order with the same arbiter state;
    it exists so the batch kernel (and the arbitration bench) can
    amortize the per-event scheduling overhead across a whole fabric.
    """

    # Below this many requesting inputs the dict path beats building a
    # dense matrix; measured crossover on 8-port switches.
    matrix_min_requests = 3

    def __init__(self, switches: Iterable[object]) -> None:
        self.switches = list(switches)
        self.rounds = 0
        self.matches = 0

    def arbitrate_slot(self) -> int:
        """Run every switch's matching to quiescence; return the number
        of transmissions started across the fabric this slot."""
        started = 0
        for sw in self.switches:
            while True:
                requests, candidates = sw.collect_requests()
                self.rounds += 1
                if not requests:
                    break
                matches = self._match_switch(sw, requests)
                if not sw.apply_matches(matches, candidates):
                    break
                started += len(matches)
        self.matches += started
        return started

    def _match_switch(self, sw: object, requests: Dict[int, List[int]]) -> Dict[int, int]:
        arbiter = sw.arbiter
        if len(requests) == 1:
            (inp, outs), = requests.items()
            return {inp: arbiter.match_single(inp, outs)}
        if (
            _np is not None
            and len(requests) >= self.matrix_min_requests
            and isinstance(arbiter, ISlip)
            and arbiter.mode == "lrg"
        ):
            matrix = _np.zeros((arbiter.num_inputs, arbiter.num_outputs), dtype=bool)
            for inp, outs in requests.items():
                matrix[inp, list(outs)] = True
            return arbiter.match_matrix(matrix)
        return arbiter.match(requests)


def _next_from(candidates: List[int], pointer: int) -> int:
    """Smallest candidate >= pointer, wrapping around (RR priority)."""
    best_wrap = None
    best = None
    for c in sorted(candidates):
        if c >= pointer:
            best = c
            break
        if best_wrap is None:
            best_wrap = c
    if best is not None:
        return best
    assert best_wrap is not None, "candidates must be non-empty"
    return best_wrap
