"""Golden equivalence: the pluggable-scheme refactor must be invisible.

``tests/golden/scheme_equivalence.json`` pins the canonical JSON (and
its SHA-256) of every ``CaseResult`` produced by the paper schemes
*before* the hook-based scheme architecture landed (commit ``a480e9c``).
These tests recompute each cell on both engine kernels and require
byte-identical output — any behavioural drift in the refactored
switch/end-node/fabric path fails loudly, with the full dict diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_case
from repro.sim.engine import Simulator

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheme_equivalence.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
META = GOLDEN["_meta"]

#: the kernels the golden cells must reproduce on: the two the golden
#: file was pinned with — the golden bytes are kernel-invariant by
#: contract, so a new kernel joins the parametrization without touching
#: the golden file.
KERNELS_UNDER_TEST = tuple(META["kernels"])

#: every registered routing policy (the kernel × routing grid below).
ROUTING_POLICIES = ("det", "ecmp", "adaptive", "flowlet")


def _canonical(res) -> str:
    return json.dumps(res.to_dict(), sort_keys=True)


@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
@pytest.mark.parametrize("cell", sorted(GOLDEN["cells"]))
def test_cell_matches_golden(cell, kernel):
    case, scheme = cell.split("/")
    res = run_case(
        case,
        scheme=scheme,
        time_scale=META["grid"][case],
        seed=META["seed"],
        sim_factory=lambda: Simulator(kernel=kernel),
    )
    gold = GOLDEN["cells"][cell]
    # dict comparison first: on drift, pytest shows *which* field moved.
    assert res.to_dict() == gold["result"], f"{cell} drifted on {kernel}"
    blob = _canonical(res)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == gold["sha256"], f"{cell} canonical JSON differs on {kernel}"


@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
def test_det_policy_is_the_golden_reference(kernel):
    """Explicit ``routing="det"`` (the policy-layer path, not the
    default-resolution path) reproduces the pre-policy golden bytes —
    on both kernels — proving the RoutingPolicy indirection is
    invisible to results."""
    cell = sorted(GOLDEN["cells"])[0]
    case, scheme = cell.split("/")
    res = run_case(
        case,
        scheme=scheme,
        time_scale=META["grid"][case],
        seed=META["seed"],
        routing="det",
        sim_factory=lambda: Simulator(kernel=kernel),
    )
    gold = GOLDEN["cells"][cell]
    assert res.to_dict() == gold["result"]
    assert hashlib.sha256(_canonical(res).encode()).hexdigest() == gold["sha256"]
    # the det marker itself must not leak into the serialised bytes
    assert "routing" not in res.to_dict()


def _cross_kernel_blob(case, scheme, routing, kernel, time_scale):
    res = run_case(
        case,
        scheme=scheme,
        time_scale=time_scale,
        seed=META["seed"],
        routing=routing,
        sim_factory=lambda: Simulator(kernel=kernel),
    )
    return _canonical(res)


@pytest.mark.parametrize("routing", ROUTING_POLICIES)
def test_bucket_kernel_byte_identical_under_every_routing_policy(routing):
    """The bucket kernel must agree with the heap golden reference under
    every routing policy, not only the golden det cells — non-det
    results have no golden pin, so the reference is a fresh heap run
    of the same cell (tier-1 sized: one scheme, the small case)."""
    blobs = {
        kernel: _cross_kernel_blob("case1", "CCFIT", routing, kernel, 0.05)
        for kernel in ("heap", "bucket")
    }
    assert blobs["bucket"] == blobs["heap"], f"bucket diverges under routing={routing}"


@pytest.mark.tier2
@pytest.mark.parametrize("routing", ROUTING_POLICIES)
@pytest.mark.parametrize("scheme", META["schemes"])
def test_bucket_kernel_full_scheme_routing_grid(scheme, routing):
    """Tier-2 big grid: every paper scheme × every routing policy,
    bucket vs heap, on the golden scenario sizes."""
    for case, time_scale in META["grid"].items():
        blobs = {
            kernel: _cross_kernel_blob(case, scheme, routing, kernel, time_scale)
            for kernel in ("heap", "bucket")
        }
        assert blobs["bucket"] == blobs["heap"], (
            f"bucket diverges: {case}/{scheme}@{routing}"
        )


def test_golden_file_covers_declared_grid():
    """The golden file itself is consistent: one cell per declared
    (case, scheme) pair, each with a digest matching its own result."""
    expected = {
        f"{case}/{scheme}"
        for case in META["grid"]
        for scheme in META["schemes"]
    }
    assert set(GOLDEN["cells"]) == expected
    for cell, payload in GOLDEN["cells"].items():
        blob = json.dumps(payload["result"], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == payload["sha256"], cell
