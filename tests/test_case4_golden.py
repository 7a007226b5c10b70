"""Golden byte-identity for the CAM-saturated Config #3 path.

``tests/golden/case4_cam_saturated.json`` pins the canonical JSON (and
its SHA-256) of Traffic Case #4 under CCFIT with four congestion trees
on the 64-node fat tree.  At this size every input CAM fills: the cell
records thousands of CFQ allocation failures, so it exercises the
out-of-CFQs branches of detection and post-processing, the iSlip
matcher under contention and the whole Stop/Go/dealloc state machine —
paths the case #1/#2 goldens of ``test_scheme_equivalence.py`` never
reach.  Every kernel must reproduce the pinned bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import run_case
from repro.sim.engine import Simulator

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "case4_cam_saturated.json").read_text()
)
META = GOLDEN["_meta"]

#: the kernels the golden was pinned on, plus the batch slot kernel
#: (kernel choice never changes results).
KERNELS_UNDER_TEST = tuple(META["kernels"]) + ("batch",)


@pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
def test_case4_cam_saturated_matches_golden(kernel):
    res = run_case(
        META["case"],
        scheme=META["scheme"],
        time_scale=META["time_scale"],
        seed=META["seed"],
        num_trees=META["num_trees"],
        sim_factory=lambda: Simulator(kernel=kernel),
    )
    got = res.to_dict()
    assert got == GOLDEN["result"], f"case4 drifted on {kernel}"
    blob = json.dumps(got, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN["sha256"]


def test_golden_cell_is_cam_saturated():
    """The pinned cell really is the saturated regime it stands for,
    and its digest matches its own result."""
    stats = GOLDEN["result"]["stats"]
    assert stats["cfq_alloc_failures"] > 1000
    assert stats["events"] > 50_000
    blob = json.dumps(GOLDEN["result"], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN["sha256"]
