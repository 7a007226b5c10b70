"""Self-test of the benchmark harness on tiny cells.

    python3 -m pytest perfbench/tests -q

Checks that the emitted metric names and units match ``BENCHMARK.json``,
that the traced run's self time covers the cell time the sweep measured
(and fails when spans go missing), that a wrong pinned digest is counted
as a failure, and that the harness refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*extra: str, workload: str = "case3_nocc", cwd: str = ROOT, run: str = RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, section):
    res = _result(_run("--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_workloads_match_benchmark_json():
    import workloads

    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def _traced_pair(tmp_path):
    import workloads

    checker = workloads.Checker({})
    space = workloads.Workspace(str(tmp_path))
    try:
        figures, (accounting, table) = workloads.traced_pair(
            workloads.cells("case4_ccfit", 3, tiny=True), 1, checker, space)
    finally:
        space.close()
    return checker, figures, accounting, table


def test_traced_self_time_accounts_for_the_run(tmp_path):
    import tracer
    import workloads

    checker, figures, accounting, table = _traced_pair(tmp_path)
    assert checker.failed == 0, checker.errors
    # the in-cell spans cover the cell time the sweep measured, bar the
    # small uncovered share (topology construction, result assembly)
    assert 0.0 <= accounting["uncovered_pct"] < 100 * workloads.UNCOVERED_MAX
    assert accounting["covered_s"] <= accounting["traced_cell_s"]
    by_layer = {}
    for row in table:
        assert row["self_s"] <= row["total_s"] + 1e-9
        by_layer[row["layer"]] = by_layer.get(row["layer"], 0.0) + row["self_s"]
    for layer in tracer.SIM_LAYERS:
        assert by_layer.get(layer, 0.0) > 0.0, layer
    assert figures["isolation.updates_per_arrival"] > 1.0
    assert figures["engine.events"] > 0 and figures["cache.misses"] == 1
    # the wrappers are gone once the pass ends
    from repro.network.link import Link

    assert not hasattr(Link.send, "__wrapped__")


def test_lost_spans_fail_the_accounting(tmp_path, monkeypatch):
    import tracer

    # without the Fabric.run and Simulator.run spans, the engine's
    # dispatch time is covered by no span
    monkeypatch.delitem(tracer.LAYER_SITES, "run")
    monkeypatch.delitem(tracer.LAYER_SITES, "engine")
    checker, _figures, accounting, _table = _traced_pair(tmp_path)
    assert checker.failed == 1, checker.errors
    assert "uncovered" in checker.errors[0]
    assert accounting["uncovered_pct"] >= 5.0


def test_wrong_digest_counts_as_failure():
    import workloads

    with open(os.path.join(BENCH, "digests.json")) as fh:
        table = json.load(fh)["cells"]
    job = workloads.cells("case3_nocc", workloads.DEFAULT_SEED, tiny=True)[0]
    result = job.run()
    right = workloads.Checker(table)
    right.cell(job, result)
    assert (right.attempted, right.failed) == (1, 0), right.errors
    table[workloads.cell_id(job)] = dict(table[workloads.cell_id(job)], sha256="0" * 64)
    wrong = workloads.Checker(table)
    wrong.cell(job, result)
    assert (wrong.attempted, wrong.failed) == (1, 1)
    assert "pinned" in wrong.errors[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--trace", "0", cwd=str(tmp_path), run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
