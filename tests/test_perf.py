"""The ``repro perf`` harness: JSON report shape and CLI smoke."""

import json

from repro.cli import main
from repro.perf import (
    PERF_GATES,
    check_report,
    dispatch_microbench,
    render_report,
    run_perf,
    subsystem_counts,
    telemetry_overhead,
)


def test_dispatch_microbench_counts_events():
    m = dispatch_microbench("bucket", n_events=5_000, repeats=1)
    assert m["events"] == 5_000
    assert m["events_per_s"] > 0
    assert m["wall_s"] > 0


def test_subsystem_counts_folds_qualnames():
    counts = {
        "Link._tx_done": 10,
        "Link._deliver": 10,
        "Switch._match": 5,
        "InputPort.receive_packet": 2,
        "EndNode._inject": 3,
        "FlowGenerator._tick": 4,
        "weird_function": 1,
    }
    subs = subsystem_counts(counts)
    assert subs["link"] == 20
    assert subs["switch"] == 7
    assert subs["endnode"] == 3
    assert subs["traffic"] == 4
    assert subs["other"] == 1


def test_run_perf_report_shape():
    report = run_perf(
        cases=("case1",),
        schemes=("1Q",),
        kernels=("bucket", "heap"),
        time_scale=0.02,
        seed=1,
        micro_events=5_000,
        micro_repeats=1,
    )
    assert report["schema"] == "repro.perf/1"
    assert set(report["microbench"]) == {"bucket", "heap"}
    assert report["speedup"] > 0
    assert len(report["cases"]) == 2
    for row in report["cases"]:
        assert row["events"] > 0
        assert row["events_per_s"] > 0
        assert "subsystems" in row and row["subsystems"]
    # both kernels executed the exact same event sequence
    a, b = report["cases"]
    assert a["events"] == b["events"]
    assert a["delivered_packets"] == b["delivered_packets"]
    # the telemetry-overhead gate runs once per kernel
    assert {row["kernel"] for row in report["telemetry"]} == {"bucket", "heap"}
    assert all(row["byte_identical"] for row in report["telemetry"])
    assert render_report(report)  # renders without blowing up


def test_telemetry_overhead_gate():
    """Sampling must leave the results byte-identical and report a
    finite overhead measurement."""
    row = telemetry_overhead(
        "case1", "1Q", kernel="bucket", time_scale=0.02, seed=1,
        interval=50_000.0, repeats=1,
    )
    assert row["byte_identical"] is True
    assert row["samples"] > 0
    assert row["events"] > 0
    assert row["wall_on_s"] > 0 and row["wall_off_s"] > 0
    assert isinstance(row["overhead_pct"], float)


def test_cli_perf_quick_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    rc = main(["perf", "--quick", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.perf/1"
    assert report["quick"] is True
    assert "bucket" in report["microbench"] and "heap" in report["microbench"]
    assert report["cases"], "expected at least one case row"
    assert capsys.readouterr().out.strip()


def test_cli_perf_rejects_unknown_case_and_scheme(tmp_path):
    assert main(["perf", "--case", "nope", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["perf", "--schemes", "XX", "--out", str(tmp_path / "x.json")]) == 2
    # 'all' is the only kernel alias; 'both' takes the unknown-name path
    assert main(["perf", "--kernel", "both", "--out", str(tmp_path / "x.json")]) == 2


# ----------------------------------------------------------------------
# the perf ratchet (repro perf --check)
# ----------------------------------------------------------------------
def _report(**over):
    base = {
        "schema": "repro.perf/1",
        "microbench": {"bucket": {"events": 300_000}},
        "speedup": 3.0,
        "routing": {"ok": True, "overhead_pct": 1.0, "gate_pct": 5.0},
        "telemetry": [
            {"case": "case1", "scheme": "CCFIT", "kernel": "bucket", "byte_identical": True}
        ],
    }
    base.update(over)
    return base


def test_check_report_passes_on_itself():
    report = _report()
    ok, lines = check_report(report, report)
    assert ok, lines


def test_check_report_hard_floor():
    ok, lines = check_report(_report(speedup=PERF_GATES["speedup"] - 0.3), None)
    assert not ok
    assert any("speedup" in line for line in lines if line.startswith("FAIL"))


def test_check_report_baseline_regression():
    fresh = _report(speedup=PERF_GATES["speedup"] + 0.2)
    ok, lines = check_report(fresh, _report())
    assert not ok, lines  # 2.0x vs 3.0x: above the floor, past the band


def test_check_report_tolerance_band_absorbs_noise():
    fresh = _report(speedup=2.7)
    ok, lines = check_report(fresh, _report())
    assert ok, lines


def test_check_report_population_mismatch_skips_ratchet():
    # 1.3x clears the quick floor but is past even the quick band vs 3.0x
    fresh = _report(
        microbench={"bucket": {"events": 60_000}}, speedup=1.3, quick=True
    )
    ok, lines = check_report(fresh, _report())
    assert ok, lines
    assert any("population differs" in line for line in lines)


def test_check_report_routing_and_telemetry_gates():
    bad_routing = _report(routing={"ok": False, "overhead_pct": 9.0, "gate_pct": 5.0})
    ok, _ = check_report(bad_routing, None)
    assert not ok
    bad_tele = _report(
        telemetry=[{"case": "case1", "scheme": "CCFIT", "kernel": "heap",
                    "byte_identical": False}]
    )
    ok, _ = check_report(bad_tele, None)
    assert not ok
