"""End-to-end observability: counters, attribution, exporters, CLI.

The acceptance property of the observability layer: on the example
workloads, the OCP performance-counter registers read back over the
bus equal the values re-derived purely from the event trace --
bit-exactly, with and without idle skipping -- and the attribution's
transfer/compute/control buckets tile the simulator's cycle count
exactly.
"""

import json

import pytest

from repro.cli import main
from repro.core.program import OuProgram
from repro.core.perf import (
    N_PERF_REGISTERS,
    PERF_BASE,
    PERF_NAMES,
    PERF_WINDOW_BYTES,
)
from repro.obs import (
    attribute_run,
    derive_counters,
    reconstruct_spans,
    to_perfetto,
    to_vcd,
)
from repro.obs.workloads import PROFILE_WORKLOADS
from repro.rac.scale import PassthroughRac
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC

WORKLOAD_MATRIX = [
    (name, idle_skip)
    for name in PROFILE_WORKLOADS
    for idle_skip in (True, False)
]


def _ids(param):
    return {True: "skip", False: "naive"}.get(param, str(param))


@pytest.fixture(scope="module")
def finished_runs():
    """Each workload run once per kernel mode (shared: runs are slow)."""
    return {
        (name, idle_skip): PROFILE_WORKLOADS[name](idle_skip=idle_skip)
        for name, idle_skip in WORKLOAD_MATRIX
    }


@pytest.mark.parametrize("name,idle_skip", WORKLOAD_MATRIX, ids=_ids)
def test_counters_match_trace_derivation_bit_exactly(
    finished_runs, name, idle_skip
):
    run = finished_runs[(name, idle_skip)]
    ocp = run.soc.ocps[run.ocp_index]
    derived = derive_counters(run.soc.sim.trace, ocp,
                              end_cycle=run.total_cycles)
    hardware = ocp.controller.perf.snapshot()
    assert hardware == derived


@pytest.mark.parametrize("name,idle_skip", WORKLOAD_MATRIX, ids=_ids)
def test_counter_registers_read_back_over_the_bus(
    finished_runs, name, idle_skip
):
    run = finished_runs[(name, idle_skip)]
    ocp = run.soc.ocps[run.ocp_index]
    expected = ocp.controller.perf.snapshot()
    driver = OuessantDriver(run.soc, ocp_index=run.ocp_index)
    for index in range(N_PERF_REGISTERS):
        value, _ = driver.read_register(PERF_BASE + 4 * index)
        assert value == expected[PERF_NAMES[index]]
    # reads beyond the counter block fall off the window
    assert ocp.interface.read_word(PERF_WINDOW_BYTES) == 0


@pytest.mark.parametrize("name,idle_skip", WORKLOAD_MATRIX, ids=_ids)
def test_attribution_tiles_the_total_cycle_count(
    finished_runs, name, idle_skip
):
    run = finished_runs[(name, idle_skip)]
    spans = reconstruct_spans(run.soc.sim.trace,
                              end_cycle=run.total_cycles)
    report = attribute_run(run.soc, workload=name,
                           ocp_index=run.ocp_index,
                           total_cycles=run.total_cycles, spans=spans)
    assert report.consistent
    assert (report.transfer_cycles + report.compute_cycles
            + report.control_cycles) == run.total_cycles
    assert report.words_moved > 0
    assert report.overlap_cycles <= report.transfer_cycles


def test_attribution_identical_across_kernel_modes(finished_runs):
    for name in PROFILE_WORKLOADS:
        reports = {}
        for idle_skip in (True, False):
            run = finished_runs[(name, idle_skip)]
            reports[idle_skip] = attribute_run(
                run.soc, workload=name, ocp_index=run.ocp_index,
                total_cycles=run.total_cycles,
            ).as_dict()
        assert reports[True] == reports[False]


def test_attribution_is_windowed_to_the_last_run():
    """Back-to-back identical runs on one SoC report identical
    attributions: words, instructions and the per-state breakdown are
    the last run's, like the transfer/compute/stall counters."""
    soc = SoC(racs=[PassthroughRac(block_size=16)])
    driver = OuessantDriver(soc)
    program = OuProgram().stream_to(1, 16).execs().stream_from(2, 16).eop()
    banks = {0: RAM_BASE + 0x1000, 1: RAM_BASE + 0x2000,
             2: RAM_BASE + 0x3000}
    soc.write_ram(banks[1], list(range(16)))
    reports = []
    for _ in range(2):
        result = driver.run(program.words(), banks)
        reports.append(attribute_run(
            soc, total_cycles=result.total_cycles).as_dict())
    assert reports[0] == reports[1]
    second = reports[1]
    assert second["words_moved"] == 32
    assert second["instructions"] == len(program)
    assert (second["breakdown"]["xfer_to"]
            + second["breakdown"]["xfer_from"]
            == second["transfer_cycles"])


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def test_perfetto_spans_nest_structurally(finished_runs):
    run = finished_runs[("jpeg-idct", True)]
    spans = reconstruct_spans(run.soc.sim.trace,
                              end_cycle=run.total_cycles)
    doc = to_perfetto(spans, trace=run.soc.sim.trace)
    json.dumps(doc)  # serialisable as-is
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices
    # per thread lane, sort by (ts, -dur): each slice must nest inside
    # the enclosing open slice -- Perfetto's own stacking rule
    by_tid = {}
    for event in slices:
        by_tid.setdefault(event["tid"], []).append(event)
    for lane in by_tid.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for event in lane:
            begin, end = event["ts"], event["ts"] + event["dur"]
            while stack and begin >= stack[-1]:
                stack.pop()
            if stack:
                assert end <= stack[-1], "slice crosses its parent"
            stack.append(end)
    # metadata names every lane
    named = {e["tid"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert named == set(by_tid)
    # the driver op and the controller states appear
    names = {e["name"] for e in slices}
    assert "run" in names
    assert "xfer_to" in names


def test_perfetto_counter_track_carries_fifo_occupancy(finished_runs):
    run = finished_runs[("dft", True)]
    spans = reconstruct_spans(run.soc.sim.trace,
                              end_cycle=run.total_cycles)
    doc = to_perfetto(spans, trace=run.soc.sim.trace)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters
    assert max(e["args"]["occupancy_atoms"] for e in counters) == 64


def test_vcd_export_has_state_and_fifo_lanes(finished_runs):
    run = finished_runs[("dft", True)]
    spans = reconstruct_spans(run.soc.sim.trace,
                              end_cycle=run.total_cycles)
    text = to_vcd(spans, trace=run.soc.sim.trace)
    assert text.startswith("$timescale")
    assert "_state" in text.replace(".", "_")
    assert "_atoms" in text.replace(".", "_")
    assert "$enddefinitions" in text


# ---------------------------------------------------------------------------
# CLI (exit-code contract mirrors verify/lint)
# ---------------------------------------------------------------------------

def test_cli_profile_human_output(capsys):
    assert main(["profile", "dft"]) == 0
    out = capsys.readouterr().out
    assert "dft:" in out and "transfer" in out and "counters   ok" in out


def test_cli_profile_json_is_schema_clean(capsys):
    assert main(["profile", "jpeg-idct", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from repro.obs.attribution import REPORT_FIELDS

    assert set(payload) == set(REPORT_FIELDS)
    assert (payload["transfer_cycles"] + payload["compute_cycles"]
            + payload["control_cycles"]) == payload["total_cycles"]


def test_cli_profile_writes_export_files(tmp_path, capsys):
    perfetto = tmp_path / "trace.json"
    vcd = tmp_path / "trace.vcd"
    assert main(["profile", "dft", "--perfetto", str(perfetto),
                 "--vcd", str(vcd)]) == 0
    doc = json.loads(perfetto.read_text())
    assert doc["traceEvents"]
    assert vcd.read_text().startswith("$timescale")


def test_cli_profile_unknown_workload_is_usage_error(capsys):
    assert main(["profile", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench integration (satellite: artifact by default, with attribution)
# ---------------------------------------------------------------------------

def test_bench_records_attribution_and_default_artifact(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "loopback"]) == 0
    artifact = tmp_path / "BENCH_simulator.json"
    assert artifact.exists(), "bench must write its artifact by default"
    payload = json.loads(artifact.read_text())
    (row,) = payload["workloads"]
    attribution = row["attribution"]
    assert (attribution["transfer_cycles"] + attribution["compute_cycles"]
            + attribution["control_cycles"]) == attribution["total_cycles"]
    assert attribution["total_cycles"] == row["cycles"]
