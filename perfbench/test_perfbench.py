"""The benchmark's own checks: determinism, a held-out seed, the contract.

    python -m pytest perfbench

Each workload runs one traced pass at the default seed and at a seed
the benchmark was not tuned on, twice from scratch: every simulated
figure must repeat exactly and every output check must pass.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import SpanRecorder

DEFAULT_SEED = 1
HELD_OUT_SEED = 4099

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(name: str, seed: int):
    workload = workloads.make_workload(name, seed)
    workload.cold_job()
    return workload.run_pass(SpanRecorder(), traced=True)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize(
    "name", [workload["name"] for workload in SPEC["workloads"]])
def test_sim_figures_repeat_and_checks_pass(name, seed):
    first = traced_pass(name, seed)
    again = traced_pass(name, seed)
    assert first.failures == [] and again.failures == []
    assert first.attempted == len(first.sim_cycles) > 0
    assert first.sim_cycles == again.sim_cycles
    assert first.layer == again.layer
    assert first.layer["sim.ticked"] + first.layer["sim.skipped"] == \
        first.layer["sim.cycles"]


def test_seeds_draw_different_inputs():
    default = workloads.make_workload("ocp_transfer", DEFAULT_SEED)
    held_out = workloads.make_workload("ocp_transfer", HELD_OUT_SEED)
    assert [job.words for job in default.jobs] != \
        [job.words for job in held_out.jobs]


def test_wrong_output_is_counted_with_its_job():
    workload = workloads.make_workload("ocp_transfer", DEFAULT_SEED)
    bad = workload.jobs[3]
    workload.jobs[3] = workloads.TransferJob(
        bad.job_id, bad.kind, bad.operations, bad.words,
        [bad.golden[0] ^ 1] + bad.golden[1:])
    result = workload.run_pass(SpanRecorder(), traced=False)
    assert [job_id for job_id, _ in result.failures] == [bad.job_id]
    assert "wrong output" in result.failures[0][1]


def test_refused_jobs_are_counted(monkeypatch):
    monkeypatch.setattr(workloads, "SLA_CYCLES", 10)
    workload = workloads.make_workload("mpsoc_guarded", DEFAULT_SEED)
    workload.episodes[0].jobs[:] = workload.episodes[0].jobs[:4]
    result = workload.run_pass(SpanRecorder(), traced=False)
    assert result.attempted == 4
    assert all("refused" in reason for _, reason in result.failures)
    assert len(result.failures) == 4


def test_span_self_times_tile_the_root():
    recorder = SpanRecorder()
    with recorder.span("job", "j1"):
        with recorder.span("core.plan"):
            pass
        with recorder.span("sim.run"):
            with recorder.span("inner"):
                pass
    assert [span[4] for span in recorder.spans] == ["j1"] * 4
    assert sum(recorder.self_seconds().values()) == pytest.approx(
        recorder.root_seconds())
    assert recorder.count("sim.run") == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_of_the_contract(trace, capsys):
    assert run.main(["--workload", "ocp_transfer", "--seed", "2",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        metric["name"]: {"value": result["metrics"][metric["name"]]["value"],
                         "unit": metric["unit"]}
        for metric in section
    }
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocp_transfer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
