"""Analyzer CLI output is exactly the library report.

Every analyzer command prints its report through one helper: the text
report, or the JSON report with ``--json``, followed by one newline.
These tests pin that ``main([...])`` stdout equals the library's
``render()`` / ``render_json()`` for the same input, on the CI smoke
inputs and the example job streams.  The CI ``analyzer-cli`` matrix
job runs this file filtered per analyzer (``-k verify``, ``-k lint``,
``-k racecheck``, ``-k perfbound``, ``-k diag``), so every test name
carries its analyzer token.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.assembler import assemble_microcode
from repro.core.encoding import decode
from repro.perfbound import CostModel, RacTiming, bound_program
from repro.racelint import check_stream
from repro.rac.scale import PassthroughRac, ScaleRac
from repro.sched.job import Job
from repro.soclint import lint_soc
from repro.system import SoC
from repro.verify.diagnostics import CATALOG
from repro.verify.engine import verify_program

STREAMS = Path(__file__).resolve().parent.parent / "examples" / "streams"

#: the CI smoke program (``printf 'execs\neop\n'``), fed on stdin
SMOKE_PROGRAM = "execs\neop\n"

LINT_BANKS = {0: 0x40001000, 1: 0x40002000, 2: 0x40003000}
LINT_ARGS = ["--rac", "scale:16", "--clock", "50",
             "--bank", "0=0x40001000", "--bank", "1=0x40002000",
             "--bank", "2=0x40003000"]

MODES = ("text", "json")


def _run(capsys, argv, mode, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv + (["--json"] if mode == "json" else []))
    return code, capsys.readouterr().out


def _expected(report, mode):
    return (report.render_json() if mode == "json"
            else report.render()) + "\n"


def _smoke_instructions():
    return [decode(word) for word in assemble_microcode(SMOKE_PROGRAM)]


@pytest.mark.parametrize("mode", MODES)
def test_verify_output_is_the_library_report(capsys, monkeypatch, mode):
    code, out = _run(capsys, ["verify", "-", "--rac", "passthrough:16"],
                     mode, stdin=SMOKE_PROGRAM, monkeypatch=monkeypatch)
    report = verify_program(_smoke_instructions(),
                            rac=PassthroughRac(block_size=16))
    assert out == _expected(report, mode)
    assert code == (0 if report.clean else 1) == 0


@pytest.mark.parametrize("mode", MODES)
def test_lint_output_is_the_library_report(capsys, mode):
    code, out = _run(capsys, ["lint", *LINT_ARGS], mode)
    soc = SoC(racs=[ScaleRac(block_size=16)], clock_mhz=50.0)
    report = lint_soc(soc, banks=LINT_BANKS, technology="artix7")
    assert out == _expected(report, mode)
    assert code == (0 if report.clean else 1) == 0


def _stream_jobs(doc):
    return [
        Job(entry["id"], entry["kind"], [0] * entry["size"],
            chain=entry.get("chain"))
        for entry in doc["jobs"]
    ]


#: stream file -> (OCP RACs, check_stream keyword arguments, exit code)
STREAM_CASES = {
    "clean_mixed": (
        lambda: [PassthroughRac(block_size=8), ScaleRac(block_size=4),
                 PassthroughRac(block_size=8)],
        {"batch_jobs": 2},
        0,
    ),
    "racy_shared_arena": (
        lambda: [PassthroughRac(block_size=8),
                 PassthroughRac(block_size=8)],
        {"arena_stride": 0},
        1,
    ),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stream", sorted(STREAM_CASES))
def test_racecheck_output_is_the_library_report(capsys, stream, mode):
    path = STREAMS / f"{stream}.json"
    code, out = _run(capsys, ["racecheck", str(path)], mode)
    racs, kwargs, exit_code = STREAM_CASES[stream]
    report = check_stream(_stream_jobs(json.loads(path.read_text())),
                          racs=racs(), **kwargs)
    assert out == _expected(report, mode)
    assert code == (0 if report.clean else 1) == exit_code


@pytest.mark.parametrize("mode", MODES)
def test_perfbound_output_is_the_library_report(capsys, monkeypatch,
                                                mode):
    code, out = _run(capsys,
                     ["perfbound", "-", "--rac", "passthrough:16"],
                     mode, stdin=SMOKE_PROGRAM, monkeypatch=monkeypatch)
    rac = PassthroughRac(block_size=16)
    bound = bound_program(_smoke_instructions(), rac,
                          model=CostModel(rac=RacTiming.of(rac)))
    assert out == _expected(bound, mode)
    assert code == (0 if bound.clean else 1) == 0


def test_diag_output_is_the_catalog_entry(capsys):
    assert main(["diag", "OU300"]) == 0
    entry = CATALOG["OU300"]
    assert capsys.readouterr().out == (
        f"{entry.code} [{entry.severity}] {entry.title}\n"
        f"  {entry.description}\n"
        "  docs: docs/ANALYSIS.md#cost-bound-analysis-repro-perfbound-ou3xx\n"
    )
