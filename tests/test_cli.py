"""Tests for the command-line toolbox."""

import pytest

from repro.cli import _make_rac, build_parser, main
from repro.rac.dft import DFTRac
from repro.rac.fir import FIRRac
from repro.rac.matmul import MatMulRac
from repro.sim.errors import ReproError

FIGURE4 = """\
mvtc BANK1,0,DMA64,FIFO0
execs
mvfc BANK2,0,DMA64,FIFO0
eop
"""


@pytest.fixture
def microcode_file(tmp_path):
    path = tmp_path / "prog.ouasm"
    path.write_text(FIGURE4)
    return str(path)


def test_assemble_outputs_hex(microcode_file, capsys):
    assert main(["assemble", microcode_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all(len(line) == 8 for line in out)


def test_assemble_disasm_roundtrip(microcode_file, tmp_path, capsys):
    main(["assemble", microcode_file])
    hexwords = capsys.readouterr().out
    hexfile = tmp_path / "prog.hex"
    hexfile.write_text(hexwords)
    assert main(["disasm", str(hexfile)]) == 0
    text = capsys.readouterr().out
    assert "mvtc BANK1,0,DMA64,FIFO0" in text
    assert "eop" in text


def test_verify_clean_program(microcode_file, capsys):
    # the fixture moves 64 words each way = one 32-point DFT (2 words
    # per complex sample)
    code = main(["verify", microcode_file, "--rac", "dft:32",
                 "--banks", "1", "2"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_verify_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ouasm"
    bad.write_text("mvtc BANK1,0,DMA64,FIFO5\n")  # no eop, bad fifo
    code = main(["verify", str(bad), "--rac", "idct"])
    assert code == 1
    out = capsys.readouterr().out
    assert "error" in out


def test_verify_accepts_hex_input(tmp_path, capsys):
    hexfile = tmp_path / "prog.hex"
    # eop only
    hexfile.write_text("00000000\n")
    assert main(["verify", str(hexfile)]) == 0


def test_estimate_report(capsys):
    assert main(["estimate", "--rac", "idct"]) == 0
    out = capsys.readouterr().out
    assert "interface" in out
    assert "OCP overhead" in out


def test_transfer_command(capsys):
    assert main(["transfer", "--words", "256"]) == 0
    assert "cycles/word" in capsys.readouterr().out


def test_table1_small(capsys):
    assert main(["table1", "--dft-points", "16", "--env",
                 "baremetal"]) == 0
    out = capsys.readouterr().out
    assert "IDCT" in out and "DFT" in out


def test_unknown_rac_is_exit_2(microcode_file, capsys):
    assert main(["verify", microcode_file, "--rac", "quantum"]) == 2
    assert "unknown RAC" in capsys.readouterr().err
    assert main(["lint", "--rac", "quantum"]) == 2


def test_missing_file_is_exit_2(capsys):
    assert main(["assemble", "/nonexistent/prog.ouasm"]) == 2


def test_compress_command(tmp_path, capsys):
    source = tmp_path / "unrolled.ouasm"
    lines = [f"mvtc BANK1,{64 * k},DMA64,FIFO0" for k in range(8)]
    lines += ["execs"]
    lines += [f"mvfc BANK2,{64 * k},DMA64,FIFO0" for k in range(8)]
    lines += ["eop"]
    source.write_text("\n".join(lines))
    assert main(["compress", str(source)]) == 0
    captured = capsys.readouterr()
    assert "loop 8" in captured.out
    assert "18 -> 12 instructions" in captured.err


def test_compress_expand_inverse(tmp_path, capsys):
    source = tmp_path / "looped.ouasm"
    source.write_text(
        "clrofr\nloop 4\nmvtcx BANK1,0,DMA16,FIFO0\naddofr 16\nendl\n"
        "execs\nmvfc BANK2,0,DMA64,FIFO0\neop\n"
    )
    assert main(["compress", str(source), "--expand"]) == 0
    out = capsys.readouterr().out
    assert "mvtc BANK1,48,DMA16,FIFO0" in out
    assert "loop" not in out


def test_pack_info_roundtrip(microcode_file, tmp_path, capsys):
    image = tmp_path / "prog.oufw"
    assert main(["pack", microcode_file, str(image)]) == 0
    assert image.exists()
    assert main(["info", str(image)]) == 0
    out = capsys.readouterr().out
    assert "4 instructions" in out
    assert "banks referenced: [0, 1, 2]" in out
    assert "mvtc BANK1,0,DMA64,FIFO0" in out


def test_timing_command(capsys):
    assert main(["timing", "--rac", "idct", "--clock", "50"]) == 0
    assert "MET" in capsys.readouterr().out
    assert main(["timing", "--rac", "idct", "--clock", "400"]) == 1


def test_make_rac_specs():
    assert isinstance(_make_rac("dft:64"), DFTRac)
    assert _make_rac("dft:64").n_points == 64
    fir = _make_rac("fir:64,8")
    assert isinstance(fir, FIRRac)
    assert (fir.block_size, fir.n_taps) == (64, 8)
    assert isinstance(_make_rac("matmul:4"), MatMulRac)
    with pytest.raises(ReproError):
        _make_rac("tpu")


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


# ---------------------------------------------------------------------------
# verify subcommand & the exit-code contract (0 clean / 1 errors / 2 usage)
# ---------------------------------------------------------------------------

def test_verify_json_output(microcode_file, capsys):
    import json

    code = main(["verify", microcode_file, "--rac", "dft:32",
                 "--banks", "1", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["findings"] == []


def test_verify_json_carries_diagnostic_codes(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.ouasm"
    bad.write_text("mvtc BANK1,0,DMA64,FIFO5\n")  # no eop, bad fifo
    code = main(["verify", str(bad), "--rac", "idct", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {f["code"] for f in payload["findings"]}
    assert "OU002" in codes
    assert "OU030" in codes
    for finding in payload["findings"]:
        # the documented schema: every finding carries the catalog
        # title and its severity
        assert finding["title"]
        assert finding["severity"] in ("error", "warning")
        assert "where" in finding


# ---------------------------------------------------------------------------
# the system-level `repro lint` command (OU1xx + --firmware composition)
# ---------------------------------------------------------------------------

def test_lint_clean_system(capsys):
    code = main(["lint", "--rac", "scale:16",
                 "--bank", "0=0x40001000", "--bank", "1=0x40002000",
                 "--bank", "2=0x40003000"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_lint_flags_unmapped_bank(capsys):
    code = main(["lint", "--rac", "scale:16",
                 "--bank", "1=0x90000000"])
    assert code == 1
    assert "OU120" in capsys.readouterr().out


def test_lint_flags_timing_violation(capsys):
    code = main(["lint", "--rac", "idct", "--clock", "400"])
    assert code == 1
    assert "OU140" in capsys.readouterr().out


def test_lint_composes_firmware_pass(microcode_file, capsys):
    # the Figure 4 fixture moves 64 words through banks 1 and 2: with
    # both banks mapped in RAM the composed report is clean...
    code = main(["lint", "--rac", "dft:32", "--firmware",
                 microcode_file, "--bank", "0=0x40001000",
                 "--bank", "1=0x40002000", "--bank", "2=0x40003000"])
    assert code == 0
    capsys.readouterr()
    # ...but a bank pointing at the very end of RAM leaves no room for
    # the 64-word burst: the *actual* map bounds the window (OU022)
    end_of_ram = 0x4000_0000 + (16 << 20) - 8
    code = main(["lint", "--rac", "dft:32", "--firmware",
                 microcode_file, "--bank", "0=0x40001000",
                 f"--bank", f"1={end_of_ram:#x}",
                 "--bank", "2=0x40003000"])
    assert code == 1
    assert "OU022" in capsys.readouterr().out


def test_lint_json_includes_where(capsys):
    import json

    code = main(["lint", "--rac", "scale:16", "--clock", "400",
                 "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    finding = payload["findings"][0]
    assert finding["code"] == "OU140"
    assert finding["where"] == "ocp"
    assert finding["title"] == "timing-violation"


def test_lint_suppress_and_exit_codes(capsys):
    code = main(["lint", "--rac", "idct", "--clock", "400",
                 "--suppress", "OU140"])
    assert code == 0
    assert "suppressed" in capsys.readouterr().out


def test_lint_bad_bank_spec_is_exit_2(capsys):
    assert main(["lint", "--bank", "one=2"]) == 2
    assert main(["lint", "--bank", "1=zz"]) == 2


def test_verify_enforces_mapped_bank_size(microcode_file, capsys):
    # the fixture bursts 64 words through bank 1; map only 32
    code = main(["verify", microcode_file, "--bank-size", "1=32"])
    assert code == 1
    assert "OU022" in capsys.readouterr().out
    assert main(["verify", microcode_file, "--bank-size", "1=64"]) == 0


def test_verify_step_budget(tmp_path, capsys):
    src = tmp_path / "slow.ouasm"
    src.write_text("loop 4000\nnop\nendl\neop\n")
    assert main(["verify", str(src)]) == 0
    code = main(["verify", str(src), "--step-budget", "1000"])
    assert code == 1
    assert "OU011" in capsys.readouterr().out


def test_verify_detects_infinite_loop(tmp_path, capsys):
    src = tmp_path / "spin.ouasm"
    src.write_text("nop\njmp 0\neop\n")
    code = main(["verify", str(src)])
    assert code == 1
    assert "OU009" in capsys.readouterr().out


def test_suppress_turns_errors_into_exit_zero(tmp_path, capsys):
    src = tmp_path / "nobank.ouasm"
    src.write_text("mvtc BANK5,0,DMA16,FIFO0\neop\n")
    assert main(["verify", str(src), "--banks", "1", "2"]) == 1
    capsys.readouterr()
    code = main(["verify", str(src), "--banks", "1", "2",
                 "--suppress", "OU020"])
    assert code == 0
    assert "suppressed" in capsys.readouterr().out


def test_bad_bank_size_spec_is_exit_2(microcode_file, capsys):
    assert main(["verify", microcode_file, "--bank-size", "one=32"]) == 2
    assert main(["verify", microcode_file, "--bank-size", "32"]) == 2


def test_perfbound_renders_bound(microcode_file, capsys):
    code = main(["perfbound", microcode_file, "--rac", "dft:32"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cost bound [bounded]" in out
    assert "transfer" in out and "tightness" in out


def test_perfbound_json_shape(microcode_file, capsys):
    import json

    code = main(["perfbound", microcode_file, "--rac", "dft:32",
                 "--mem-latency", "1:3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounded"] is True
    assert payload["total"]["lo"] <= payload["total"]["hi"]
    assert set(payload["attribution"]) == {"transfer", "compute",
                                           "control"}
    assert payload["tightness"] >= 1.0
    assert payload["findings"] == []


def test_perfbound_sla_violation_exits_1(microcode_file, capsys):
    code = main(["perfbound", microcode_file, "--rac", "dft:32",
                 "--sla-cycles", "2"])
    assert code == 1
    assert "OU304" in capsys.readouterr().out


def test_perfbound_refuses_without_contract(microcode_file, capsys):
    code = main(["perfbound", microcode_file])
    assert code == 1
    assert "OU300" in capsys.readouterr().out


def test_perfbound_bad_latency_spec_is_exit_2(microcode_file, capsys):
    assert main(["perfbound", microcode_file, "--rac", "dft:32",
                 "--mem-latency", "fast"]) == 2
    assert main(["perfbound", microcode_file, "--rac", "dft:32",
                 "--mem-latency", "5:1"]) == 2


def test_diag_prints_catalog_entry(capsys):
    code = main(["diag", "OU304"])
    assert code == 0
    out = capsys.readouterr().out
    assert "OU304" in out and "sla-exceeded" in out
    assert "docs/ANALYSIS.md" in out


def test_diag_lists_whole_catalog(capsys):
    code = main(["diag"])
    assert code == 0
    out = capsys.readouterr().out
    for code_name in ("OU001", "OU110", "OU200", "OU300"):
        assert code_name in out


def test_diag_unknown_code_is_exit_2(capsys):
    assert main(["diag", "OU999"]) == 2


def test_bench_rejects_no_mpsoc_with_only_mpsoc(tmp_path, monkeypatch,
                                                capsys):
    """Skipping both halves would write an empty artifact over the
    default path; the flags are exclusive, a usage error (exit 2)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--no-mpsoc", "--only-mpsoc"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _check_bench_schema():
    import importlib.util
    from pathlib import Path

    path = (Path(__file__).resolve().parent.parent / "scripts"
            / "check_bench_schema.py")
    spec = importlib.util.spec_from_file_location("check_bench_schema",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_schema_rejects_an_artifact_that_measured_nothing(
        tmp_path, capsys):
    import json
    from pathlib import Path

    check = _check_bench_schema()
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"bench": "simulator", "workloads": []}))
    assert check.main(["check", str(empty)]) == 1
    assert "no workloads and no mpsoc" in capsys.readouterr().err

    # an mpsoc-only artifact (what `bench --only-mpsoc` writes) passes
    committed = json.loads(
        (Path(__file__).resolve().parent.parent
         / "BENCH_simulator.json").read_text())
    mpsoc_only = tmp_path / "mpsoc.json"
    mpsoc_only.write_text(json.dumps({
        "bench": "simulator", "workloads": [],
        "mpsoc": committed["mpsoc"],
    }))
    assert check.main(["check", str(mpsoc_only)]) == 0
