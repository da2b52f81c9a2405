"""Waveform probe (VCD) and run report (attribution) coverage."""

from repro.core.program import OuProgram
from repro.obs import attribute_run
from repro.rac.scale import PassthroughRac
from repro.sim.kernel import Component, Simulator
from repro.sim.tracing import VCDWriter
from repro.sim.waveform import WaveformProbe, ocp_probe
from repro.sw.driver import OuessantDriver
from repro.system import RAM_BASE, SoC

PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x2000
OUT = RAM_BASE + 0x3000
BLOCK = 16


class _Counter(Component):
    def __init__(self) -> None:
        super().__init__("ctr")
        self.value = 0

    def tick(self) -> None:
        self.value += 1


def test_vcd_golden():
    """A two-signal probe over four cycles renders a pinned VCD."""
    sim = Simulator()
    counter = sim.add(_Counter())
    vcd = VCDWriter(timescale="20ns")
    sim.add(WaveformProbe("probe", vcd, {
        "count": lambda: counter.value,
        "lsb": lambda: counter.value & 1,
    }, width_hint=8))
    sim.step(4)
    assert vcd.render() == (
        "$timescale 20ns $end\n"
        "$scope module repro $end\n"
        "$var wire 8 ! count $end\n"
        "$var wire 8 \" lsb $end\n"
        "$upscope $end\n"
        "$enddefinitions $end\n"
        "#0\n"
        "b1 !\n"
        "b1 \"\n"
        "#1\n"
        "b10 !\n"
        "b0 \"\n"
        "#2\n"
        "b11 !\n"
        "b1 \"\n"
        "#3\n"
        "b100 !\n"
        "b0 \"\n"
    )


def test_vcd_deduplicates_unchanged_values():
    vcd = VCDWriter()
    vcd.register("sig", width=4)
    vcd.change(0, "sig", 5)
    vcd.change(1, "sig", 5)  # no change, no line
    vcd.change(2, "sig", 6)
    text = vcd.render()
    assert text.count("b101 ") == 1
    assert text.count("b110 ") == 1
    assert "#1\n" not in text


def _run_loopback(soc):
    driver = OuessantDriver(soc)
    soc.write_ram(IN, list(range(BLOCK)))
    program = (
        OuProgram().stream_to(1, BLOCK).execs().stream_from(2, BLOCK).eop()
    )
    return driver.run(program.words(), {0: PROG, 1: IN, 2: OUT})


def test_ocp_probe_captures_a_run():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    vcd = VCDWriter(timescale="20ns")
    probe = soc.sim.add(ocp_probe("probe", vcd, soc.ocp))
    _run_loopback(soc)
    assert probe.samples == soc.sim.cycle
    text = vcd.render()
    # every standard signal declared...
    for signal in ("ctrl_state", "irq", "done",
                   "fifo_in_level", "fifo_out_level", "rac_end_op"):
        assert f"$var wire 8 " in text and signal in text
    # ...and the FSM actually moved through transfer states
    assert text.count("#") > 4


def test_profile_breakdown_sums_to_total():
    """config + compute + ack is the whole measured window."""
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    result = _run_loopback(soc)
    assert (result.config_cycles + result.compute_cycles
            + result.ack_cycles) == result.total_cycles
    assert result.hardware_cycles == result.total_cycles  # no OS model here

    report = attribute_run(soc, total_cycles=result.total_cycles)
    assert report.total_cycles == result.total_cycles
    assert report.consistent
    stats = soc.ocp.controller.stats
    assert stats["words_to_rac"] == BLOCK
    assert stats["words_from_rac"] == BLOCK
    assert report.words_moved == 2 * BLOCK
    # the controller accounts its cycles by state; those states all fit
    # inside the measured window (fifo_stall overlaps the xfer states)
    assert report.transfer_cycles > 0
    states = sum(cycles for state, cycles in report.breakdown.items()
                 if state != "fifo_stall")
    assert 0 < states <= result.total_cycles
    assert report.cycles_per_word > 0
    assert 0.0 < soc.bus.utilization() <= 1.0
    assert report.fifo_in_high_water > 0

    rendered = report.render()
    assert f"{2 * BLOCK} words in" in rendered
    assert "cycles/word" in rendered


def test_profile_handles_empty_run():
    soc = SoC(racs=[PassthroughRac(block_size=BLOCK)])
    report = attribute_run(soc, total_cycles=0)
    assert report.words_moved == 0
    assert report.cycles_per_word == 0.0
    assert report.consistent
    report.render()  # must not raise on all-zero stats
