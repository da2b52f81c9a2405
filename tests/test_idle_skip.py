"""Dispatch kernel: unit tests and naive-vs-dispatch equivalence.

The dispatch path is only allowed to exist because it is invisible:
with ``idle_skip=True`` every observable -- memory contents, trace
events (including their cycle stamps), final cycle counts,
per-component statistics -- must be bit-identical to the naive
two-phase stepper.  The first half of this file unit-tests the kernel
mechanics (wake computation, chunked predicate re-checks, strict mode,
profiling); the second half property-tests whole-SoC equivalence on
the seeded random workloads of the differential harness, clean and
under injected faults, traced and hot.
"""

import random

import pytest

from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    fault_signature,
    inject_faults,
)
from repro.faults.harness import faulty_fifo_factory
from repro.sim import (
    Component,
    DeadlockError,
    SimulationError,
    Simulator,
    Trace,
)
from repro.system import SoC

from tests.test_differential_refmodel import (
    IN,
    OUT,
    PROG,
    SEED_BASE,
    Case,
)
from repro.core.registers import (
    CTRL_IE,
    CTRL_S,
    REG_BANK_BASE,
    REG_CTRL,
    REG_PROG_SIZE,
)

N_EQUIVALENCE = 60
N_STRICT = 8
N_HOT_FAULTED = 12
N_HOT_MULTI_OCP = 12


# -- unit-test components ---------------------------------------------------

class Sleeper(Component):
    """Does one unit of work every ``period`` cycles, ``limit`` times.

    Between wakes it is honestly quiescent, so it exercises the whole
    declare/skip/wake cycle of the protocol.
    """

    def __init__(self, name="sleeper", period=100, limit=3):
        super().__init__(name)
        self.period = period
        self.limit = limit
        self.wakes = []
        self._due = 0

    def next_activity(self):
        if len(self.wakes) >= self.limit:
            return None
        return max(self._due, self.now)

    def tick(self):
        if len(self.wakes) >= self.limit or self.now < self._due:
            return
        self.wakes.append(self.now)
        self.trace_event("wake", n=len(self.wakes))
        self._due = self.now + self.period


class Liar(Component):
    """Claims indefinite idleness but emits an event every cycle."""

    def next_activity(self):
        return None

    def tick(self):
        self.trace_event("sneaky")


class Fickle(Component):
    """Declares a far wake-up, then claims to be active mid-window."""

    def __init__(self):
        super().__init__("fickle")
        self._polls = 0

    def next_activity(self):
        self._polls += 1
        return self.now + 50 if self._polls == 1 else self.now


# -- kernel unit tests ------------------------------------------------------

def _sleeper_run(idle_skip, cycles=350):
    sim = Simulator(trace=Trace(), idle_skip=idle_skip)
    sleeper = sim.add(Sleeper())
    sim.step(cycles)
    return sim, sleeper


def test_skip_is_invisible_to_component_behavior():
    naive_sim, naive = _sleeper_run(idle_skip=False)
    fast_sim, fast = _sleeper_run(idle_skip=True)
    assert fast.wakes == naive.wakes == [0, 100, 200]
    assert fast_sim.cycle == naive_sim.cycle == 350
    assert fast_sim.trace.dump() == naive_sim.trace.dump()


def test_profile_accounts_ticked_and_skipped():
    naive_sim, _ = _sleeper_run(idle_skip=False)
    fast_sim, _ = _sleeper_run(idle_skip=True)
    naive_prof = naive_sim.profile()
    fast_prof = fast_sim.profile()
    assert naive_prof.skipped == 0
    assert naive_prof.ticked == naive_prof.cycles == 350
    assert fast_prof.ticked + fast_prof.skipped == fast_prof.cycles == 350
    # only the three wake cycles need real ticks
    assert fast_prof.ticked == 3
    assert fast_prof.skip_windows == 3
    assert fast_prof.skip_ratio == pytest.approx(347 / 350)
    assert "skipped" in fast_prof.render()


def test_step_stops_exactly_at_target_mid_window():
    sim = Simulator()
    sim.add(Sleeper(period=100))
    sim.step(50)  # target falls inside a declared-idle window
    assert sim.cycle == 50


def test_run_until_wakes_exactly_on_predicate_state_change():
    sim = Simulator(idle_skip=True)
    sleeper = sim.add(Sleeper(period=100))
    elapsed = sim.run_until(lambda: len(sleeper.wakes) == 3)
    # third wake happens at cycle 200; the tick completes it at 201
    assert elapsed == 201
    assert sim.profile().skipped > 0


def test_run_until_deadlock_identical_between_modes():
    messages = []
    for idle_skip in (False, True):
        sim = Simulator(idle_skip=idle_skip)
        sim.add(Sleeper(period=100, limit=1))
        with pytest.raises(DeadlockError) as excinfo:
            sim.run_until(lambda: False, max_cycles=777, what="nothing")
        messages.append(str(excinfo.value))
        assert sim.cycle == 777
    assert messages[0] == messages[1]


def test_run_until_rechecks_predicate_in_bounded_chunks():
    sim = Simulator(idle_skip=True)
    sim.add(Sleeper(limit=0))  # idle forever from cycle 0
    calls = []

    def predicate():
        calls.append(sim.cycle)
        return sim.cycle >= 40_000

    sim.run_until(predicate, max_cycles=1_000_000)
    # a clock-reading predicate may overshoot, but never by more than
    # one chunk -- and it is re-evaluated sparsely, not every cycle
    assert sim.cycle < 40_000 + sim.max_skip_chunk
    assert len(calls) <= 40_000 // sim.max_skip_chunk + 2


def test_strict_mode_passes_honest_components():
    sim = Simulator(trace=Trace(), idle_skip=True, strict=True)
    sleeper = sim.add(Sleeper())
    sim.step(350)
    assert sleeper.wakes == [0, 100, 200]


def test_strict_mode_catches_event_during_declared_idle():
    sim = Simulator(trace=Trace(), idle_skip=True, strict=True)
    sim.add(Liar("liar"))
    with pytest.raises(SimulationError, match="declared-idle window"):
        sim.step(10)


def test_strict_mode_catches_early_wake():
    sim = Simulator(idle_skip=True, strict=True)
    sim.add(Fickle())
    with pytest.raises(SimulationError, match="turned active"):
        sim.step(50)


def test_profile_time_attributes_host_time_per_component():
    sim = Simulator(idle_skip=False, profile_time=True)

    class Busy(Component):
        def tick(self):
            pass

    sim.add(Busy("busy"))
    sim.step(10)
    prof = sim.profile()
    assert prof.components["busy"].ticks == 10
    assert prof.components["busy"].time_s >= 0.0
    assert "busy" in prof.render()

    # profile_time times the naive stepper: nothing is skipped, every
    # component ticks every cycle, whatever idle_skip says
    sim = Simulator(profile_time=True)
    sim.add(Sleeper())
    sim.step(350)
    prof = sim.profile()
    assert prof.skipped == 0
    assert prof.components["sleeper"].ticks == 350


def test_waveform_probe_disables_skipping():
    """A probe is due every cycle: the dispatch scan never skips while
    one is registered, and its dump equals the naive stepper's."""
    from repro.sim import VCDWriter, WaveformProbe

    dumps = []
    for idle_skip in (False, True):
        sim = Simulator(idle_skip=idle_skip)
        sleeper = sim.add(Sleeper())
        vcd = VCDWriter()
        sim.add(WaveformProbe("probe", vcd,
                              {"wakes": lambda: len(sleeper.wakes)}))
        sim.step(250)
        prof = sim.profile()
        assert prof.skipped == 0
        assert prof.ticked == 250  # every cycle sampled: gap-free dump
        dumps.append(vcd.render())
    assert dumps[1] == dumps[0]


def test_ocp_probe_vcd_matches_naive():
    """The standard OCP probe set on a whole-SoC run: the dispatch
    path's VCD is byte-identical to the naive stepper's."""
    from repro.sim import VCDWriter

    case = Case(random.Random(SEED_BASE + 320_000))
    dumps = []
    for idle_skip in (False, True):
        vcd = VCDWriter(timescale="20ns")
        soc, _ = _execute(case, trace=Trace(), idle_skip=idle_skip,
                          probe_vcd=vcd)
        assert soc.sim.profile().skipped == 0
        dumps.append(vcd.render())
    assert "ctrl_state" in dumps[0]
    assert dumps[1] == dumps[0]


def test_default_component_is_always_active():
    """Unknown components must never be skipped over."""
    sim = Simulator(idle_skip=True)

    class Legacy(Component):
        ticks = 0

        def tick(self):
            Legacy.ticks += 1

    sim.add(Legacy("legacy"))
    sim.add(Sleeper())
    sim.step(120)
    assert Legacy.ticks == 120
    assert sim.profile().skipped == 0


# -- whole-SoC equivalence (property-style, seeded) -------------------------

def _execute(case, plan=None, trace=None, probe_vcd=None, **soc_kw):
    """Elaborate, program and run one differential-harness workload.

    Returns ``(soc, residual)`` so callers can pick their own
    observables (the hot-mode tests need the live objects, not a
    rendered snapshot).
    """
    from repro.sim.waveform import ocp_probe

    soc = SoC(racs=[case.rac()], trace=trace, **soc_kw)
    if plan is not None:
        inject_faults(soc, plan)
    if probe_vcd is not None:
        soc.sim.add(ocp_probe("probe", probe_vcd, soc.ocp))
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    ocp = soc.ocp
    for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
        ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
    ocp.interface.write_word(REG_PROG_SIZE, len(case.program))
    ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
    soc.run_until(lambda: ocp.done, max_cycles=500_000)
    previous = -1
    while ocp.fifos_out[0].occupancy != previous:
        previous = ocp.fifos_out[0].occupancy
        soc.sim.step(50)
    return soc, previous


def _observe(soc, case, residual, trace=None):
    """Architectural observables of a finished run (+ its trace)."""
    ocp = soc.ocp
    return {
        "memory": soc.read_ram(OUT, case.total),
        "residual": residual,
        "cycle": soc.sim.cycle,
        "trace": trace.dump() if trace is not None else None,
        "faults": fault_signature(trace) if trace is not None else None,
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
    }


def _run_case(case, idle_skip, plan=None, strict=False):
    """Run one differential-harness workload; capture all observables."""
    trace = Trace()
    soc, residual = _execute(case, plan=plan, trace=trace,
                             idle_skip=idle_skip, strict=strict)
    return _observe(soc, case, residual, trace), soc.sim.profile()


def _stall_plan(seed, rng):
    return FaultPlan.random_stalls(
        seed, n_events=rng.randint(1, 4), sites=("ram",), max_index=6,
        max_stall=25,
    )


@pytest.mark.parametrize("index", range(N_EQUIVALENCE))
def test_equivalence_random_workloads(index):
    """Same seeded SoC workload, naive vs dispatch, clean and
    stall-faulted: memory, residuals, traces (hence fault histories),
    cycle counts and statistics all equal."""
    seed = SEED_BASE + 100_000 + index
    rng = random.Random(seed)
    case = Case(rng)

    naive, naive_prof = _run_case(case, idle_skip=False)
    disp, disp_prof = _run_case(case, idle_skip=True)
    assert disp == naive, f"dispatch diverged at seed {seed}"
    assert naive_prof.skipped == 0
    assert disp_prof.ticked + disp_prof.skipped == disp_prof.cycles

    plan = _stall_plan(seed, rng)
    naive_faulted, _ = _run_case(case, idle_skip=False, plan=plan)
    disp_faulted, faulted_prof = _run_case(case, idle_skip=True, plan=plan)
    assert disp_faulted == naive_faulted, (
        f"dispatch diverged under stall faults at seed {seed}"
    )
    assert disp_faulted["faults"] == naive_faulted["faults"]
    # armed injectors no longer veto the dispatch path: the scan still
    # fast-forwards quiescent windows around them
    assert faulted_prof.skipped > 0
    # when a stall actually fired (short programs can finish before the
    # scheduled access index), the cycle count must have moved with it
    if "fault.stall" in naive_faulted["trace"]:
        assert naive_faulted["cycle"] != naive["cycle"]


@pytest.mark.parametrize("duration", [50, 300])
def test_equivalence_finite_exec_hang(duration):
    """An ExecHang window on the dispatch path: the suppressed
    ``end_op`` is re-asserted on the naive cycle, and the controller
    parked in a blocking ``exec`` (no watchdog to wake it) resumes on
    the naive cycle too."""
    from repro.core.program import OuProgram
    from repro.rac.scale import PassthroughRac
    from repro.sw.driver import OuessantDriver

    plan = FaultPlan(events=[
        FaultEvent(FaultKind.HANG_EXEC, "rac", index=0, duration=duration),
    ])
    program = OuProgram().stream_to(1, 16)
    program.exec_()
    program.stream_from(2, 16).eop()
    runs = []
    for idle_skip in (False, True):
        trace = Trace()
        soc = SoC(racs=[PassthroughRac(block_size=16)], trace=trace,
                  idle_skip=idle_skip, with_cpu=False)
        inject_faults(soc, plan)
        soc.write_ram(IN, list(range(16)))
        result = OuessantDriver(soc).run(
            program.words(), {0: PROG, 1: IN, 2: OUT}, check_status=True,
        )
        runs.append((result.total_cycles, soc.read_ram(OUT, 16),
                     fault_signature(trace), trace.dump()))
    assert runs[0][0] > duration  # completion held back by the window
    assert runs[1] == runs[0]


@pytest.mark.parametrize("index", range(N_HOT_FAULTED))
def test_equivalence_hot_mode_under_stall_faults(index):
    """The stall-faulted suite with no trace attached: armed injectors
    run on the hot batch lane, and the end state, every live counter
    and the injector's access count match the traced naive run."""
    seed = SEED_BASE + 100_000 + index
    rng = random.Random(seed)
    case = Case(rng)
    plan = _stall_plan(seed, rng)

    trace = Trace()
    ref_soc, ref_residual = _execute(case, plan=plan, trace=trace,
                                     idle_skip=False)
    hot_soc, hot_residual = _execute(case, plan=plan, trace=None)
    assert hot_soc.sim.hot
    assert hot_soc.sim.profile().skipped > 0
    assert (_observe(hot_soc, case, hot_residual)
            == _observe(ref_soc, case, ref_residual)), (
        f"hot dispatch diverged under stall faults at seed {seed}"
    )
    assert (hot_soc.ocp.controller.perf.snapshot()
            == ref_soc.ocp.controller.perf.snapshot())
    faulty_ram = {soc: soc.sim.component("faults.ram")
                  for soc in (ref_soc, hot_soc)}
    assert faulty_ram[hot_soc]._access == faulty_ram[ref_soc]._access


@pytest.mark.parametrize("index", range(N_STRICT))
def test_equivalence_strict_mode_audits_idle_claims(index):
    """strict=True re-executes every window the dispatch scan would
    skip naively and asserts the quiescence claims held -- on real SoC
    workloads, clean and with armed stall injectors."""
    seed = SEED_BASE + 200_000 + index
    rng = random.Random(seed)
    case = Case(rng)
    naive, _ = _run_case(case, idle_skip=False)
    strict, _ = _run_case(case, idle_skip=True, strict=True)
    assert strict == naive, f"strict-mode divergence at seed {seed}"

    plan = _stall_plan(seed, rng)
    naive_faulted, _ = _run_case(case, idle_skip=False, plan=plan)
    strict_faulted, _ = _run_case(case, idle_skip=True, strict=True,
                                  plan=plan)
    assert strict_faulted == naive_faulted, (
        f"strict-mode divergence under stall faults at seed {seed}"
    )


# -- trace-free hot mode (tentpole: spans compile down to counters) ---------

def test_hot_mode_counters_match_trace_derived_values():
    """A trace-free hot run must leave every architectural observable
    and every live counter bit-identical to a traced run -- and its
    perf registers must equal the counters *re-derived from the traced
    run's span forest*, closing the loop between the two accounting
    paths."""
    from repro.obs import derive_counters

    case = Case(random.Random(SEED_BASE + 300_000))
    trace = Trace()
    ref_soc, ref_residual = _execute(case, trace=trace)
    hot_soc, hot_residual = _execute(case, trace=None)
    assert hot_soc.sim.hot  # genuinely ran trace-free on the table

    assert hot_residual == ref_residual
    assert (hot_soc.read_ram(OUT, case.total)
            == ref_soc.read_ram(OUT, case.total))
    assert hot_soc.sim.cycle == ref_soc.sim.cycle
    assert (hot_soc.ocp.controller.stats.as_dict()
            == ref_soc.ocp.controller.stats.as_dict())
    assert hot_soc.bus.stats.as_dict() == ref_soc.bus.stats.as_dict()

    derived = derive_counters(trace, ref_soc.ocp,
                              end_cycle=ref_soc.sim.cycle)
    assert hot_soc.ocp.controller.perf.snapshot() == derived


def test_hot_mode_span_reconstruction_refuses_loudly():
    """Hot runs record no events; asking for spans afterwards must be
    a loud, actionable error rather than an empty forest."""
    from repro.obs import reconstruct_spans

    case = Case(random.Random(SEED_BASE + 310_000))
    soc, _ = _execute(case, trace=None)
    assert soc.sim.hot
    with pytest.raises(SimulationError, match="hot mode"):
        reconstruct_spans(soc.sim.trace)


def _run_streaming(idle_skip, words=64, plan=None, out_chunk=64,
                   compute_latency=1):
    """One passthrough OCP streaming ``words`` in and out, no trace,
    optionally with a fault-injecting FIFO fabric."""
    from repro.core.program import OuProgram
    from repro.rac.scale import PassthroughRac

    soc = SoC(racs=[], idle_skip=idle_skip, with_cpu=False)
    kwargs = {}
    if plan is not None:
        kwargs["fifo_factory"] = faulty_fifo_factory(plan)
    ocp = soc.add_ocp(
        PassthroughRac(block_size=words, fifo_depth=2 * words,
                       compute_latency=compute_latency),
        **kwargs,
    )
    program = (OuProgram().stream_to(1, words).execs()
               .stream_from(2, words, chunk=out_chunk).eop())
    soc.write_ram(IN, list(range(words)))
    soc.write_ram(PROG, program.words())
    for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
        ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
    ocp.interface.write_word(REG_PROG_SIZE, len(program))
    ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
    soc.run_until(lambda: ocp.done, max_cycles=100_000)
    return soc, {
        "memory": soc.read_ram(OUT, words),
        "cycle": soc.sim.cycle,
        "controller_stats": ocp.controller.stats.as_dict(),
        "fifo_stats": [f.stats.as_dict()
                       for f in ocp.fifos_in + ocp.fifos_out],
        "perf": ocp.controller.perf.snapshot(),
    }


def test_hot_batch_lane_routes_words_through_faulty_fifo():
    """A FIFO that interposes on ``push`` (fault injection) must see
    every word on the hot lane too: slab pushes would bypass it and
    leave the flipped bit out of the output."""
    plan = FaultPlan(events=[
        FaultEvent(FaultKind.BIT_FLIP, "fifo.out0", index=5, bit=3),
    ])
    _, naive = _run_streaming(idle_skip=False, plan=plan)
    hot_soc, hot = _run_streaming(idle_skip=True, plan=plan)
    assert hot_soc.sim.hot
    assert naive["memory"][5] == 5 ^ (1 << 3)
    assert hot == naive


@pytest.mark.parametrize("out_chunk", [1, 2, 4])
def test_hot_batch_lane_commits_single_tick_transitions(out_chunk):
    """The compute-expiry tick stages the first output word; a hot
    grant that falls back to a single tick must still commit it that
    cycle, or a controller waiting for one word resumes a cycle late."""
    _, naive = _run_streaming(idle_skip=False, words=16,
                              out_chunk=out_chunk, compute_latency=5)
    hot_soc, hot = _run_streaming(idle_skip=True, words=16,
                                  out_chunk=out_chunk, compute_latency=5)
    assert hot_soc.sim.hot
    assert hot == naive


# -- overlapping DMA bursts + controller prefetch (satellite b) -------------

def _run_dma_overlap(idle_skip, seed):
    """OCP run with a DMA copy bursting across the same bus.

    The DMA engine contends with the controller's whole-ibuf PREFETCH
    burst and with every mvtc/mvfc transfer, so each component's
    ``next_activity`` claim is exercised against wake-ups caused by a
    *third party's* bus traffic -- the exact overlap the idle-skip
    audit worried about.
    """
    from repro.mem.dma import (
        CTRL_START as DMA_START,
        REG_COUNT as DMA_COUNT,
        REG_CTRL as DMA_CTRL,
        REG_DST as DMA_DST,
        REG_SRC as DMA_SRC,
    )

    rng = random.Random(seed)
    case = Case(rng)
    dma_src = OUT + 0x4000
    dma_dst = OUT + 0x8000
    dma_words = 64 + rng.randrange(64)
    payload = [rng.getrandbits(32) for _ in range(dma_words)]

    trace = Trace()
    soc = SoC(racs=[case.rac()], trace=trace, idle_skip=idle_skip,
              with_dma=True)
    soc.write_ram(IN, case.inputs)
    soc.write_ram(PROG, case.program.words())
    soc.write_ram(dma_src, payload)
    ocp = soc.ocp
    for bank, base in {0: PROG, 1: IN, 2: OUT}.items():
        ocp.interface.write_word(REG_BANK_BASE + 4 * bank, base)
    ocp.interface.write_word(REG_PROG_SIZE, len(case.program))
    # kick both masters in the same cycle: the DMA's first read burst
    # races the controller's microcode prefetch for the bus
    soc.dma.write_word(DMA_SRC, dma_src)
    soc.dma.write_word(DMA_DST, dma_dst)
    soc.dma.write_word(DMA_COUNT, dma_words)
    soc.dma.write_word(DMA_CTRL, DMA_START)
    ocp.interface.write_word(REG_CTRL, CTRL_S | CTRL_IE)
    soc.run_until(lambda: ocp.done and soc.dma.done, max_cycles=500_000)
    previous = -1
    while ocp.fifos_out[0].occupancy != previous:
        previous = ocp.fifos_out[0].occupancy
        soc.sim.step(50)
    assert soc.read_ram(dma_dst, dma_words) == payload
    return {
        "memory": soc.read_ram(OUT, case.total),
        "residual": previous,
        "cycle": soc.sim.cycle,
        "trace": trace.dump(),
        "controller_stats": ocp.controller.stats.as_dict(),
        "bus_stats": soc.bus.stats.as_dict(),
    }, soc.sim.profile()


@pytest.mark.parametrize("index", range(6))
def test_equivalence_dma_bursts_overlap_prefetch_and_xfers(index):
    """Naive vs dispatch with a DMA engine hammering the bus during
    controller PREFETCH and data transfers: the dispatch path may not
    skip past a wake-up caused by the other master's bursts."""
    seed = SEED_BASE + 400_000 + index
    naive, naive_prof = _run_dma_overlap(idle_skip=False, seed=seed)
    disp, _ = _run_dma_overlap(idle_skip=True, seed=seed)
    assert naive_prof.skipped == 0
    assert disp == naive, f"dispatch diverged under DMA overlap ({seed})"
    # the contention must be real: both masters issued bus requests
    assert naive["bus_stats"].get("requests.dma", 0) > 0
    assert any(key.startswith("requests.ocp") for key in
               naive["bus_stats"])


# -- multi-OCP scheduler contention (satellite: scale-out equivalence) ------

def _run_sched_case(idle_skip, strict=False, n_ocps=4, seed=424242,
                    traced=True):
    """A contended multi-OCP scheduler stream; capture all observables.

    Four-plus coprocessors behind one arbiter, driven by the throughput
    scheduler, is the densest wake/skip interleaving the kernel sees:
    per-slot FSMs sleep on bus transfers and IRQ lines while neighbours
    stay busy, so declared-idle windows open and close constantly.
    ``traced=False`` runs hot (the batch lanes on) and captures no trace.
    """
    from repro.obs import attribute_run, attribute_schedule
    from repro.rac.scale import PassthroughRac, ScaleRac
    from repro.sched import Job, ThroughputScheduler
    from repro.system import build_mpsoc

    trace = Trace() if traced else None
    racs = []
    for index in range(n_ocps):
        if index % 2 == 0:
            racs.append(PassthroughRac(name=f"pt{index}", block_size=8,
                                       compute_latency=30))
        else:
            racs.append(ScaleRac(name=f"sc{index}", block_size=4))
    soc = build_mpsoc(racs, trace=trace, idle_skip=idle_skip, strict=strict)
    sched = ThroughputScheduler(soc, batch_jobs=2, queue_bound=3)

    rng = random.Random(seed)
    jobs = []
    for index in range(20):
        kind = rng.choice(["passthrough", "scale"])
        block = 8 if kind == "passthrough" else 4
        size = block * rng.randrange(1, 4)
        jobs.append(Job(
            f"mj{index}", kind, [rng.getrandbits(32) for _ in range(size)]
        ))
    results = sched.run_stream(jobs)

    schedule = attribute_schedule(sched)
    assert schedule.consistent
    return {
        "outputs": {r.job.job_id: r.outputs for r in results},
        "cycle": soc.sim.cycle,
        "trace": trace.dump() if traced else None,
        "completion_order": list(sched.completion_order),
        "busy": [slot.busy_cycles for slot in sched.slots],
        "bus_stats": soc.bus.stats.as_dict(),
        "per_ocp_attribution": [
            attribute_run(soc, ocp_index=index).as_dict()
            for index in range(n_ocps)
        ],
        "schedule": schedule.as_dict(),
    }, soc.sim.profile()


def test_equivalence_multi_ocp_scheduler_contention():
    """Naive vs dispatch on a contended 4-OCP scheduler stream: every
    observable -- outputs, cycle counts, traces, completion order,
    per-OCP attribution and the schedule report -- is bit-identical."""
    naive, naive_prof = _run_sched_case(idle_skip=False)
    disp, disp_prof = _run_sched_case(idle_skip=True)
    assert disp == naive
    assert naive_prof.skipped == 0
    assert disp_prof.skipped > 0  # the dispatch scan must actually skip
    assert disp_prof.ticked + disp_prof.skipped == disp_prof.cycles


def test_equivalence_multi_ocp_strict_audits_scheduler_idle_claims():
    """strict=True naively re-executes every window the scheduler (and
    its six-OCP neighbourhood) declared idle, and must find no lies."""
    naive, _ = _run_sched_case(idle_skip=False, n_ocps=6, seed=515151)
    strict, _ = _run_sched_case(idle_skip=True, strict=True, n_ocps=6,
                                seed=515151)
    assert strict == naive


@pytest.mark.parametrize("n_ocps", [4, 8])
def test_equivalence_hot_multi_ocp_scheduler_lockstep(n_ocps):
    """Hot (trace-free) dispatch vs naive on contended multi-OCP
    streams: RACs streaming on different OCPs are granted batches in
    lockstep, and every observable but the trace -- outputs, cycle,
    completion order, slot busy cycles, bus stats, per-OCP attribution
    and the schedule report -- stays bit-identical."""
    lockstep = 0
    for index in range(N_HOT_MULTI_OCP):
        seed = SEED_BASE + 600_000 + 100 * n_ocps + index
        naive, _ = _run_sched_case(idle_skip=False, n_ocps=n_ocps,
                                   seed=seed)
        hot, hot_prof = _run_sched_case(idle_skip=True, n_ocps=n_ocps,
                                        seed=seed, traced=False)
        naive["trace"] = None
        assert hot == naive, f"hot dispatch diverged ({n_ocps} OCPs, {seed})"
        assert hot_prof.batched > 0
        lockstep += hot_prof.lockstep_grants
    assert lockstep > 0  # the lockstep lane must actually fire


class Drainer(Component):
    """Batcher popping one word per cycle from one FIFO, logging when."""

    can_batch = True

    def __init__(self, name, fifo):
        super().__init__(name)
        self.fifo = fifo
        self.log = []
        fifo.watch(self)

    def next_activity(self):
        return self.now if self.fifo.occupancy else None

    def tick(self):
        if self.fifo.occupancy:
            self.log.append((self.now, self.fifo.pop()))

    def batch_ports(self):
        return (self.fifo,)

    def batch_limit(self, budget):
        return min(self.fifo.occupancy, budget)

    def tick_batch(self, budget):
        cycles = self.batch_limit(budget)
        words = self.fifo.slab_pop_now(cycles)
        self.log.extend((self.now + i, word) for i, word in enumerate(words))
        return cycles


def _run_drainers(idle_skip, shared, words=12):
    from repro.rac.fifo import FIFO

    sim = Simulator(idle_skip=idle_skip)
    fifos = [sim.add(FIFO(f"f{i}", depth=32)) for i in range(2)]
    feeds = [fifos[0], fifos[0]] if shared else fifos
    drainers = [sim.add(Drainer(f"d{i}", fifo))
                for i, fifo in enumerate(feeds)]
    for index, fifo in enumerate(fifos):
        for word in range(words):
            fifo.push(100 * index + word)
    sim.step(40)
    return [d.log for d in drainers], sim.profile()


@pytest.mark.parametrize("shared", [False, True])
def test_lockstep_lane_requires_disjoint_ports(shared):
    """Two batchers due together advance in lockstep only on disjoint
    FIFOs; sharing one FIFO falls back to ordinary cycles (their
    per-cycle interleaving is observable) and stays bit-exact."""
    naive, _ = _run_drainers(idle_skip=False, shared=shared)
    hot, prof = _run_drainers(idle_skip=True, shared=shared)
    assert hot == naive
    if shared:
        assert prof.batch_grants == 0 and prof.batched == 0
    else:
        assert prof.lockstep_grants == prof.batch_grants == 1
        assert prof.batched == 12


def test_lockstep_lane_rejects_a_batcher_ignoring_its_limit():
    """tick_batch must consume exactly a grant within its batch_limit;
    one that stops short is a loud kernel error, not silent drift."""
    from repro.rac.fifo import FIFO

    class Stingy(Drainer):
        def tick_batch(self, budget):
            return super().tick_batch(budget - 1)

    sim = Simulator()
    fifos = [sim.add(FIFO(f"f{i}", depth=32)) for i in range(2)]
    sim.add(Drainer("d0", fifos[0]))
    sim.add(Stingy("stingy", fifos[1]))
    for fifo in fifos:
        for word in range(8):
            fifo.push(word)
    with pytest.raises(SimulationError, match="'stingy'.*at cycle 1"):
        sim.step(20)


def test_profiler_surfaces_kernel_and_truncation_counters():
    """The kernel profile carries skip accounting, the attribution
    stays whole on a truncated trace, and span reconstruction refuses
    it loudly (no silent analysis of incomplete logs)."""
    from repro.core.program import OuProgram
    from repro.obs import attribute_run, reconstruct_spans
    from repro.rac.scale import PassthroughRac
    from repro.sw.driver import OuessantDriver

    trace = Trace(capacity=5)  # deliberately far too small
    soc = SoC(racs=[PassthroughRac(block_size=4)], trace=trace)
    program = (OuProgram().stream_to(1, 4).execs()
               .stream_from(2, 4).eop())
    soc.write_ram(IN, [1, 2, 3, 4])
    driver = OuessantDriver(soc)
    result = driver.run(program.words(), banks={0: PROG, 1: IN, 2: OUT})
    assert trace.truncated
    kernel = soc.sim.profile()
    assert kernel.skipped > 0
    assert kernel.ticked + kernel.skipped == soc.sim.cycle
    assert "skipped" in kernel.render()
    report = attribute_run(soc, total_cycles=result.total_cycles)
    assert report.consistent
    assert report.words_moved == 8
    with pytest.raises(SimulationError,
                       match=f"{trace.dropped} events dropped"):
        reconstruct_spans(trace)
