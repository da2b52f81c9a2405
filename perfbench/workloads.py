"""The benchmark's three seeded, closed-loop workloads.

Every input and every golden output is built from the seed when a
workload is constructed, before anything is timed.  A workload then
runs in *passes*: the same fixed list of jobs, start to finish, so a
pass repeats exactly in simulated time and a run can stop on a pass
boundary without changing the job mix it measured.

* ``ocp_transfer`` -- one client, one job at a time, each job walking
  the whole single-OCP user path: elaborate a one-OCP AXI4 SoC, plan
  and encode the microcode, verify it, bound its cost, run it through
  the driver, read back and check the outputs, attribute the cycles.
  A pass is a deck of IDCT jobs (8, 16 or 32 blocks) and 256-point
  DFT jobs (1 or 2 transforms), equally many of each, in an order the
  seed shuffles.
* ``mpsoc_stream`` -- 8 passthrough OCPs behind one AHB arbiter, fed
  by one closed-loop submitter through ``ThroughputScheduler``
  (round-robin, 4 jobs per batch, 8 queued jobs per OCP).  A pass is
  one episode: elaborate, submit the whole stream, drain, attribute.
* ``mpsoc_guarded`` -- the same SoC and stream, admitted by the
  cost-aware policy with racecheck on submit and an SLA budget.

Layer calls are wrapped in spans of the recorder passed in
(:mod:`spans`); the untraced recorder makes them no-ops.
"""

from __future__ import annotations

import pathlib
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bus.protocol import AXI4  # noqa: E402
from repro.core.firmware import plan_streaming_run  # noqa: E402
from repro.core.perf import PERF_BUSY  # noqa: E402
from repro.obs import (  # noqa: E402
    attribute_run,
    attribute_schedule,
    compare_attribution,
)
from repro.perfbound import CostModel, RacTiming, bound_program  # noqa: E402
from repro.rac.dft import DFTRac  # noqa: E402
from repro.rac.idct import IDCTRac  # noqa: E402
from repro.rac.scale import PassthroughRac  # noqa: E402
from repro.sched import (  # noqa: E402
    Job,
    RaceHazardError,
    SlaRejectionError,
    ThroughputScheduler,
    job_program,
)
from repro.sim.errors import ReproError  # noqa: E402
from repro.sw.driver import OuessantDriver  # noqa: E402
from repro.system import RAM_BASE, SoC  # noqa: E402
from repro.utils import fixedpoint as fp  # noqa: E402
from repro.verify.domain import Interval  # noqa: E402

from spans import NULL  # noqa: E402


@dataclass
class PassResult:
    """What one pass did, per job and (traced passes only) per layer."""

    wall_s: float = 0.0
    #: host ms per job: the whole path on ``ocp_transfer``; on the
    #: streams, from the submit call until the submitter sees the job
    #: complete (completions are observed whenever a call returns)
    host_ms: Dict[str, float] = field(default_factory=dict)
    #: simulated cycles per job (start to done / turnaround)
    sim_cycles: Dict[str, int] = field(default_factory=dict)
    #: (job id, reason) of every failed job
    failures: List[Tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    #: per-layer counts of the pass, read from public state
    layer: Dict[str, float] = field(default_factory=dict)


def percentile(values, percent: int) -> float:
    """Inclusive-method percentile; the 50th is the median."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        percent - 1]


# ---------------------------------------------------------------------------
# ocp_transfer
# ---------------------------------------------------------------------------

#: one-OCP systems touch only the first few KiB of RAM; a small memory
#: keeps elaboration from being a RAM-allocation measurement
TRANSFER_RAM = 1 << 18
PROG = RAM_BASE + 0x1000
IN = RAM_BASE + 0x4000
OUT = RAM_BASE + 0x8000
#: (accelerator, operations per job): IDCT blocks and DFT transforms
TRANSFER_KINDS = (("idct", 8), ("idct", 16), ("idct", 32),
                  ("dft", 1), ("dft", 2))
#: jobs of each kind in one pass
TRANSFER_COPIES = 8
DFT_POINTS = 256
#: densest transfer setup: whole blocks/transforms fit the FIFOs and
#: each mvtc/mvfc moves the ISA's largest chunk
TRANSFER_CHUNK = 128


@dataclass(frozen=True)
class TransferJob:
    job_id: str
    kind: str
    operations: int
    words: List[int]
    golden: List[int]


def make_transfer_jobs(seed: int) -> List[TransferJob]:
    """The seeded deck; goldens come from the scalar references."""
    rng = random.Random(seed)
    deck = [kind for kind in TRANSFER_KINDS for _ in range(TRANSFER_COPIES)]
    rng.shuffle(deck)
    jobs = []
    for index, (kind, operations) in enumerate(deck):
        words: List[int] = []
        golden: List[int] = []
        for _ in range(operations):
            if kind == "idct":
                block = [[rng.randint(-1024, 1023) for _ in range(8)]
                         for _ in range(8)]
                words += fp.block_to_words(block)
                golden += fp.block_to_words(fp.idct2_q15_scalar(block))
            else:
                re = [rng.randint(-16384, 16383) for _ in range(DFT_POINTS)]
                im = [rng.randint(-16384, 16383) for _ in range(DFT_POINTS)]
                words += fp.interleave_complex(re, im)
                golden += fp.interleave_complex(*fp.fft_q15_scalar(re, im))
        jobs.append(TransferJob(f"t{index}", kind, operations, words, golden))
    return jobs


class TransferWorkload:
    def __init__(self, seed: int) -> None:
        self.jobs = make_transfer_jobs(seed)

    def cold_job(self) -> None:
        self._job(self.jobs[0], NULL, PassResult(), None)

    def run_pass(self, spans, traced: bool) -> PassResult:
        result = PassResult()
        layer: Optional[Dict[str, float]] = {} if traced else None
        tightness: List[float] = []
        begin = time.perf_counter()
        for job in self.jobs:
            self._job(job, spans, result, layer, tightness)
        result.wall_s = time.perf_counter() - begin
        if layer is not None:
            layer["perfbound.tightness_p50"] = percentile(tightness, 50)
            layer["bus.utilization"] = (
                layer["bus.busy_cycles"] / layer["sim.cycles"])
            result.layer = layer
        return result

    def _job(self, job: TransferJob, spans, result: PassResult,
             layer: Optional[Dict[str, float]],
             tightness: Optional[List[float]] = None) -> None:
        result.attempted += 1
        begin = time.perf_counter()
        try:
            with spans.span("job", job.job_id):
                problems = self._path(job, spans, result, layer, tightness)
        except ReproError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        result.host_ms[job.job_id] = 1e3 * (time.perf_counter() - begin)
        result.failures += [(job.job_id, p) for p in problems]

    def _path(self, job: TransferJob, spans, result: PassResult,
              layer: Optional[Dict[str, float]],
              tightness: Optional[List[float]]) -> List[str]:
        with spans.span("system.elaborate"):
            if job.kind == "idct":
                rac = IDCTRac(fifo_depth=64)
            else:
                rac = DFTRac(n_points=DFT_POINTS, fifo_depth=512)
            soc = SoC(racs=[rac], protocol=AXI4, ram_size=TRANSFER_RAM)
        with spans.span("core.plan"):
            plan = plan_streaming_run(rac, operations=job.operations,
                                      chunk=TRANSFER_CHUNK)
        with spans.span("core.encode"):
            words = plan.program.words()
        driver = OuessantDriver(soc)
        banks = {0: PROG, plan.input_banks[0]: IN, plan.output_banks[0]: OUT}
        with spans.span("verify.verify"):
            report = driver.verify_microcode(words, banks)
        with spans.span("perfbound.bound"):
            bound = bound_program(plan.program.instructions, rac,
                                  model=CostModel(protocol=AXI4))
        soc.write_ram(IN, job.words)
        with spans.span("sim.run"):
            run = driver.run(words, banks)
        outputs = soc.read_ram(OUT, len(job.golden))
        # the OCP's own start-to-done window, which perfbound bounds
        busy = soc.ocp.controller.perf.value(PERF_BUSY)
        with spans.span("obs.attribute"):
            attribution = attribute_run(soc, workload=job.job_id,
                                        total_cycles=busy)
            check = compare_attribution(attribution, bound)
        with spans.span("bench.check"):
            problems = []
            if outputs != job.golden:
                wrong = sum(a != b for a, b in zip(outputs, job.golden))
                problems.append(f"wrong output: {wrong} words differ "
                                "from the scalar reference")
            if not report.clean:
                problems.append("microcode verification errors: "
                                + report.render())
            if not bound.bounded or not check.sound:
                problems.append(f"perfbound containment violated: "
                                f"{check.violations or 'unbounded'}")
            if not attribution.consistent:
                problems.append("attribution does not tile the total")
        if not problems:
            result.sim_cycles[job.job_id] = busy
        if layer is not None:
            profile = soc.sim.profile()
            stats = soc.bus.stats
            tightness.append(bound.total.hi / busy)
            _add(layer, {
                "core.instructions": len(plan.program),
                "verify.errors": len(report.errors),
                "perfbound.unsound": int(not check.sound),
                "sim.cycles": profile.cycles,
                "sim.ticked": profile.ticked,
                "sim.skipped": profile.skipped,
                "sim.skip_windows": profile.skip_windows,
                "bus.grants": stats.get("grants"),
                "bus.beats": stats.get("beats"),
                "bus.busy_cycles": stats.get("busy_cycles"),
                "core.transfer_cycles": attribution.transfer_cycles,
                "core.compute_cycles": attribution.compute_cycles,
                "core.control_cycles": attribution.control_cycles,
                "core.stall_cycles": attribution.stall_cycles,
                "sw.config_cycles": run.config_cycles,
                "sw.ack_cycles": run.ack_cycles,
            })
            _max(layer, {
                "system.components": len(soc.sim.components),
                "rac.fifo_in_high_water": attribution.fifo_in_high_water,
                "rac.fifo_out_high_water": attribution.fifo_out_high_water,
            })
        return problems


def _add(into: Dict[str, float], values: Dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def _max(into: Dict[str, float], values: Dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = max(into.get(key, value), value)


# ---------------------------------------------------------------------------
# mpsoc_stream / mpsoc_guarded
# ---------------------------------------------------------------------------

#: the scheduler's arenas end at 4 MiB; 8 MiB of RAM holds them all
STREAM_RAM = 1 << 23
#: per-OCP compute latencies; the seed decides which OCP gets which
STREAM_LATENCIES = (100, 100, 100, 400, 400, 1600, 1600, 1600)
STREAM_SIZES = (16, 32)
STREAM_BLOCK = 16
#: jobs per episode: enough to keep all 8 x 8 queue places full for
#: most of the episode
EPISODE_JOBS = 256
#: episodes per pass, each with its own seeded latency arrangement.
#: Under round-robin the p95 turnaround depends on which OCPs drew the
#: slow latencies, so one pass averages four arrangements; the
#: cost-aware policy routes around slow OCPs (and admits ~15x slower),
#: so one arrangement is as steady there
EPISODES = {"mpsoc_stream": 4, "mpsoc_guarded": 1}
BATCH_JOBS = 4
QUEUE_BOUND = 8
#: admission budget of the guarded stream, in cycles: finite, so every
#: submit runs the OU304 worst-case check, and loose enough that a
#: correct scheduler admits every job of this stream
SLA_CYCLES = 100_000


@dataclass
class Episode:
    """One seeded stream: which latency each OCP has, and the jobs."""

    latencies: List[int]
    #: passthrough jobs: the golden output is the input itself
    jobs: List[Job]


@dataclass
class _EpisodeRun:
    soc: SoC
    scheduler: ThroughputScheduler
    report: object
    refused: int


class StreamWorkload:
    def __init__(self, seed: int, guarded: bool) -> None:
        self.guarded = guarded
        rng = random.Random(seed)
        self.episodes = []
        name = "mpsoc_guarded" if guarded else "mpsoc_stream"
        for episode in range(EPISODES[name]):
            latencies = list(STREAM_LATENCIES)
            rng.shuffle(latencies)
            sizes = [size for size in STREAM_SIZES
                     for _ in range(EPISODE_JOBS // len(STREAM_SIZES))]
            rng.shuffle(sizes)
            jobs = [Job(f"s{episode}.{index}", "passthrough",
                        [rng.getrandbits(32) for _ in range(size)])
                    for index, size in enumerate(sizes)]
            self.episodes.append(Episode(latencies, jobs))
        #: worst-case cycles per (job size, OCP latency), for tightness
        self._hi: Dict[Tuple[int, int], int] = {}

    def _elaborate(self, latencies: List[int]
                   ) -> Tuple[SoC, ThroughputScheduler]:
        soc = SoC(
            racs=[PassthroughRac(name=f"pt{index}", block_size=STREAM_BLOCK,
                                 fifo_depth=4 * STREAM_BLOCK,
                                 compute_latency=latency)
                  for index, latency in enumerate(latencies)],
            ram_size=STREAM_RAM,
        )
        if self.guarded:
            options = dict(policy="cost-aware", racecheck="submit",
                           sla_cycles=SLA_CYCLES)
        else:
            options = dict(policy="round-robin", racecheck="off")
        scheduler = ThroughputScheduler(
            soc, batch_jobs=BATCH_JOBS, queue_bound=QUEUE_BOUND, **options)
        return soc, scheduler

    def cold_job(self) -> None:
        """Elaborate and run one job; bound each job shape once.

        The bounds feed ``perfbound.tightness_p50`` of traced passes.
        They are computed the way the scheduler bounds admission: the
        job's own program against the SoC's bus, memory and RAC timing.
        """
        first = self.episodes[0]
        result = PassResult()
        run = self._episode(Episode(first.latencies, first.jobs[:1]),
                            NULL, result, traced=False)
        if result.failures:
            raise RuntimeError(f"cold job failed: {result.failures}")
        soc = run.soc
        for ocp in soc.ocps:
            model = CostModel(
                protocol=soc.bus.protocol,
                mem_latency=Interval.point(soc.memory.access_latency),
                rac=RacTiming.of(ocp.rac),
                ibuf_size=ocp.controller.ibuf_size,
                prefetch=ocp.controller.prefetch,
            )
            for size in STREAM_SIZES:
                program = job_program(Job("bound", "passthrough",
                                          [0] * size))
                bound = bound_program(program.instructions, ocp.rac,
                                      model=model)
                self._hi[size, ocp.rac.compute_latency] = int(
                    bound.total.hi)

    def run_pass(self, spans, traced: bool) -> PassResult:
        result = PassResult()
        begin = time.perf_counter()
        runs = [self._episode(episode, spans, result, traced)
                for episode in self.episodes]
        result.wall_s = time.perf_counter() - begin
        if traced:
            result.layer = self._layer(runs)
        return result

    def _episode(self, episode: Episode, spans, result: PassResult,
                 traced: bool) -> _EpisodeRun:
        result.attempted += len(episode.jobs)
        submitted: Dict[str, float] = {}
        seen = 0
        refused = 0
        with spans.span("episode"):
            with spans.span("system.elaborate"):
                soc, scheduler = self._elaborate(episode.latencies)
            if traced:
                untraced_run_until = soc.run_until

                def run_until(*args, **kwargs):
                    with spans.span("sim.run"):
                        return untraced_run_until(*args, **kwargs)

                soc.run_until = run_until
            order = scheduler.completion_order
            aborted = None
            try:
                for job in episode.jobs:
                    submitted[job.job_id] = time.perf_counter()
                    try:
                        with spans.span("sched.submit", job.job_id):
                            scheduler.submit_blocking(job)
                    except (SlaRejectionError, RaceHazardError) as exc:
                        refused += 1
                        result.failures.append(
                            (job.job_id, f"refused: {exc}"))
                    now = time.perf_counter()
                    for job_id in order[seen:]:
                        result.host_ms[job_id] = 1e3 * (
                            now - submitted[job_id])
                    seen = len(order)
                with spans.span("sched.drain"):
                    scheduler.drain()
            except ReproError as exc:
                aborted = f"episode aborted: {type(exc).__name__}: {exc}"
            now = time.perf_counter()
            for job_id in order[seen:]:
                result.host_ms[job_id] = 1e3 * (now - submitted[job_id])
            with spans.span("obs.attribute"):
                report = attribute_schedule(scheduler)
            with spans.span("bench.check"):
                self._check(episode.jobs, scheduler, report, aborted,
                            result)
        return _EpisodeRun(soc, scheduler, report, refused)

    def _check(self, jobs, scheduler, report, aborted, result) -> None:
        failed = {job_id for job_id, _ in result.failures}
        for job in jobs:
            if job.job_id in failed:
                continue
            done = scheduler.completed.get(job.job_id)
            if done is None:
                reason = aborted or "never completed"
            elif done.outputs != job.words:
                reason = "wrong output: differs from the passthrough input"
            elif not report.consistent:
                reason = "schedule report inconsistent"
            else:
                result.sim_cycles[job.job_id] = done.turnaround_cycles
                continue
            result.failures.append((job.job_id, reason))

    def _layer(self, runs: List[_EpisodeRun]) -> Dict[str, float]:
        layer: Dict[str, float] = {}
        waits: List[int] = []
        utilization: List[float] = []
        tightness: List[float] = []
        for run in runs:
            soc, scheduler, report = run.soc, run.scheduler, run.report
            profile = soc.sim.profile()
            stats = soc.bus.stats
            predicted: Dict[int, int] = {}
            for done in scheduler.completed.values():
                waits.append(done.wait_cycles)
                latency = soc.ocps[done.ocp_index].rac.compute_latency
                predicted[done.ocp_index] = (
                    predicted.get(done.ocp_index, 0)
                    + self._hi[done.job.size, latency])
            utilization += [s.utilization for s in report.per_ocp]
            tightness += [predicted.get(s.index, 0) / s.busy_cycles
                          for s in report.per_ocp if s.busy_cycles]
            _add(layer, {
                "sim.cycles": profile.cycles,
                "sim.ticked": profile.ticked,
                "sim.skipped": profile.skipped,
                "sim.skip_windows": profile.skip_windows,
                "bus.grants": stats.get("grants"),
                "bus.beats": stats.get("beats"),
                "bus.busy_cycles": stats.get("busy_cycles"),
                "sched.completed": report.total_jobs,
                "sched.batches": report.total_batches,
                "sched.retries": report.total_retries,
                "sched.refused": run.refused,
                "racelint.findings": len(
                    scheduler.racecheck_report.findings),
            })
            _max(layer, {"system.components": len(soc.sim.components)})
        layer.update({
            "perfbound.tightness_p50": percentile(tightness, 50),
            "bus.utilization": layer["bus.busy_cycles"] / layer["sim.cycles"],
            "sched.wait_p50_cycles": percentile(waits, 50),
            "sched.wait_p95_cycles": percentile(waits, 95),
            "sched.utilization_mean": statistics.fmean(utilization),
            "sched.utilization_min": min(utilization),
            "sched.jobs_per_batch": (layer.pop("sched.completed")
                                     / max(1, layer.pop("sched.batches"))),
        })
        return layer


def make_workload(name: str, seed: int):
    if name == "ocp_transfer":
        return TransferWorkload(seed)
    if name in ("mpsoc_stream", "mpsoc_guarded"):
        return StreamWorkload(seed, guarded=name == "mpsoc_guarded")
    raise ValueError(f"unknown workload {name!r}")

