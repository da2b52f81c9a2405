"""racelint's signature memo reports exactly what the per-pair loop does.

:class:`~repro.racelint.RaceChecker` decides "may these two jobs
race?" once per pair of footprint-geometry signatures.  The reference
below is the per-pair relation it replaces: every job pair runs every
candidate slot pair through the labelled range-pair loop, and every
placement re-runs the program factory.  Both must produce the same
``VerifyReport`` -- code, severity, message, ``where`` and order --
from :func:`~repro.racelint.check_stream` and from online
``racecheck="warn"`` submission, across the racy arena geometries of
``tests/test_racelint_differential.py`` and the default disjoint one,
``batch_jobs`` 1-4, chained jobs, an armed DMA window and custom
(including unbounded) program factories.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

import repro.racelint
from repro.core.isa import OuInstruction, OuOp
from repro.core.program import OuProgram
from repro.racelint import RaceChecker, StreamModel, check_stream
from repro.rac import PassthroughRac, ScaleRac
from repro.sched import Job, ThroughputScheduler, job_program
from repro.sim.errors import ReproError
from repro.system import RAM_BASE, build_mpsoc
from repro.verify.diagnostics import VerifyReport, make_finding
from repro.verify.footprint import program_footprint

BLOCK = 8
SEED_BASE = 70240

#: (mode, arena_stride): the racy geometries of the soundness gate
#: plus the default disjoint one (``None``)
GEOMETRIES = (
    ("default", None),
    ("shared", 0x0),
    ("prog-in", 0x1_0000),
    ("tight-batch", 0x40),
)
BATCH_JOBS = (1, 2, 3, 4)


class BruteForceChecker(RaceChecker):
    """The per-pair relation: no signature memo, no footprint cache."""

    def _footprint(self, job):
        program = self._factory(job, self.model.chunk)
        return program, program_footprint(program.instructions)

    @staticmethod
    def _overlap(pa, pb):
        ww = None
        rw = None
        for ra in pa.ranges:
            for rb in pb.ranges:
                if not ra.span.overlaps(rb.span):
                    continue
                if ra.writes and rb.writes:
                    ww = ww or (ra, rb)
                elif ra.writes or rb.writes:
                    rw = rw or (ra, rb)
        return ww, rw

    def check_pair(self, a, b, findings):
        if a.job_id == b.job_id:
            return
        if a.chain is not None and a.chain == b.chain:
            return
        where = f"jobs {a.job_id}/{b.job_id}"
        hit_ww = None
        hit_rw = None
        widened_only = False
        for sa in self.candidates(a):
            for sb in self.candidates(b):
                if sa == sb:
                    continue
                pa = self.placement(a, sa, widened=True)
                pb = self.placement(b, sb, widened=True)
                if pa is None or pb is None:
                    continue
                ww, rw = self._overlap(pa, pb)
                if ww is not None and hit_ww is None:
                    hit_ww = (
                        f"may run concurrently on ocp{sa}/ocp{sb}: "
                        f"{ww[0].span} overlaps {ww[1].span}"
                    )
                    widened_only = widened_only or self._widened_only(
                        a, b, sa, sb)
                if rw is not None and hit_rw is None:
                    hit_rw = (
                        f"may run concurrently on ocp{sa}/ocp{sb}: "
                        f"{rw[0].span} overlaps {rw[1].span}"
                    )
                    widened_only = widened_only or self._widened_only(
                        a, b, sa, sb)
            if hit_ww and hit_rw:
                break
        if hit_ww:
            findings.append(
                make_finding("OU200", None, hit_ww, where=where))
        if hit_rw:
            findings.append(
                make_finding("OU201", None, hit_rw, where=where))
        if (hit_ww or hit_rw) and widened_only:
            findings.append(make_finding(
                "OU205", None,
                "the overlap only arises under batch concatenation "
                f"(batch_jobs={self.model.batch_jobs} widens the "
                "jobs' arena offsets); the solo footprints are "
                "disjoint",
                where=where,
            ))


def _rows(report: VerifyReport) -> List[Tuple]:
    return [(f.code, f.severity, f.index, f.message, f.where)
            for f in report.findings]


def _reference_stream(jobs, model, program_factory=None) -> VerifyReport:
    """``check_stream`` over the brute-force relation."""
    checker = BruteForceChecker(model, program_factory=program_factory)
    report = VerifyReport()
    checker.check_all(list(jobs), report)
    report.sort()
    return report


def _racs() -> list:
    return [PassthroughRac(name="pt0", block_size=BLOCK),
            PassthroughRac(name="pt1", block_size=BLOCK),
            ScaleRac(name="sc0", block_size=BLOCK),
            PassthroughRac(name="pt2", block_size=BLOCK)]


def _stream(seed: int, n_jobs: int = 8) -> List[Job]:
    """Mixed kinds and sizes; about a third of the jobs are chained."""
    rng = random.Random(seed)
    jobs = []
    for index in range(n_jobs):
        kind = rng.choice(("passthrough", "passthrough", "scale"))
        chain: Optional[str] = None
        if rng.random() < 0.35:
            chain = f"{kind}-c{rng.randrange(2)}"
        size = BLOCK * rng.randrange(1, 5)
        jobs.append(Job(f"m{seed}-{index}", kind,
                        [rng.getrandbits(16) for _ in range(size)],
                        chain=chain))
    return jobs


def _shifted(job: Job, chunk: int) -> OuProgram:
    """A custom geometry: input and output offset by one block."""
    return job_program(job, BLOCK, BLOCK, chunk=chunk)


def _partly_unbounded(job: Job, chunk: int) -> OuProgram:
    """Every third job loops forever (OU203); one transfers via bank 5."""
    index = int(job.job_id.rsplit("-", 1)[1])
    if index % 3 == 0:
        return OuProgram.from_instructions([
            OuInstruction(OuOp.MVTC, bank=1, offset=0, count=job.size),
            OuInstruction(OuOp.JMP, imm=0),
        ])
    if index == 4:
        return OuProgram.from_instructions([
            OuInstruction(OuOp.MVTC, bank=5, offset=0, count=job.size),
            OuInstruction(OuOp.EOP),
        ])
    return job_program(job, 0, 0, chunk=chunk)


FACTORIES = {"default": None, "shifted": _shifted,
             "unbounded": _partly_unbounded}

STREAM_CASES = [
    (SEED_BASE + offset, geometry, batch_jobs, factory)
    for offset in range(2)
    for geometry in GEOMETRIES
    for batch_jobs in BATCH_JOBS
    for factory in FACTORIES
]


@pytest.mark.parametrize("seed,geometry,batch_jobs,factory",
                         STREAM_CASES)
def test_check_stream_matches_brute_force(seed, geometry, batch_jobs,
                                          factory):
    _, stride = geometry
    jobs = _stream(seed)
    model = StreamModel.from_plan(_racs(), batch_jobs=batch_jobs,
                                  arena_stride=stride)
    program_factory = FACTORIES[factory]
    memo = check_stream(jobs, model=model,
                        program_factory=program_factory)
    reference = _reference_stream(jobs, model, program_factory)
    assert _rows(memo) == _rows(reference)


def test_racy_geometries_exercise_every_pair_finding():
    """The corpus above is not vacuous: it hits OU200/201/203/205."""
    codes = set()
    for seed, geometry, batch_jobs, factory in STREAM_CASES:
        model = StreamModel.from_plan(_racs(), batch_jobs=batch_jobs,
                                      arena_stride=geometry[1])
        report = check_stream(_stream(seed), model=model,
                              program_factory=FACTORIES[factory])
        codes |= {f.code for f in report.findings}
    assert {"OU200", "OU201", "OU203", "OU205"} <= codes


def _armed_scheduler(stride, batch_jobs, racecheck="off"):
    from repro.mem.dma import REG_COUNT, REG_DST, REG_SRC

    soc = build_mpsoc(_racs(), with_dma=True)
    sched = ThroughputScheduler(soc, batch_jobs=batch_jobs,
                                arena_stride=stride, racecheck=racecheck)
    # the DMA destination lands inside slot 1's input arena
    soc.dma.write_word(REG_SRC, RAM_BASE)
    soc.dma.write_word(REG_DST, sched.slots[1].in_base)
    soc.dma.write_word(REG_COUNT, 32)
    return sched


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("batch_jobs", (1, 3))
def test_armed_dma_window_matches_brute_force(geometry, batch_jobs):
    sched = _armed_scheduler(geometry[1], batch_jobs)
    jobs = _stream(SEED_BASE + 7)
    memo = check_stream(jobs, scheduler=sched)
    reference = _reference_stream(jobs, StreamModel.from_scheduler(sched))
    assert any(f.code == "OU202" for f in memo.findings)
    assert _rows(memo) == _rows(reference)


def _online(jobs, stride, batch_jobs, dma: bool):
    """Submit under ``racecheck="warn"``; (findings, outcome, order)."""
    if dma:
        sched = _armed_scheduler(stride, batch_jobs, racecheck="warn")
    else:
        sched = ThroughputScheduler(
            build_mpsoc(_racs()), batch_jobs=batch_jobs,
            arena_stride=stride, racecheck="warn")
    try:
        sched.run_stream(jobs, max_cycles=200_000)
        outcome = "completed"
    except ReproError as exc:  # racy arenas may trap for good
        outcome = f"{type(exc).__name__}: {exc}"
    return (_rows(sched.racecheck_report), outcome,
            list(sched.completion_order))


ONLINE_CASES = [
    (SEED_BASE + 20 + offset, geometry, batch_jobs, offset == 1)
    for offset in range(2)
    for geometry in GEOMETRIES
    for batch_jobs in BATCH_JOBS
]


@pytest.mark.parametrize("seed,geometry,batch_jobs,dma", ONLINE_CASES)
def test_online_warn_matches_brute_force(seed, geometry, batch_jobs, dma,
                                         monkeypatch):
    jobs = _stream(seed, n_jobs=10)
    memo = _online(jobs, geometry[1], batch_jobs, dma)
    # the scheduler builds its checker through the package attribute
    monkeypatch.setattr(repro.racelint, "RaceChecker", BruteForceChecker)
    reference = _online(jobs, geometry[1], batch_jobs, dma)
    assert memo == reference
    if geometry[0] != "default" or dma:
        assert memo[0], "a racy online case reported nothing"
