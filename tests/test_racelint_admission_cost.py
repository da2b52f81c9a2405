"""Deterministic cost guard for racelint admission.

A timing gate would be noisy; counting is not.  On a 256-job, 8-OCP
stream on the default disjoint geometry, ``racecheck="submit"`` checks
every new job against every pending one -- tens of thousands of job
pairs -- yet the range-pair evaluation must run at most once per
distinct pair of footprint-geometry signatures, and the labelled
per-slot range loop (``RaceChecker._overlap``) not at all.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.racelint import RaceChecker, check_stream, engine
from repro.rac.scale import PassthroughRac
from repro.sched import Job, ThroughputScheduler
from repro.system import build_mpsoc

N_OCPS = 8
BLOCK = 16
SIZES = (16, 32)
N_JOBS = 256


def _stream(seed: int) -> List[Job]:
    rng = random.Random(seed)
    sizes = [size for size in SIZES for _ in range(N_JOBS // len(SIZES))]
    rng.shuffle(sizes)
    return [Job(f"g{index}", "passthrough",
                [rng.getrandbits(32) for _ in range(size)])
            for index, size in enumerate(sizes)]


def _racs() -> List[PassthroughRac]:
    return [PassthroughRac(name=f"pt{index}", block_size=BLOCK,
                           fifo_depth=4 * BLOCK,
                           compute_latency=100 * (1 + index % 3))
            for index in range(N_OCPS)]


@pytest.fixture
def counters(monkeypatch):
    """Count range-pair evaluations, labelled loops and job pairs."""
    seen = {"evaluations": [], "overlap": 0, "pairs": 0}
    clean = engine._signatures_clean
    overlap = RaceChecker._overlap
    check_pair = RaceChecker.check_pair

    def counting_clean(sig_a, sig_b):
        seen["evaluations"].append(frozenset((sig_a, sig_b)))
        return clean(sig_a, sig_b)

    def counting_overlap(pa, pb):
        seen["overlap"] += 1
        return overlap(pa, pb)

    def counting_pair(self, a, b, findings):
        seen["pairs"] += 1
        return check_pair(self, a, b, findings)

    monkeypatch.setattr(engine, "_signatures_clean", counting_clean)
    monkeypatch.setattr(RaceChecker, "_overlap",
                        staticmethod(counting_overlap))
    monkeypatch.setattr(RaceChecker, "check_pair", counting_pair)
    return seen


def _assert_once_per_signature_pair(evaluations) -> None:
    assert len(evaluations) == len(set(evaluations)), (
        "a signature pair was evaluated more than once")
    signatures = set().union(*evaluations)
    # one geometry per job size: every job fits all eight OCPs
    assert len(signatures) == len(SIZES)
    pairs = len(signatures) * (len(signatures) + 1) // 2
    assert len(evaluations) <= pairs


def test_submit_admission_evaluates_each_signature_pair_once(counters):
    sched = ThroughputScheduler(
        build_mpsoc(_racs()), policy="cost-aware", batch_jobs=4,
        queue_bound=8, racecheck="submit")
    jobs = _stream(1)
    results = sched.run_stream(jobs)
    assert [r.job.job_id for r in results] == [j.job_id for j in jobs]
    assert sched.racecheck_report.clean, sched.racecheck_report.render()

    # every submit checked tens of pending jobs ...
    assert counters["pairs"] > 10_000
    # ... but geometry was compared per signature pair, never per job
    # pair, and no clean pair reached the labelled range loop
    _assert_once_per_signature_pair(counters["evaluations"])
    assert counters["overlap"] == 0


def test_check_stream_all_pairs_evaluates_each_signature_pair_once(
        counters):
    report = check_stream(_stream(2), racs=_racs(), batch_jobs=4)
    assert report.clean, report.render()
    assert counters["pairs"] == N_JOBS * (N_JOBS - 1) // 2
    _assert_once_per_signature_pair(counters["evaluations"])
    assert counters["overlap"] == 0
