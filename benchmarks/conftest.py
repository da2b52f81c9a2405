"""Benchmark-suite helpers.

Every benchmark regenerates one of the paper's reported artifacts
(Table I, the Section V resource discussion, the in-text cycle
analyses) or an ablation around it.  Wall-clock time measured by
pytest-benchmark is the *simulator's* speed; the reproduced quantity is
always simulated cycles, attached to ``benchmark.extra_info`` and
printed so a plain ``pytest benchmarks/ --benchmark-only -s`` shows the
regenerated rows.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.utils import fixedpoint as fp


@pytest.fixture
def q15_signal():
    rng = random.Random(2016)

    def make(n: int):
        re = [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)]
        im = [fp.float_to_q15(rng.uniform(-0.4, 0.4)) for _ in range(n)]
        return re, im

    return make


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory) -> str:
    """Path the bench tests write their JSON report to.

    ``REPRO_BENCH_OUT`` when set, else a file in the session's pytest
    temp directory: ``repro bench`` is the only writer of the committed
    ``BENCH_simulator.json``.
    """
    return os.environ.get("REPRO_BENCH_OUT") or str(
        tmp_path_factory.mktemp("bench") / "BENCH_simulator.json"
    )


def once(benchmark, fn):
    """Run a deterministic measurement exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
