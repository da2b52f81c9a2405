"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ocp_transfer --seed 1 \\
        --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see ``perfbench/README.md``), writing the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Failed
jobs are printed to standard error with workload, seed and job id.
"""

import time

# set-up time counts from here: interpreter start-up is not the
# program's, the cold import of ``repro`` is
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
REPRO = HERE.parent / "src" / "repro"

#: cold set-ups run in child processes; with the run's own set-up they
#: give the samples whose median is ``setup_s``
COLD_SETUPS = 4
SETUP_TIMEOUT_S = 120
#: timed jobs needed so that at least ten fall beyond the p95
MIN_JOB_SAMPLES = 200

#: span name -> per-layer metric of its self time (ms per job)
LAYER_SPANS = {
    "system.elaborate": "system.elaborate_ms",
    "core.plan": "core.plan_ms",
    "core.encode": "core.encode_ms",
    "verify.verify": "verify.verify_ms",
    "perfbound.bound": "perfbound.bound_ms",
    "sim.run": "sim.run_ms",
    "sched.submit": "sched.submit_ms",
    "sched.drain": "sched.drain_ms",
    "obs.attribute": "obs.attribute_ms",
}
#: spans that belong to the benchmark itself: its glue
GLUE_SPANS = ("job", "episode", "bench.check")


def spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_units(section: str):
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in spec()[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        workload["name"] for workload in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only measures one cold set-up
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cold_setup_seconds(workload: str, seed: int) -> float:
    """One cold set-up, measured in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(child.stdout.split()[-1])


def run_passes(workload, seconds: float, traced: bool, recorder):
    """Passes until ``seconds`` elapsed; traced runs alternate passes.

    Garbage from the previous pass is collected before each pass, so
    peak memory is one pass's working set whatever the run length.
    """
    from spans import NULL

    passes = []
    begin = time.perf_counter()
    jobs = 0
    while True:
        trace_this = traced and len(passes) % 2 == 1
        gc.collect()
        result = workload.run_pass(recorder if trace_this else NULL,
                                   trace_this)
        passes.append((trace_this, result))
        jobs += result.attempted
        if (time.perf_counter() - begin >= seconds
                and jobs >= MIN_JOB_SAMPLES
                and (not traced or len(passes) >= 2)):
            return passes


def check_determinism(passes) -> None:
    """Every pass runs the same jobs: simulated results must repeat.

    A mismatch is recorded as a failure of the later pass's job.
    """
    first = passes[0][1]
    for _, result in passes[1:]:
        for job_id, cycles in result.sim_cycles.items():
            expected = first.sim_cycles.get(job_id)
            if expected is not None and cycles != expected:
                result.failures.append((job_id, (
                    f"simulated cycles {cycles} differ from the first "
                    f"pass's {expected}")))
    traced = [result for is_traced, result in passes if is_traced]
    for result in traced[1:]:
        if result.layer != traced[0].layer:
            result.failures.append(("-", "per-layer counts differ from "
                                    "the first traced pass's"))


def failed_jobs(result) -> int:
    return len({job_id for job_id, _ in result.failures})


def ok_jobs_per_s(results) -> float:
    ok = sum(r.attempted - failed_jobs(r) for r in results)
    return ok / sum(r.wall_s for r in results)


def windows(results):
    """Consecutive passes in groups of at least MIN_JOB_SAMPLES jobs.

    A short tail joins the last group, so every group has enough jobs
    for ten to fall beyond its p95.
    """
    groups, current = [], []
    for result in results:
        current.append(result)
        if sum(r.attempted for r in current) >= MIN_JOB_SAMPLES:
            groups.append(current)
            current = []
    if current and groups:
        groups[-1] += current
    elif current:
        groups.append(current)
    return groups


def end_to_end_metrics(passes, setup_samples):
    """Host figures are medians over windows of >= 200 jobs: a slow
    spell of the host moves them less than it moves a whole-run
    figure."""
    from workloads import percentile

    results = [result for _, result in passes]
    groups = windows(results)

    def window_median(percent):
        return statistics.median(
            percentile([ms for r in group for ms in r.host_ms.values()],
                       percent)
            for group in groups)

    sim = list(results[0].sim_cycles.values())
    attempted = sum(r.attempted for r in results)
    failed = sum(failed_jobs(r) for r in results)
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": statistics.median(
            ok_jobs_per_s(group) for group in groups),
        "job_p50_ms": window_median(50),
        "job_p95_ms": window_median(95),
        "sim_job_p50_cycles": percentile(sim, 50),
        "sim_job_p95_cycles": percentile(sim, 95),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (attempted - failed) / attempted,
    }, sum(len(r.host_ms) for r in results), len(groups)


def per_layer_metrics(passes, recorder):
    traced = [r for is_traced, r in passes if is_traced]
    untraced = [r for is_traced, r in passes if not is_traced]
    jobs = sum(r.attempted for r in traced)
    wall = sum(r.wall_s for r in traced)
    self_s = recorder.self_seconds()
    # layers a workload never calls report 0
    metrics = {metric: 0.0 for metric in metric_units("per_layer")}
    metrics.update(traced[0].layer)
    for span, metric in LAYER_SPANS.items():
        metrics[metric] = 1e3 * self_s.get(span, 0.0) / jobs
    layer_s = sum(self_s.get(span, 0.0) for span in LAYER_SPANS)
    glue_s = (wall - recorder.root_seconds()
              + sum(self_s.get(span, 0.0) for span in GLUE_SPANS))
    run_s = self_s.get("sim.run", 0.0) / len(traced)
    metrics.update({
        "sim.epochs": recorder.count("sim.run") / len(traced),
        "sim.cycles_per_s": metrics["sim.cycles"] / run_s,
        "sim.ticked_per_s": metrics["sim.ticked"] / run_s,
        "trace.jobs_per_s": ok_jobs_per_s(traced),
        "trace.untraced_jobs_per_s": ok_jobs_per_s(untraced),
        "trace.wall_ms": 1e3 * wall / jobs,
        "trace.glue_ms": 1e3 * glue_s / jobs,
        "trace.coverage": (layer_s + glue_s) / wall,
    })
    metrics["trace.overhead"] = (metrics["trace.untraced_jobs_per_s"]
                                 / metrics["trace.jobs_per_s"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not REPRO.is_dir():
        print(f"perfbench: no repro package at {REPRO}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import SpanRecorder

    workload = workloads.make_workload(args.workload, args.seed)
    workload.cold_job()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [cold_setup_seconds(args.workload, args.seed)
                          for _ in range(COLD_SETUPS)]

    recorder = SpanRecorder() if args.trace else None
    passes = run_passes(workload, args.seconds, bool(args.trace), recorder)
    check_determinism(passes)
    for index, (_, result) in enumerate(passes):
        for job_id, reason in result.failures:
            print(f"FAIL workload={args.workload} seed={args.seed} "
                  f"pass={index} job={job_id}: {reason}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(passes, recorder)
        units = metric_units("per_layer")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        recorder.write(str(out / f"spans-{args.workload}-{args.seed}.json"))
        samples = f"{len(recorder.spans)} spans"
    else:
        values, count, groups = end_to_end_metrics(passes, setup_samples)
        units = metric_units("end_to_end")
        samples = (f"{count} timed jobs in {groups} windows, "
                   f"{len(setup_samples)} set-ups")
    attempted = sum(r.attempted for _, r in passes)
    failed = sum(failed_jobs(r) for _, r in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {samples}, {failed}/{attempted} failed")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
