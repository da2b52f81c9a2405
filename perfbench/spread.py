"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py --runs 10 [--workloads NAME ...]
    python3 perfbench/spread.py --runs 10 --baseline perfbench/BASELINE.json

Runs ``run.py`` once per seed (seeds 1..runs) for each workload, with
the ``run_seconds`` of ``BENCHMARK.json``, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, against the metric's bound.
``--baseline`` adds one traced run per workload (seed 1) and writes
everything, with the traced layer shares, to a JSON file.  Exits 1 if
a run fails its checks or a spread (other than ``setup_s``) exceeds
its bound.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: shares of traced job time that a probe measured before this
#: benchmark existed; the baseline keeps them beside the traced shares
PROBE_SHARES = {
    "ocp_transfer": {"sim.run_ms": 0.78, "front_end_ms": 0.18},
    "mpsoc_stream": {"sim.run_ms": "most (kernel plus sched polling)"},
    "mpsoc_guarded": {"sched.submit_ms": 0.75},
}


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def layer_shares(metrics: dict) -> dict:
    """Shares of traced job time the workload descriptions predict."""
    value = {name: entry["value"] for name, entry in metrics.items()}
    wall = value["trace.wall_ms"]
    front_end = sum(value[name] for name in (
        "core.plan_ms", "core.encode_ms", "verify.verify_ms",
        "perfbound.bound_ms"))
    return {
        "sim.run_ms": value["sim.run_ms"] / wall,
        "front_end_ms": front_end / wall,
        "sched.submit_ms": value["sched.submit_ms"] / wall,
        "sched.drain_ms": value["sched.drain_ms"] / wall,
        "glue_ms": value["trace.glue_ms"] / wall,
    }


def main(argv=None) -> int:
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--baseline", help="write the results here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    ok = True
    end_to_end = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, 0) for seed in seeds]
        ok &= all(result["correct"] for result in results)
        end_to_end[workload] = {}
        print(f"{workload} ({args.runs} seeds)")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            end_to_end[workload][name] = stats
            verdict = ("ok" if stats["spread"] <= bound / 3 else
                       "within bound" if stats["spread"] <= bound else
                       "TOO WIDE")
            if name != "setup_s" and stats["spread"] > bound:
                ok = False
            print(f"  {name:<20} median {stats['median']:>12.6g}  "
                  f"q1 {stats['q1']:>12.6g}  q3 {stats['q3']:>12.6g}  "
                  f"spread {stats['spread']:.4f} / bound {bound}  {verdict}")
    if args.baseline:
        per_layer = {}
        for workload in args.workloads:
            traced = run_once(workload, seeds[0], 1)
            ok &= traced["correct"]
            per_layer[workload] = {
                "metrics": {name: entry["value"]
                            for name, entry in traced["metrics"].items()},
                "shares_of_traced_job_time": layer_shares(
                    traced["metrics"]),
                "probe_shares": PROBE_SHARES[workload],
            }
        payload = {
            "hardware": {"machine": platform.machine(),
                         "cpus": os.cpu_count(),
                         "python": platform.python_version()},
            "run_seconds": SPEC["run_seconds"],
            "seeds": seeds,
            "end_to_end": end_to_end,
            "per_layer_seed_1": per_layer,
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
