"""Run workloads over several seeds and summarise each metric across the runs.

    python3 perfbench/sweep.py                      # every workload, seeds 1-10
    python3 perfbench/sweep.py --workloads long_horizon --seeds 1 2 3 --trace 1
    python3 perfbench/sweep.py --out perfbench/baseline.json

For every metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), with the unit.
Each run is a separate ``run.py`` process, run one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    from perfbench.measure import environment

    report = {"environment": environment(), "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        metrics = {}
        for trace in args.trace:
            results = [run_once(workload, seed, seconds, trace) for seed in args.seeds]
            if not all(r["correct"] for r in results):
                print(f"{workload}: incorrect outputs in trace {trace} runs", file=sys.stderr)
                return 1
            metrics.update(summarise(results))
        report["workloads"][workload] = metrics
        print(f"{workload} ({len(args.seeds)} seeds, {seconds:g} s each)")
        width = max(map(len, metrics))
        for name, m in metrics.items():
            print(
                f"  {name:<{width}}  median {m['median']:12.6g}  q1 {m['q1']:12.6g}"
                f"  q3 {m['q3']:12.6g}  spread {m['spread']:7.2%}  {m['unit']}"
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
