"""Run one workload of the negosim benchmark; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: negosim is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics for ``--seconds``. ``--trace 1``
runs the untraced loop for half of ``--seconds``, replays the same units
with every layer traced, and reports the per-layer metrics. Exit codes:
0 outputs correct, 1 outputs incorrect, 2 no negosim sources, 3 inputs
not what the workload claims.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (ROOT / "src" / "negosim" / "__init__.py").is_file():
        print(f"perfbench: no negosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import negosim  # noqa: F401  (its import time is part of set-up)

    from perfbench import measure, workloads
    from perfbench.tracing import Tracer

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        try:
            workload, ledger, problems, setup_times = measure.set_up(args.workload, args.seed, out_dir)
        except workloads.WorkloadError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        units = itertools.cycle(range(workload.units))
        if args.trace == 0:
            passes = [measure.run_units(workload, ledger, units, args.seconds)]
        else:
            untraced = measure.run_units(workload, ledger, units, args.seconds / 2)
            with Tracer() as setup_tracer:
                workloads.make(args.workload, args.seed, out_dir)
            with Tracer() as tracer:
                passes = [untraced, measure.run_units(workload, ledger, untraced.keys)]
        problems += workload.run_problems(passes[0].reports)
        for tally in passes:
            problems += tally.problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if any(tally.sessions == 0 for tally in passes):
        shown = problems[: measure.MAX_PROBLEMS_SHOWN]
        print(f"perfbench: no {args.workload} unit completed", *shown, sep="\n  ", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics = measure.end_to_end(passes[0], import_s + statistics.median(setup_times))
    else:
        metrics = measure.per_layer(passes[1], tracer, setup_tracer, passes[0].wall_s)
    attempted = sum(t.attempted for t in passes)
    failed = sum(t.failed for t in passes)
    correct = not problems and failed == 0
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}", file=sys.stderr)
    print(f"  environment: {json.dumps(measure.environment())}", file=sys.stderr)
    print(
        f"  sessions: {attempted} attempted, {failed} failed, error_rate {failed / attempted:g},"
        f" {len(passes[0].samples_ms)} latency samples",
        file=sys.stderr,
    )
    measure.describe(metrics)
    for problem in problems[: measure.MAX_PROBLEMS_SHOWN]:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
