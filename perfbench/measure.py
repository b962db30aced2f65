"""Set-up, the timed closed loop, and the end-to-end and per-layer metrics.

One process, one client: each unit starts only after the previous one has
finished. End-to-end metrics come from a loop with tracing off. Per-layer
metrics come from a second pass that replays the same units under a
``Tracer``; per-layer counts and times are divided by the sessions in that
pass, so they compare across commits whatever the pass length.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import workloads
from .checks import FingerprintLedger, load_reference
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MAX_PROBLEMS_SHOWN = 10


@dataclass
class Tally:
    """What one pass of the loop ran and measured."""

    keys: list = field(default_factory=list)  # units in the order they ran
    attempted: int = 0
    failed: int = 0  # sessions that raised or failed a check
    sessions: int = 0  # sessions completed without raising
    wall_s: float = 0.0  # summed wall time of the completed units
    # per-session wall time, one sample per unit: the unit's time over its sessions
    samples_ms: list[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def total(self, attr: str) -> int:
        return sum(getattr(report, attr) for report in self.reports)


def run_units(workload, ledger: FingerprintLedger, keys, seconds: float | None = None) -> Tally:
    """Run units one after another, until ``keys`` ends or ``seconds`` have passed.

    Only ``workload.run`` is timed; checking its outputs happens between units.
    """
    tally = Tally()
    stop = None if seconds is None else time.perf_counter() + seconds
    for key in keys:
        if stop is not None and tally.keys and time.perf_counter() >= stop:
            break
        tally.keys.append(key)
        tally.attempted += workload.sessions_per_unit
        start = time.perf_counter()
        try:
            result = workload.run(key)
        except Exception:  # a unit that raises is counted as failed; measuring goes on
            tally.failed += workload.sessions_per_unit
            if not tally.problems:
                traceback.print_exc()
            tally.problems.append(f"unit {key} raised")
            continue
        elapsed = time.perf_counter() - start
        report, fp = workload.inspect(key, result)
        problems = report.violations + ledger.check(key, fp)
        if problems:
            tally.failed += report.sessions
            tally.problems += problems
        tally.sessions += report.sessions
        tally.wall_s += elapsed
        tally.samples_ms.append(1000.0 * elapsed / report.sessions)
        tally.reports.append(report)
    return tally


def set_up(name: str, seed: int, out_dir: Path, reps: int = SETUP_REPS):
    """Build the workload's inputs and run its warm-up units, ``reps`` times.

    Returns the last workload, its fingerprint ledger, the warm-up problems
    and the time of each repetition.
    """
    times, problems = [], []
    for _ in range(reps):
        start = time.perf_counter()
        workload = workloads.make(name, seed, out_dir)
        ledger = FingerprintLedger(load_reference(name, seed))
        warm = run_units(workload, ledger, workload.warmup_keys)
        times.append(time.perf_counter() - start)
        problems = warm.problems
    return workload, ledger, problems, times


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "sessions_per_s": (tally.sessions / tally.wall_s, "1/s"),
        "round_ms": (1000.0 * tally.wall_s / tally.total("rounds"), "ms"),
        "session_ms_p50": (statistics.median(tally.samples_ms), "ms"),
        "session_ms_p90": (p90(tally.samples_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced: Tally, tracer: Tracer, setup_tracer: Tracer, untraced_wall_s: float) -> dict:
    n = traced.sessions
    stats = tracer.stats

    def calls(name):
        return (stats[name].calls / n, "calls/session")

    def self_ms(name):
        return (1000.0 * stats[name].self_s / n, "ms/session")

    def ms_per_call(name):
        span = stats[name]
        return (1000.0 * span.total_s / span.calls if span.calls else 0.0, "ms/call")

    thread_rounds = traced.total("thread_rounds")
    return {
        "domain.enumerate_offers.calls": calls("domain.enumerate_offers"),
        "domain.enumerate_offers.self_ms": self_ms("domain.enumerate_offers"),
        "domain.enumerate_offers.ms_per_call": ms_per_call("domain.enumerate_offers"),
        "domain.offers_enumerated": (stats["domain.enumerate_offers"].items / n, "offers/session"),
        "domain.total_profit.calls": calls("domain.total_profit"),
        "domain.total_profit.self_ms": self_ms("domain.total_profit"),
        "domain.reservation_utility.calls": calls("domain.reservation_utility"),
        "domain.reservation_utility.self_ms": self_ms("domain.reservation_utility"),
        "tactics.propose.calls": calls("tactics.propose"),
        "tactics.propose.ms_per_call": ms_per_call("tactics.propose"),
        "tactics.offer_for_target.self_ms": self_ms("tactics.offer_for_target"),
        "tactics.behavior_target.self_ms": self_ms("tactics.behavior_target"),
        "tactics.fallback_notes": (traced.total("fallback_notes") / n, "notes/session"),
        "protocol.run_session.self_ms": self_ms("protocol.run_session"),
        "protocol.check_termination.calls": calls("protocol.check_termination"),
        "protocol.check_termination.self_ms": self_ms("protocol.check_termination"),
        "protocol.respond.self_ms": self_ms("protocol.respond"),
        "protocol.rounds": (traced.total("rounds") / n, "rows/session"),
        "prediction.advise.calls": calls("prediction.advise"),
        "prediction.advise.self_ms": self_ms("prediction.advise"),
        "prediction.advise.ms_per_call": ms_per_call("prediction.advise"),
        "prediction.select_model.calls": calls("prediction.select_model"),
        "prediction.select_model.self_ms": self_ms("prediction.select_model"),
        "prediction.estimate_crossing.self_ms": self_ms("prediction.estimate_crossing"),
        "prediction.terminations": (traced.total("predictor_terminations") / n, "ends/session"),
        "coordination.run_one_to_many.self_ms": self_ms("coordination.run_one_to_many"),
        "coordination.coordinate.self_ms": self_ms("coordination.coordinate"),
        "coordination.thread_rounds": (thread_rounds / n, "rows/session"),
        "coordination.useful_round_ratio": (
            traced.total("useful_thread_rounds") / thread_rounds if thread_rounds else 0.0,
            "ratio",
        ),
        "harness.load_scenario.self_ms": (
            1000.0 * setup_tracer.stats["harness.load_scenario"].self_s,
            "ms/setup",
        ),
        "harness.run_batch.self_ms": self_ms("harness.run_batch"),
        "harness.write_outputs.self_ms": self_ms("harness.write_outputs"),
        "harness.trace_csv.self_ms": self_ms("harness.trace_csv"),
        "harness.bytes_written": (traced.total("bytes_written") / n, "B/session"),
        "trace_overhead": (traced.wall_s / untraced_wall_s, "ratio"),
    }


def environment() -> dict:
    """Versions and hardware the numbers were measured with."""
    import numpy
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def describe(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.6g}  {unit}", file=sys.stderr)
