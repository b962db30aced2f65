"""The workloads: inputs made from a seed, one timed unit of work, and its report.

A unit is what the closed loop times in one step: one bilateral session on
the synthetic workloads, one ``run_batch`` plus ``write_outputs`` call on
``bundled``. Synthetic inputs are drawn in blocks of ``STRATA`` instances,
one draw per equal slice of each parameter range, so that any run covers
the ranges evenly and different seeds give comparable session mixes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

import negosim

from .checks import UTILITY_TOLERANCE, PartySpec, fingerprint, session_violations

DEFAULT_SEED = 1
STRATA = 16
PREDICTOR_WARMUP = 5

LARGE_ISSUES = 5
LARGE_OPTIONS = 5
LARGE_DEADLINE = 20
LARGE_POOL = 128

LONG_OPTIONS = 41
LONG_POOL = 256
LONG_MIN_MEAN_ROUNDS = 50

BUNDLED = ("aircraft.scenario", "disjoint.scenario", "aircraft_market.scenario")
BUNDLED_BATCH = 10


class WorkloadError(Exception):
    """The generated inputs are not what the workload claims to measure."""


@dataclass(frozen=True)
class Instance:
    """One synthetic bilateral session as plain data."""

    issues: tuple[tuple[str, tuple[str, ...]], ...]  # (issue name, option labels)
    parties: tuple[PartySpec, PartySpec]
    max_rounds: int


@dataclass
class UnitReport:
    sessions: int
    rounds: int = 0  # trace rows, sub-buyer threads included
    thread_rounds: int = 0  # trace rows of one-to-many sub-buyer threads
    useful_thread_rounds: int = 0  # of those, rows at or before the commit round
    fallback_notes: int = 0
    predictor_terminations: int = 0
    bytes_written: int = 0
    violations: list[str] = field(default_factory=list)

    def add(self, part: "UnitReport") -> None:
        """Fold in one session's (or sub-buyer thread's) report."""
        self.rounds += part.rounds
        self.fallback_notes += part.fallback_notes
        self.predictor_terminations += part.predictor_terminations
        self.violations += part.violations


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    draws: list[float] = []
    while len(draws) < count:
        cells = list(range(STRATA))
        rng.shuffle(cells)
        draws += [lo + (hi - lo) * (cell + rng.random()) / STRATA for cell in cells]
    return draws[:count]


def _weights(rng: random.Random, names) -> dict[str, float]:
    raw = [rng.uniform(1.0, 10.0) for _ in names]
    total = sum(raw)
    return {name: 100.0 * value / total for name, value in zip(names, raw)}


def _opposed_ratings(rng, labels, step, jitter):
    """Ratings that rise with rank for one party and fall for the other, over
    one zero-rated option both parties share. Ranks are a random permutation
    of the labels, so label order (the tie-break) carries no utility order."""
    order = list(labels)
    rng.shuffle(order)
    zero = order.pop()
    mine, theirs = {zero: 0.0}, {zero: 0.0}
    top = len(order)
    for rank, label in enumerate(order):
        mine[label] = step * (rank + 1) + rng.uniform(-jitter, jitter)
        theirs[label] = step * (top - rank) + rng.uniform(-jitter, jitter)
    return mine, theirs


def large_domain_instances(seed: int, count: int = LARGE_POOL) -> list[Instance]:
    """5 issues x 5 options (3125 offers), opposed ratings, deadline 20."""
    rng = random.Random(f"large_domain/{seed}")
    issues = tuple(
        (f"issue{i}", tuple(f"o{j}" for j in range(LARGE_OPTIONS))) for i in range(LARGE_ISSUES)
    )
    names = [name for name, _ in issues]
    betas = list(zip(_stratified(rng, count, 0.5, 2.0), _stratified(rng, count, 0.5, 2.0)))
    instances = []
    for beta_a, beta_b in betas:
        ratings_a, ratings_b = {}, {}
        for name, labels in issues:
            # +-8 around steps of 20 keeps each party's ranking of the options
            ratings_a[name], ratings_b[name] = _opposed_ratings(rng, labels, 20.0, 8.0)
        parties = (
            PartySpec("buyer", ratings_a, _weights(rng, names), LARGE_DEADLINE, beta_a),
            PartySpec("seller", ratings_b, _weights(rng, names), LARGE_DEADLINE, beta_b),
        )
        instances.append(Instance(issues, parties, max_rounds=2 * LARGE_DEADLINE))
    return instances


def long_horizon_instances(seed: int, count: int = LONG_POOL) -> list[Instance]:
    """One 41-option ladder, opposed ratings, deadline in [150, 250]."""
    rng = random.Random(f"long_horizon/{seed}")
    issues = (("price", tuple(f"p{j:02d}" for j in range(LONG_OPTIONS))),)
    deadlines = [int(d) for d in _stratified(rng, count, 150.0, 251.0)]
    betas = list(zip(_stratified(rng, count, 0.7, 1.5), _stratified(rng, count, 0.7, 1.5)))
    instances = []
    for deadline, (beta_a, beta_b) in zip(deadlines, betas):
        # +-1 around steps of 2.5 keeps the ladder strictly ordered
        ratings_a, ratings_b = _opposed_ratings(rng, issues[0][1], 2.5, 1.0)
        parties = (
            PartySpec("buyer", {"price": ratings_a}, {"price": 100.0}, deadline, beta_a),
            PartySpec("seller", {"price": ratings_b}, {"price": 100.0}, deadline, beta_b),
        )
        instances.append(Instance(issues, parties, max_rounds=2 * deadline))
    return instances


def build_profile(spec: PartySpec, issues) -> negosim.PreferenceProfile:
    return negosim.make_profile(
        spec.agent_id,
        [
            negosim.Issue(
                name, tuple(negosim.IssueOption(label, spec.ratings[name][label]) for label in labels)
            )
            for name, labels in issues
        ],
        spec.weights,
        spec.deadline,
    )


def _session_report(parties, outcome, trace) -> UnitReport:
    return UnitReport(
        sessions=1,
        rounds=len(trace),
        fallback_notes=len(trace.metadata["fallbacks"]),
        predictor_terminations=int(outcome.reason == "unprofitable"),
        violations=session_violations(parties, outcome, trace),
    )


class SyntheticWorkload:
    """Bilateral sessions called through ``run_session``; ``harness`` is bypassed."""

    sessions_per_unit = 1
    warmup_keys = (0,)

    def __init__(self, instances: list[Instance]):
        self.instances = instances
        self.predictor = negosim.PredictorConfig(enabled=True, warmup=PREDICTOR_WARMUP)
        self.sessions = []
        for inst in instances:
            a, b = inst.parties
            self.sessions.append(
                (
                    build_profile(a, inst.issues),
                    build_profile(b, inst.issues),
                    negosim.TimeDependentTactic(beta=a.beta),
                    negosim.TimeDependentTactic(beta=b.beta),
                    inst.max_rounds,
                )
            )
        self.units = len(self.sessions)

    def run(self, key):
        profile_a, profile_b, tactic_a, tactic_b, max_rounds = self.sessions[key]
        return negosim.run_session(
            profile_a,
            profile_b,
            tactic_a,
            tactic_b,
            predictor_config=self.predictor,
            max_rounds=max_rounds,
        )

    def inspect(self, key, result) -> tuple[UnitReport, list]:
        outcome, trace = result
        parties = {spec.agent_id: spec for spec in self.instances[key].parties}
        return _session_report(parties, outcome, trace), fingerprint(outcome)

    def run_problems(self, reports: list[UnitReport]) -> list[str]:
        return []


class LargeDomain(SyntheticWorkload):
    def __init__(self, seed: int):
        super().__init__(large_domain_instances(seed))
        expected = LARGE_OPTIONS**LARGE_ISSUES
        for profile_a, profile_b, *_ in self.sessions:
            for profile in (profile_a, profile_b):
                size = math.prod(len(issue.options) for issue in profile.issues)
                if size != expected:
                    raise WorkloadError(f"large_domain profile has {size} offers, not {expected}")


class LongHorizon(SyntheticWorkload):
    def __init__(self, seed: int):
        super().__init__(long_horizon_instances(seed))

    def run_problems(self, reports):
        mean = sum(r.rounds for r in reports) / max(len(reports), 1)
        if mean <= LONG_MIN_MEAN_ROUNDS:
            return [f"long_horizon sessions average {mean:.1f} rounds, not more than {LONG_MIN_MEAN_ROUNDS}"]
        return []


def parties_from_scenario_file(path) -> dict[str, PartySpec]:
    """Read the agents' ratings and weights straight from the YAML file."""
    raw = yaml.safe_load(Path(path).read_text())
    return {
        str(agent["id"]): PartySpec(
            agent_id=str(agent["id"]),
            ratings={
                str(issue): {str(label): float(r) for label, r in menu.items()}
                for issue, menu in agent["ratings"].items()
            },
            weights={str(issue): float(w) for issue, w in agent["weights"].items()},
            deadline=int(agent["deadline"]),
        )
        for agent in raw["agents"]
    }


class Bundled:
    """The shipped scenarios through ``run_batch`` and ``write_outputs(traces=True)``."""

    sessions_per_unit = BUNDLED_BATCH
    warmup_keys = range(len(BUNDLED))

    def __init__(self, seed: int, out_dir: Path):
        self.scenarios, self.parties, self.out_dirs = [], [], []
        for file_name in BUNDLED:
            path = negosim.bundled_scenario(file_name)
            self.scenarios.append(replace(negosim.load_scenario(path), seed=seed))
            self.parties.append(parties_from_scenario_file(path))
            self.out_dirs.append(Path(out_dir) / Path(file_name).stem)
        self.units = len(self.scenarios)

    def run(self, key):
        scenario = self.scenarios[key]
        result = negosim.run_batch(scenario, BUNDLED_BATCH)
        written = negosim.write_outputs(scenario, result, self.out_dirs[key], traces=True)
        return result, written

    def inspect(self, key, result) -> tuple[UnitReport, list]:
        batch, written = result
        parties = self.parties[key]
        report = UnitReport(
            sessions=len(batch.records), bytes_written=sum(p.stat().st_size for p in written)
        )
        fingerprints = []
        for record in batch.records:
            if record.thread_results:
                fingerprints.append(self._inspect_market(record, parties, report))
            else:
                (_, trace), = record.traces
                report.add(_session_report(parties, record.outcome, trace))
                fingerprints.append(fingerprint(record.outcome))
        return report, fingerprints

    @staticmethod
    def _inspect_market(record, parties, report: UnitReport) -> list:
        contract = record.contract
        for result, (_, trace) in zip(record.thread_results, record.traces):
            part = _session_report(parties, result.outcome, trace)
            report.add(part)
            report.thread_rounds += part.rounds
            report.useful_thread_rounds += sum(
                1 for row in trace.rows if contract is None or row.round <= contract.round
            )
        if contract is None:
            report.violations.append(f"session {record.index}: market did not commit to a contract")
            return fingerprint(record.outcome)
        winner = record.thread_results[contract.thread_id].outcome
        buyer = next(a for a in record.outcome.utilities if a != contract.supplier_id)
        if winner.kind != "agreement":
            report.violations.append(f"session {record.index}: contract on a thread without agreement")
        elif not math.isclose(
            contract.utility,
            parties[buyer].utility(winner.offer.choices),
            rel_tol=0.0,
            abs_tol=UTILITY_TOLERANCE,
        ):
            report.violations.append(f"session {record.index}: contract utility differs")
        return fingerprint(record.outcome, contract, winner.offer)

    def run_problems(self, reports):
        return []


WORKLOADS = ("bundled", "large_domain", "long_horizon")


def make(name: str, seed: int, out_dir: Path):
    """Build a workload's inputs; ``out_dir`` receives ``bundled``'s output files."""
    if name == "bundled":
        return Bundled(seed, out_dir)
    if name == "large_domain":
        return LargeDomain(seed)
    if name == "long_horizon":
        return LongHorizon(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
