"""Scenario loading, batch execution and trace/statistics emission.

Scenario files are YAML with a versioned schema: a shared issue alphabet,
per-agent private ratings/weights/tactics, and an optional one-to-many
coordination section. Batches are deterministic: nothing in a session is
random, and output files are byte-stable.
"""

from __future__ import annotations

import csv
import io
import re
import stat
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import yaml

from .coordination import (
    ContractChoice,
    CoordinationPlan,
    PlanError,
    SubBuyerResult,
    run_one_to_many,
)
from .domain import (
    Issue,
    IssueOption,
    InvalidProfileError,
    NegotiationError,
    PreferenceProfile,
    float_sum,
    is_int,
    is_number,
    make_profile,
    unknown_keys,
    validate_profile,
)
from .prediction import PredictorConfig
from .protocol import (
    DEFAULT_DIVERGENCE_WINDOW,
    DEFAULT_MAX_ROUNDS,
    SessionOutcome,
    SessionTrace,
    run_session,
    settings_problems,
)
from .tactics import ParameterError, Tactic, TimeDependentTactic, tactic_from_dict

SCHEMA_VERSION = 1
MODES = ("bilateral", "one-to-many")
# the keys of each mapping a scenario file holds; tactics and predictors check their own
_TOP_LEVEL_KEYS = (
    "schema_version", "seed", "mode", "opener", "max_rounds", "divergence_window",
    "issues", "agents", "coordination",
)
_ISSUE_KEYS = ("name", "options")
_AGENT_KEYS = (
    "id", "role", "deadline", "reservation_utility", "weights", "ratings", "tactic", "predictor",
)
_COORDINATION_KEYS = ("buyer", "suppliers", "strategy", "theta")


class ScenarioError(NegotiationError):
    """A scenario file failed to parse or validate; carries every violation."""

    def __init__(self, path: str, violations: Sequence[str]):
        self.violations = list(violations)
        detail = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"invalid scenario {path!r}:\n{detail}")


@dataclass(frozen=True)
class AgentSpec:
    id: str
    profile: PreferenceProfile
    tactic: Tactic
    predictor: PredictorConfig


@dataclass(frozen=True)
class Scenario:
    seed: int
    mode: str
    opener: str
    max_rounds: int
    agents: tuple[AgentSpec, ...]
    divergence_window: int = DEFAULT_DIVERGENCE_WINDOW
    plan: CoordinationPlan | None = None
    buyer_id: str | None = None
    supplier_ids: tuple[str, ...] = ()

    def agent(self, agent_id: str) -> AgentSpec:
        for spec in self.agents:
            if spec.id == agent_id:
                return spec
        raise ScenarioError("<scenario>", [f"unknown agent {agent_id!r}"])

    def with_prediction(self, enabled: bool) -> "Scenario":
        agents = tuple(
            replace(spec, predictor=replace(spec.predictor, enabled=enabled))
            for spec in self.agents
        )
        return replace(self, agents=agents)


def bundled_scenario(name: str) -> Path:
    """Path of a scenario file shipped with the package."""
    return Path(resources.files("negosim") / "scenarios" / name)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


class _SafeLoader(yaml.SafeLoader):
    """The pure-Python safe loader, rejecting lone surrogate escapes as libyaml does.

    A string such as ``"\\ud800"`` cannot be written as UTF-8, so as a label it
    would crash the trace writer.
    """

    def construct_yaml_str(self, node):
        value = super().construct_yaml_str(node)
        if _SURROGATE.search(value):
            raise yaml.constructor.ConstructorError(
                None, None, "found a lone surrogate escape", node.start_mark
            )
        return value


_SafeLoader.add_constructor("tag:yaml.org,2002:str", _SafeLoader.construct_yaml_str)
# PyYAML's libyaml-based safe loader builds the same objects several times faster
_SAFE_LOADER = getattr(yaml, "CSafeLoader", _SafeLoader)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), ["file does not exist"])
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(path), [f"cannot read the file: {exc}"]) from exc
    try:
        raw = yaml.load(text, Loader=_SAFE_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. a date such as 2020-02-30
        raise ScenarioError(str(path), [f"YAML parse error: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(str(path), ["top level must be a mapping"])

    violations: list[str] = []
    _check_keys(raw, _TOP_LEVEL_KEYS, "top level", violations)
    if raw.get("schema_version") != SCHEMA_VERSION:
        violations.append(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    seed = raw.get("seed")
    if not is_int(seed):
        violations.append("seed is required and must be an integer (determinism contract)")
    mode = raw.get("mode", "bilateral")
    if mode not in MODES:
        violations.append(f"mode must be one of {MODES}, got {mode!r}")
    max_rounds = raw.get("max_rounds", DEFAULT_MAX_ROUNDS)
    divergence_window = raw.get("divergence_window", DEFAULT_DIVERGENCE_WINDOW)
    violations += settings_problems(max_rounds, divergence_window)

    alphabet: list[tuple[str, tuple[str, ...]]] = []
    issues_raw = raw.get("issues")
    if not isinstance(issues_raw, list) or not issues_raw:
        violations.append("issues: a non-empty list is required")
        issues_raw = []
    for entry in issues_raw:
        name = entry.get("name") if isinstance(entry, dict) else None
        options = entry.get("options") if isinstance(entry, dict) else None
        if name is None or not isinstance(options, list) or not options:
            violations.append(f"issue entry {entry!r} needs a name and a non-empty option list")
            continue
        if not _is_name(name):
            violations.append(f"issue name must be a non-empty string, got {name!r}")
            continue
        _check_keys(entry, _ISSUE_KEYS, f"issue {name!r}", violations)
        bad_labels = [label for label in options if not _is_name(label)]
        if bad_labels:
            violations.append(
                f"issue {name!r}: option labels must be non-empty strings, got {bad_labels!r}"
            )
            continue
        alphabet.append((name, tuple(options)))
    # every name the file lists, so a malformed issue entry is reported once
    declared = [entry.get("name") for entry in issues_raw if isinstance(entry, dict)]

    agents: list[AgentSpec] = []
    agents_raw = raw.get("agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        violations.append("agents: a non-empty list is required")
        agents_raw = []
    for entry in agents_raw:
        spec = _load_agent(entry, alphabet, declared, violations)
        if spec is not None:
            agents.append(spec)
    # every named agent, so one whose profile did not build is not also reported undeclared
    ids = [
        entry["id"] for entry in agents_raw if isinstance(entry, dict) and _is_name(entry.get("id"))
    ]
    if len(ids) != len(set(ids)):
        violations.append("agent ids must be unique")

    plan = None
    buyer_id = None
    supplier_ids: tuple[str, ...] = ()
    if mode == "bilateral":
        if len(agents_raw) != 2:
            violations.append(f"bilateral mode needs exactly 2 agents, got {len(agents_raw)}")
        if "coordination" in raw:  # read only in one-to-many mode, so it would mean nothing
            violations.append("coordination: only one-to-many mode reads this section")
    else:
        coord = raw.get("coordination")
        if not isinstance(coord, dict):
            violations.append("one-to-many mode requires a coordination section")
        else:
            _check_keys(coord, _COORDINATION_KEYS, "coordination", violations)
            buyer_id = coord.get("buyer")
            if buyer_id not in ids:
                violations.append(f"coordination buyer {buyer_id!r} is not a declared agent")
            suppliers = coord.get("suppliers", [])
            supplier_ids = tuple(suppliers) if isinstance(suppliers, list) else ()
            missing = [s for s in supplier_ids if s not in ids]
            if not isinstance(suppliers, list):
                violations.append(f"coordination suppliers must be a list, got {suppliers!r}")
            elif missing or not supplier_ids:
                violations.append(f"coordination suppliers invalid or empty (unknown: {missing})")
            if buyer_id in supplier_ids:
                violations.append(f"coordination suppliers must not name the buyer {buyer_id!r}")
            repeated = [s for i, s in enumerate(supplier_ids) if s in supplier_ids[:i]]
            if repeated:  # not a set: an entry may be an unhashable YAML list or mapping
                violations.append(f"coordination suppliers must be unique (repeated: {repeated})")
            try:
                plan = CoordinationPlan(
                    strategy=coord.get("strategy", ""), theta=coord.get("theta")
                )
            except PlanError as exc:
                violations.append(str(exc))

    if mode == "one-to-many":  # the buyer is the one party of every thread
        opener = raw.get("opener", buyer_id)
        if buyer_id in ids and opener != buyer_id:
            violations.append(
                f"opener {opener!r} must be the coordination buyer {buyer_id!r} in one-to-many mode"
            )
    else:
        opener = raw.get("opener", ids[0] if ids else None)
        if ids and opener not in ids:
            violations.append(f"opener {opener!r} is not a declared agent")

    if violations:
        raise ScenarioError(str(path), violations)
    return Scenario(
        seed=seed,
        mode=mode,
        opener=opener,
        max_rounds=max_rounds,
        agents=tuple(agents),
        divergence_window=divergence_window,
        plan=plan,
        buyer_id=buyer_id,
        supplier_ids=supplier_ids,
    )


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _check_keys(raw: dict, known: tuple[str, ...], where: str, violations: list[str]) -> None:
    unknown = unknown_keys(raw, known)
    if unknown:
        violations.append(f"{where}: unknown keys {unknown}")


def _mapping(entry: dict, key: str, agent_id: str, violations: list[str]) -> dict:
    value = entry.get(key, {})
    if isinstance(value, dict):
        return value
    violations.append(f"agent {agent_id!r}: {key} must be a mapping, got {value!r}")
    return {}


def _load_agent(entry, alphabet, declared, violations) -> AgentSpec | None:
    if not isinstance(entry, dict) or "id" not in entry:
        violations.append(f"agent entry {entry!r} needs an id")
        return None
    agent_id = entry["id"]
    if not _is_name(agent_id):
        violations.append(f"agent id must be a non-empty string, got {agent_id!r}")
        return None
    _check_keys(entry, _AGENT_KEYS, f"agent {agent_id!r}", violations)
    ratings = _mapping(entry, "ratings", agent_id, violations)
    undeclared = [name for name in ratings if name not in declared]
    if undeclared:
        violations.append(f"agent {agent_id!r}: ratings for undeclared issues {undeclared}")
    weights = _mapping(entry, "weights", agent_id, violations)
    deadline = entry.get("deadline", 0)
    if not is_int(deadline):
        violations.append(f"agent {agent_id!r}: deadline must be an integer, got {deadline!r}")
        deadline = 1  # stand-in so the rest of the profile is still checked
    reservation = entry.get("reservation_utility")
    if reservation is not None and not is_number(reservation):
        violations.append(
            f"agent {agent_id!r}: reservation_utility must be a number, got {reservation!r}"
        )
        reservation = None
    issues = []
    for name, labels in alphabet:
        issue_ratings = ratings.get(name)
        if not isinstance(issue_ratings, dict):
            violations.append(f"agent {agent_id!r}: missing ratings for issue {name!r}")
            continue
        extra = set(issue_ratings) - set(labels)
        if extra:
            unknown = sorted(extra, key=repr)  # YAML keys may mix types, e.g. 1 and "x"
            violations.append(
                f"agent {agent_id!r}: ratings for unknown options {unknown} of issue {name!r}"
            )
        options = []
        for label in labels:
            if label not in issue_ratings:
                violations.append(
                    f"agent {agent_id!r}: no rating for option {label!r} of issue {name!r}"
                )
                continue
            rating = issue_ratings[label]
            if not is_number(rating):
                violations.append(
                    f"agent {agent_id!r}: rating for option {label!r} of issue {name!r}"
                    f" must be a number, got {rating!r}"
                )
                continue
            options.append(IssueOption(label=label, rating=float(rating)))
        issues.append(Issue(name=name, options=tuple(options)))
    bad_weights = {k: v for k, v in weights.items() if not (isinstance(k, str) and is_number(v))}
    for name, value in bad_weights.items():
        if not isinstance(name, str):
            violations.append(f"agent {agent_id!r}: weights key {name!r} must be an issue name")
        else:
            violations.append(
                f"agent {agent_id!r}: weight of issue {name!r} must be a number, got {value!r}"
            )
    profile = None
    if not bad_weights:
        try:
            profile = make_profile(
                agent_id=agent_id,
                issues=issues,
                weights={k: float(v) for k, v in weights.items()},
                deadline=deadline,
                reservation_utility=None if reservation is None else float(reservation),
            )
        except InvalidProfileError as exc:
            violations.append(str(exc))
    # weights that cannot build the profile are listed above; the rest is still checked
    checked = profile or PreferenceProfile(agent_id, tuple(issues), {}, deadline, reservation)
    for problem in validate_profile(checked, check_weights=profile is not None):
        violations.append(f"agent {agent_id!r}: {problem}")
    try:
        tactic = tactic_from_dict(entry.get("tactic", {"family": "time-dependent"}))
    except ParameterError as exc:
        violations.append(f"agent {agent_id!r}: bad tactic spec ({exc})")
        tactic = TimeDependentTactic()
    try:
        predictor = PredictorConfig.from_dict(entry.get("predictor"))
    except ValueError as exc:
        violations.append(f"agent {agent_id!r}: bad predictor spec ({exc})")
        predictor = PredictorConfig()
    if profile is None:
        return None
    return AgentSpec(
        id=agent_id,
        profile=profile,
        tactic=tactic,
        predictor=predictor,
    )


@dataclass(frozen=True)
class SummaryStats:
    sessions: int
    agreements: int
    agreement_rate: float
    mean_rounds: float
    mean_utility: dict[str, float]
    early_terminations: int
    breakdowns: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SessionRecord:
    index: int
    outcome: SessionOutcome
    traces: tuple[tuple[str, SessionTrace], ...]  # (file stem, trace)
    contract: ContractChoice | None = None
    thread_results: tuple[SubBuyerResult, ...] = ()


@dataclass(frozen=True)
class BatchResult:
    stats: SummaryStats
    records: tuple[SessionRecord, ...]


def _run_bilateral(
    scenario: Scenario, index: int, a: AgentSpec, b: AgentSpec, tables: dict | None = None
) -> SessionRecord:
    outcome, trace = run_session(
        a.profile,
        b.profile,
        a.tactic,
        b.tactic,
        predictor_config={a.id: a.predictor, b.id: b.predictor},
        max_rounds=scenario.max_rounds,
        opener=scenario.opener,
        divergence_window=scenario.divergence_window,
        tables=tables,
    )
    return SessionRecord(
        index=index, outcome=outcome, traces=((f"session_{index:04d}", trace),)
    )


def _run_one_to_many(scenario: Scenario, index: int, tables: dict) -> SessionRecord:
    buyer = scenario.agent(scenario.buyer_id)
    suppliers = [scenario.agent(s) for s in scenario.supplier_ids]
    choice, results, traces = run_one_to_many(
        buyer.profile,
        buyer.tactic,
        [(s.profile, s.tactic) for s in suppliers],
        scenario.plan,
        max_rounds=scenario.max_rounds,
        predictor_config={spec.id: spec.predictor for spec in scenario.agents},
        divergence_window=scenario.divergence_window,
        tables=tables,
    )
    if choice is not None:
        utilities = results[choice.thread_id].outcome.utilities
        outcome = SessionOutcome(kind="agreement", round=choice.round, utilities=utilities)
    else:
        # how every thread ended, if they all ended the same way
        kinds = {r.outcome.kind for r in results}
        kind = kinds.pop() if len(kinds) == 1 else "withdrawal"
        outcome = SessionOutcome(kind=kind, round=max(r.completion_round for r in results))
    named = tuple(
        (f"session_{index:04d}_thread_{r.thread_id}", trace)
        for r, trace in zip(results, traces)
    )
    return SessionRecord(
        index=index,
        outcome=outcome,
        traces=named,
        contract=choice,
        thread_results=tuple(results),
    )


def run_batch(scenario: Scenario, n_sessions: int) -> BatchResult:
    """Run ``n_sessions`` deterministic sessions and aggregate the results.

    Every session plays the scenario's profile objects, so they share one
    offer table per profile (``run_session``'s ``tables``): a repeated pick
    is decoded, and an offer scored, once per batch. The tables are freed
    when this call returns; the result holds only the records.
    """
    if not is_int(n_sessions) or n_sessions < 1:
        raise NegotiationError(f"n_sessions must be an integer >= 1, got {n_sessions!r}")
    records = []
    tables = {}
    for i in range(n_sessions):
        if scenario.mode == "bilateral":
            records.append(_run_bilateral(scenario, i, *scenario.agents, tables=tables))
        else:
            records.append(_run_one_to_many(scenario, i, tables))
    return BatchResult(stats=_aggregate(scenario, records), records=tuple(records))


def _aggregate(scenario: Scenario, records: Sequence[SessionRecord]) -> SummaryStats:
    n = len(records)
    agreements = sum(1 for r in records if r.outcome.kind == "agreement")
    early = sum(1 for r in records if r.outcome.kind == "early-termination")
    breakdowns = n - agreements - early
    mean_rounds = sum(r.outcome.round for r in records) / n
    mean_utility = {}
    for spec in scenario.agents:
        total = float_sum(r.outcome.utilities.get(spec.id, 0.0) for r in records)
        mean_utility[spec.id] = total / n
    return SummaryStats(
        sessions=n,
        agreements=agreements,
        agreement_rate=agreements / n,
        mean_rounds=mean_rounds,
        mean_utility=mean_utility,
        early_terminations=early,
        breakdowns=breakdowns,
    )


def compare_prediction(scenario: Scenario, n_sessions: int) -> dict:
    """Paired runs of the same sessions: prediction disabled vs as configured."""
    off = run_batch(scenario.with_prediction(False), n_sessions)
    on = run_batch(scenario, n_sessions)
    deltas = {
        "agreement_rate": on.stats.agreement_rate - off.stats.agreement_rate,
        "mean_rounds": on.stats.mean_rounds - off.stats.mean_rounds,
        "mean_utility": {
            agent: on.stats.mean_utility[agent] - off.stats.mean_utility[agent]
            for agent in on.stats.mean_utility
        },
    }
    return {"off": off, "on": on, "deltas": deltas}


def trace_csv(trace: SessionTrace, session_index: int, issue_names: Sequence[str]) -> str:
    """Render one session trace as CSV: one row per executed round."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["session", "round", "proposer", *issue_names, "utility_self", "utility_opponent_observed", "action"]
    )
    for row in trace.rows:
        writer.writerow(
            [
                session_index,
                row.round,
                row.proposer,
                *[row.offer.choices[name] for name in issue_names],
                repr(row.utility_proposer),
                repr(row.utility_receiver),
                row.action,
            ]
        )
    return buffer.getvalue()


def _outcome_dict(record: SessionRecord) -> dict:
    out = {
        "session": record.index,
        "kind": record.outcome.kind,
        "round": record.outcome.round,
        "party": record.outcome.party,
        "reason": record.outcome.reason,
        "utilities": dict(record.outcome.utilities),
    }
    if record.contract is not None:
        out["contract"] = {
            "thread": record.contract.thread_id,
            "supplier": record.contract.supplier_id,
            "round": record.contract.round,
            "utility": record.contract.utility,
        }
    return out


def write_outputs(
    scenario: Scenario, result: BatchResult, out_dir: str | Path, traces: bool = True
) -> list[Path]:
    """Write per-session trace CSVs plus stats.yaml; byte-stable across runs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    issue_names = [issue.name for issue in scenario.agents[0].profile.issues]
    written = []
    if traces:
        for record in result.records:
            for stem, trace in record.traces:
                path = out_dir / f"{stem}.csv"
                _write_new(path, trace_csv(trace, record.index, issue_names))
                written.append(path)
    stats = {
        "schema_version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "mode": scenario.mode,
        **result.stats.to_dict(),
        "outcomes": [_outcome_dict(record) for record in result.records],
    }
    stats_path = out_dir / "stats.yaml"
    _write_new(stats_path, yaml_text(stats))
    written.append(stats_path)
    return written


# libyaml's emitter writes the same bytes as the pure-Python one for strings of
# 1-64 printable ASCII characters; empty, non-ASCII, control and wrapping
# strings can come out differently, so those documents take the Python emitter
_C_DUMPER = getattr(yaml, "CSafeDumper", None)
_C_SAFE_STRING = re.compile(r"[ -~]{1,64}")


def _c_safe(data) -> bool:
    if isinstance(data, str):
        return _C_SAFE_STRING.fullmatch(data) is not None
    if isinstance(data, dict):
        return all(_c_safe(k) and _c_safe(v) for k, v in data.items())
    if isinstance(data, list):
        return all(map(_c_safe, data))
    return data is None or isinstance(data, (int, float))  # bool is an int


def yaml_text(data) -> str:
    """``data`` as ``yaml.safe_dump(data, sort_keys=True)`` writes it, byte for byte."""
    dumper = _C_DUMPER if _C_DUMPER is not None and _c_safe(data) else yaml.SafeDumper
    return yaml.dump(data, Dumper=dumper, sort_keys=True)


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, replacing a regular file instead of truncating it.

    ext4, XFS and btrfs start writeback when a file truncated to zero is
    closed; a new file skips that. A hard link to the old file keeps the old
    bytes. A symlink is written through, and a directory in the way raises.
    """
    try:
        if stat.S_ISREG(path.lstat().st_mode):
            path.unlink()
    except FileNotFoundError:
        pass
    path.write_text(text, encoding="utf-8")
