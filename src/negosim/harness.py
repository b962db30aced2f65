"""Scenario loading, batch execution and trace/statistics emission.

Scenario files are YAML with a versioned schema: a shared issue alphabet,
per-agent private ratings/weights/tactics, and an optional one-to-many
coordination section. Batches are deterministic: nothing in a session is
random, and output files are byte-stable.
"""

from __future__ import annotations

import functools
import os
import re
import stat
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import yaml

from .coordination import (
    STRATEGIES,
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
from .tactics import ParameterError, Tactic, tactic_from_dict

SCHEMA_VERSION = 1
MODES = ("bilateral", "one-to-many")
_REQUIRED = object()  # the default of a key a file must set


class _Field(NamedTuple):
    """How :func:`_fields` reads one key; ``accepts`` checks the type, and None takes any."""

    accepts: Callable[[object], bool] | None = None
    what: str = ""  # what an accepted value is, for the diagnostic
    default: object = _REQUIRED
    stand_in: object = None  # read after a violation, so the rest is still checked


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_mapping(value) -> bool:
    return isinstance(value, dict)


def _is_entries(value) -> bool:
    return isinstance(value, list) and value != []


# one table per mapping a scenario file holds; each tactic reads its own. No table
# states a range: settings_problems, validate_profile, PredictorConfig,
# CoordinationPlan and the tactics check theirs, for Python callers too
_TOP_LEVEL = {
    "schema_version": _Field(lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    "seed": _Field(is_int, "an integer"),
    "mode": _Field(MODES.__contains__, f"one of {MODES}", "bilateral"),  # unreadable: None
    "opener": _Field(_is_name, "an agent id", None),  # None: the mode picks the default
    "max_rounds": _Field(default=DEFAULT_MAX_ROUNDS),
    "divergence_window": _Field(default=DEFAULT_DIVERGENCE_WINDOW),
    "issues": _Field(_is_entries, "a non-empty list", stand_in=[]),
    "agents": _Field(_is_entries, "a non-empty list", stand_in=[]),
    "coordination": _Field(_is_mapping, "a mapping", None),
}
_ISSUE = {"name": _Field(), "options": _Field()}  # checked first, to name the issue
_AGENT = {
    "id": _Field(),  # checked first, to name the agent
    "role": _Field(lambda v: isinstance(v, str), "a string", None),
    "deadline": _Field(is_int, "an integer", stand_in=1),
    "reservation_utility": _Field(lambda v: v is None or is_number(v), "a number", None),
    "weights": _Field(_is_mapping, "a mapping", {}, {}),
    "ratings": _Field(_is_mapping, "a mapping", {}, {}),
    "tactic": _Field(default={"family": "time-dependent"}),
    "predictor": _Field(lambda v: v is None or _is_mapping(v), "a mapping", None),
}
_PREDICTOR = {field.name: _Field(default=field.default) for field in fields(PredictorConfig)}
_COORDINATION = {
    "buyer": _Field(default=None),  # it must name a declared agent
    "suppliers": _Field(_is_entries, "a list of one or more agent ids", stand_in=()),
    "strategy": _Field(what=f"one of {STRATEGIES}"),
    "theta": _Field(default=None),
}


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
    top = _fields(raw, _TOP_LEVEL, "top level", violations)
    mode, issues_raw, agents_raw = top["mode"], top["issues"], top["agents"]
    violations += settings_problems(top["max_rounds"], top["divergence_window"])

    alphabet: list[tuple[str, tuple[str, ...]]] = []
    for entry in issues_raw:
        name = entry.get("name") if isinstance(entry, dict) else None
        options = entry.get("options") if isinstance(entry, dict) else None
        if name is None or not _is_entries(options):
            violations.append(f"issue entry {entry!r} needs a name and a non-empty option list")
            continue
        if not _is_name(name):
            violations.append(f"issue name must be a non-empty string, got {name!r}")
            continue
        _fields(entry, _ISSUE, f"issue {name!r}", violations)
        bad_labels = [label for label in options if not _is_name(label)]
        if bad_labels:
            violations.append(
                f"issue {name!r}: option labels must be non-empty strings, got {bad_labels!r}"
            )
            continue
        alphabet.append((name, tuple(options)))
    # every name the file lists, so a malformed issue entry is reported once
    declared = [entry.get("name") for entry in issues_raw if isinstance(entry, dict)]

    # None for an agent that did not load, which always lists a violation
    agents = [_load_agent(entry, alphabet, declared, violations) for entry in agents_raw]
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
        if top["coordination"] is not None:  # only one-to-many mode reads it, so it means nothing
            violations.append("coordination: only one-to-many mode reads this section")
    elif mode is None:  # listed above; the rules that depend on the mode cannot be checked
        pass
    elif top["coordination"] is None:
        violations.append("one-to-many mode requires a coordination section")
    else:
        coord = _fields(top["coordination"], _COORDINATION, "coordination", violations)
        buyer_id = coord["buyer"]
        if buyer_id not in ids:
            violations.append(f"coordination buyer {buyer_id!r} is not a declared agent")
        supplier_ids = tuple(coord["suppliers"])
        unknown = [s for s in supplier_ids if s not in ids]
        if unknown:
            violations.append(f"coordination suppliers {unknown} are not declared agents")
        if buyer_id in supplier_ids:
            violations.append(f"coordination suppliers must not name the buyer {buyer_id!r}")
        repeated = [s for i, s in enumerate(supplier_ids) if s in supplier_ids[:i]]
        if repeated:  # not a set: an entry may be an unhashable YAML list or mapping
            violations.append(f"coordination suppliers must be unique (repeated: {repeated})")
        idle = [i for i in ids if i != buyer_id and i not in supplier_ids] if supplier_ids else []
        if idle:  # they would never negotiate, yet stats.yaml would list their mean utility
            violations.append(f"coordination: agents {idle} are neither the buyer nor a supplier")
        if "strategy" in top["coordination"]:  # left out, it is listed as required above
            try:
                plan = CoordinationPlan(strategy=coord["strategy"], theta=coord["theta"])
            except PlanError as exc:
                violations.append(str(exc))

    opener = top["opener"]
    if mode == "one-to-many":  # the buyer is the one party of every thread
        if opener is not None and buyer_id in ids and opener != buyer_id:
            violations.append(
                f"opener {opener!r} must be the coordination buyer {buyer_id!r} in one-to-many mode"
            )
        opener = buyer_id
    elif opener is None:
        opener = ids[0] if ids else None
    elif ids and opener not in ids:
        violations.append(f"opener {opener!r} is not a declared agent")

    if violations:
        raise ScenarioError(str(path), violations)
    return Scenario(
        seed=top["seed"],
        mode=mode,
        opener=opener,
        max_rounds=top["max_rounds"],
        agents=tuple(agents),
        divergence_window=top["divergence_window"],
        plan=plan,
        buyer_id=buyer_id,
        supplier_ids=supplier_ids,
    )


def _fields(raw: dict, table: dict[str, _Field], where: str, violations: list[str]) -> dict:
    """Every key of ``table`` read from the mapping ``raw``: a key left out (not one set to
    null) takes its default. A required key left out, a value the field does not accept and
    an unknown key are listed in ``violations``; the first two take the field's stand-in."""
    unknown = unknown_keys(raw, table)
    if unknown:
        violations.append(f"{where}: unknown keys {unknown}")
    values = {}
    for key, (accepts, what, default, stand_in) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            violations.append(f"{where}: {key} is required and must be {what}")
            value = stand_in
        elif key in raw and accepts is not None and not accepts(value):
            violations.append(f"{where}: {key} must be {what}, got {value!r}")
            value = stand_in
        values[key] = value
    return values


def _load_agent(entry, alphabet, declared, violations) -> AgentSpec | None:
    if not isinstance(entry, dict) or "id" not in entry:
        violations.append(f"agent entry {entry!r} needs an id")
        return None
    agent_id = entry["id"]
    if not _is_name(agent_id):
        violations.append(f"agent id must be a non-empty string, got {agent_id!r}")
        return None
    where = f"agent {agent_id!r}"
    agent = _fields(entry, _AGENT, where, violations)
    ratings, weights, deadline = agent["ratings"], agent["weights"], agent["deadline"]
    reservation = agent["reservation_utility"]
    undeclared = [name for name in ratings if name not in declared]
    if undeclared:
        violations.append(f"{where}: ratings for undeclared issues {undeclared}")
    issues = []
    for name, labels in alphabet:
        issue_ratings = ratings.get(name)
        if not isinstance(issue_ratings, dict):
            violations.append(
                f"{where}: ratings of issue {name!r} must be a mapping, got {issue_ratings!r}"
                if name in ratings
                else f"{where}: missing ratings for issue {name!r}"
            )
            continue
        extra = set(issue_ratings) - set(labels)
        if extra:
            unknown = sorted(extra, key=repr)  # YAML keys may mix types, e.g. 1 and "x"
            violations.append(f"{where}: ratings for unknown options {unknown} of issue {name!r}")
        options = []
        for label in labels:
            if label not in issue_ratings:
                violations.append(f"{where}: no rating for option {label!r} of issue {name!r}")
                continue
            rating = issue_ratings[label]
            if not is_number(rating):
                violations.append(
                    f"{where}: rating for option {label!r} of issue {name!r}"
                    f" must be a number, got {rating!r}"
                )
                continue
            options.append(IssueOption(label=label, rating=float(rating)))
        issues.append(Issue(name=name, options=tuple(options)))
    bad_weights = {k: v for k, v in weights.items() if not (isinstance(k, str) and is_number(v))}
    for name, value in bad_weights.items():
        if not isinstance(name, str):
            violations.append(f"{where}: weights key {name!r} must be an issue name")
        else:
            violations.append(f"{where}: weight of issue {name!r} must be a number, got {value!r}")
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
        violations.append(f"{where}: {problem}")
    tactic = predictor = None
    try:
        tactic = tactic_from_dict(agent["tactic"])
    except ParameterError as exc:
        violations.append(f"{where}: bad tactic spec ({exc})")
    settings = _fields(agent["predictor"] or {}, _PREDICTOR, f"{where}: predictor", violations)
    try:
        predictor = PredictorConfig(**settings)
    except ValueError as exc:
        violations.append(f"{where}: bad predictor spec ({exc})")
    if profile is None or tactic is None or predictor is None:
        return None
    return AgentSpec(id=agent_id, profile=profile, tactic=tactic, predictor=predictor)


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


# csv.writer's default quoting, except that it quotes "\r" only from Python 3.13 on
_QUOTED_CELL = re.compile(r'[,"\r\n]')


def _cell(value) -> str:
    """``value`` as one CSV cell: ``str()`` of it (None is empty), double-quoted
    with inner quotes doubled if it holds a comma, quote, CR or LF."""
    text = value if isinstance(value, str) else "" if value is None else str(value)
    if _QUOTED_CELL.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def trace_csv(trace: SessionTrace, session_index: int, issue_names: Sequence[str]) -> str:
    """Render one session trace as CSV: one row per executed round."""
    names = ",".join(map(_cell, issue_names))
    lines = [f"session,round,proposer,{names},utility_self,utility_opponent_observed,action\n"]
    # the trace holds its offers, so their ids are stable for this call
    offers: dict[int, str] = {}
    proposers: dict[str, str] = {}
    for round_, proposer, offer, u_p, u_r, action in trace:
        cells = offers.get(id(offer))
        if cells is None:
            choices = offer.choices
            cells = offers[id(offer)] = ",".join([_cell(choices[name]) for name in issue_names])
        who = proposers.get(proposer)
        if who is None:
            who = proposers[proposer] = _cell(proposer)
        lines.append(f"{session_index},{round_},{who},{cells},{u_p!r},{u_r!r},{action}\n")
    return "".join(lines)


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


# yaml_text writes the one document shape negosim emits itself, in the bytes of
# yaml.safe_dump(data, sort_keys=True): a non-empty mapping with string keys holding
# mappings, lists of mappings and scalars. safe_dump's representer and resolver walk
# every node in Python even when libyaml emits, which cost more than the writing
_PLAIN = re.compile(r"[A-Za-z][A-Za-z0-9_-]{0,63}")  # never wraps, never escaped
# the spellings PyYAML's resolver reads as a bool or null; it writes them single-quoted
_QUOTED = {
    spelling
    for word in ("yes", "no", "true", "false", "on", "off", "null")
    for spelling in (word, word.capitalize(), word.upper())
}
_NONFINITE = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}


class _OffShape(Exception):
    """The document holds a value :func:`yaml_text` leaves to ``yaml.safe_dump``."""


def _float_text(value: float) -> str:
    """``value`` as PyYAML's ``represent_float`` writes it."""
    text = repr(value)
    if "e" in text and "." not in text:  # 1e-05: the float tag needs a point
        return text.replace("e", ".0e", 1)
    return _NONFINITE.get(text, text)


@functools.lru_cache(maxsize=1024)  # a document repeats its keys and ids many times
def _str_text(text: str) -> str:
    if _PLAIN.fullmatch(text) is None:
        raise _OffShape  # so the string is not cached
    return f"'{text}'" if text in _QUOTED else text


# by exact type, so a subclass, such as a numpy scalar, is off shape
_SCALAR_TEXT = {
    str: _str_text,
    int: str,
    bool: lambda value: "true" if value else "false",
    float: _float_text,
    type(None): lambda value: "null",
}


def _block(mapping: dict, pad: str, out: list[str], seen: set[int]) -> None:
    """Append the lines of the non-empty ``mapping``, its keys indented by ``pad``."""
    for key in sorted(mapping):  # keys of mixed types: a TypeError, caught by _direct_text
        if type(key) is not str:
            raise _OffShape
        value = mapping[key]
        head = f"{pad}{_str_text(key)}:"
        write = _SCALAR_TEXT.get(type(value))
        if write is not None:
            out.append(f"{head} {write(value)}\n")
            continue
        if type(value) is not dict and type(value) is not list or id(value) in seen:
            raise _OffShape  # PyYAML writes a container met twice as an anchor and aliases
        seen.add(id(value))
        if not value:
            out.append(f"{head} {{}}\n" if type(value) is dict else f"{head} []\n")
            continue
        out.append(f"{head}\n")
        if type(value) is dict:
            _block(value, pad + "  ", out, seen)
            continue
        for item in value:  # sequence items sit at their key's indent
            if type(item) is not dict or id(item) in seen:
                raise _OffShape
            seen.add(id(item))
            if not item:
                out.append(f"{pad}- {{}}\n")
                continue
            first = len(out)
            _block(item, pad + "  ", out, seen)
            out[first] = f"{pad}- {out[first][len(pad) + 2:]}"


def _direct_text(data) -> str | None:
    """``data`` as the direct emitter writes it, or None if it is off that emitter's shape."""
    if type(data) is not dict or not data:
        return None
    out: list[str] = []
    try:
        _block(data, "", out, {id(data)})
    except (_OffShape, TypeError):
        return None
    return "".join(out)


def yaml_text(data) -> str:
    """``data`` as ``yaml.safe_dump(data, sort_keys=True)`` writes it, byte for byte."""
    text = _direct_text(data)
    return yaml.safe_dump(data, sort_keys=True) if text is None else text


def _write_new(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, replacing a regular file instead of truncating it.

    ext4, XFS and btrfs start writeback when a file truncated to zero is
    closed; a new file skips that. A hard link to the old file keeps the old
    bytes. A symlink is written through, and a directory in the way raises.
    Text that does not encode raises before any file is touched.
    """
    data = text.encode("utf-8")
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):  # os.write may write less than it is given
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)
