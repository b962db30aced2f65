"""Bilateral alternating-offers state machine.

Each round one party acts: it either opens with an offer or responds to the
standing offer. A response is withdraw (past its deadline), accept (the
incoming offer beats the counter it was about to send) or a counteroffer;
:func:`respond` is that law, and :func:`run_session` applies it to the
utilities the trace recorded when each offer was scored.
On top of the response function sit the early-termination rules: an incoming
offer that picks one of the receiver's zero-rated options, a strictly
diverging utility trend, or a predictor verdict that the thread cannot
become profitable before the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

from .domain import (
    InvalidOfferError,
    NegotiationError,
    OfferVector,
    PreferenceProfile,
    is_int,
    total_profit,
)
from .prediction import advise
from .tactics import OfferTable, Tactic

DEFAULT_MAX_ROUNDS = 100
DEFAULT_DIVERGENCE_WINDOW = 3


class SetupError(NegotiationError):
    """The two parties cannot negotiate (e.g. incompatible issue alphabets)."""


class TraceRow(NamedTuple):
    round: int
    proposer: str  # the acting party
    offer: OfferVector
    utility_proposer: float  # offer's value under the acting party's profile
    utility_receiver: float  # offer's value under the other party's profile
    action: str  # offer | accept | withdraw | terminate-<reason>


class SessionTrace:
    """Append-only per-round record of offers and actions."""

    def __init__(self) -> None:
        self._rows: list[TraceRow] = []
        self.metadata: dict = {"fallbacks": []}

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        return tuple(self._rows)

    def append(self, row: TraceRow) -> None:
        if row.round != len(self._rows):
            raise NegotiationError(
                f"trace rounds must be contiguous: got {row.round}, expected {len(self._rows)}"
            )
        self._rows.append(row)

    def note_fallback(self, agent_id: str, reason: str) -> None:
        self.metadata["fallbacks"].append((agent_id, len(self._rows), reason))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRow]:
        return iter(self._rows)

    def __reversed__(self) -> Iterator[TraceRow]:
        return reversed(self._rows)


@dataclass
class NegotiationState:
    round: int = 0


@dataclass(frozen=True)
class Withdraw:
    party: str


@dataclass(frozen=True)
class Accept:
    offer: OfferVector  # the opponent's last offer, unchanged


@dataclass(frozen=True)
class Offer:
    counter: OfferVector


Response = Withdraw | Accept | Offer


@dataclass(frozen=True)
class SessionOutcome:
    kind: str  # agreement | withdrawal | deadline-expiry | early-termination
    round: int
    offer: OfferVector | None = None
    party: str | None = None  # who withdrew / terminated
    reason: str | None = None  # early-termination reason
    utilities: Mapping[str, float] = field(default_factory=dict)


def respond(
    profile: PreferenceProfile,
    state: NegotiationState,
    incoming: OfferVector,
    planned_counter: OfferVector,
) -> Response:
    """The three-way response function; branches are exclusive and exhaustive.

    Withdraw once past the deadline; accept only on strict utility dominance
    of the incoming offer over the planned counter; otherwise counteroffer.
    A malformed offer raises :class:`~negosim.domain.InvalidOfferError`.
    """
    if state.round > profile.deadline:
        return Withdraw(party=profile.agent_id)
    if total_profit(profile, incoming) > total_profit(profile, planned_counter):
        return Accept(offer=incoming)
    return Offer(counter=planned_counter)


def check_termination(
    trace: SessionTrace,
    profile: PreferenceProfile,
    window: int = DEFAULT_DIVERGENCE_WINDOW,
) -> str | None:
    """Early-termination rules, judged from the receiving agent's standpoint.

    Returns ``"threshold"`` when the latest incoming offer picks an option
    the agent rates zero, ``"diverging"`` when the last ``window`` incoming
    offers are strictly losing value, else ``None`` (continue). A trend
    needs two offers, so a window below 2 never diverges. The walk back
    through the trace ends at the first incoming offer that breaks the trend.
    """
    me = profile.agent_id
    latest = None
    losing = 0  # the latest incoming offers, over which the utility fell at every step
    newer = 0.0  # the utility of the offer counted last
    for row in reversed(trace._rows):
        if row.proposer == me or row.action != "offer":
            continue
        if latest is None:
            latest = row.offer
        elif not row.utility_receiver > newer:  # the newer offer lost nothing: no trend
            break
        losing += 1
        newer = row.utility_receiver
        if losing >= window:
            break
    if latest is None:
        return None
    for issue in profile.issues:
        if latest.choices[issue.name] in issue.zero_rated_labels:
            return "threshold"
    if window >= 2 and losing >= window:
        return "diverging"
    return None


def settings_problems(max_rounds, divergence_window) -> list[str]:
    """Every problem with a session's ``max_rounds`` and ``divergence_window``."""
    problems = []
    if not is_int(max_rounds) or max_rounds < 0:
        problems.append(f"max_rounds must be an integer >= 0, got {max_rounds!r}")
    if not is_int(divergence_window) or not (divergence_window == 0 or divergence_window >= 2):
        problems.append(
            f"divergence_window must be 0 (off) or an integer >= 2, got {divergence_window!r}"
        )
    return problems


def _check_alphabets(a: PreferenceProfile, b: PreferenceProfile) -> None:
    # each issue's label lookup, whose keys view compares as the set of its labels
    menu_a = {issue.name: issue._by_label.keys() for issue in a.issues}
    menu_b = {issue.name: issue._by_label.keys() for issue in b.issues}
    if menu_a != menu_b:
        raise SetupError(
            f"profiles {a.agent_id!r} and {b.agent_id!r} do not share an issue/option alphabet"
        )


def run_session(
    profile_a: PreferenceProfile,
    profile_b: PreferenceProfile,
    tactic_a: Tactic,
    tactic_b: Tactic,
    predictor_config=None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    opener: str | None = None,
    divergence_window: int = DEFAULT_DIVERGENCE_WINDOW,
    tables: dict | None = None,
) -> tuple[SessionOutcome, SessionTrace]:
    """Run one bilateral session to completion.

    Nothing in a session is random: the profiles, tactics and settings fix
    it, so equal inputs give identical sessions.

    ``predictor_config`` (a :class:`negosim.prediction.PredictorConfig` or a
    mapping ``{agent_id: config}``) arms per-agent behavior prediction.
    Check order on a responding turn: deadline withdrawal, threshold /
    divergence termination, the predictor, then accept-or-counter. The
    predictor is a gate and a fit: a predicting party consults
    :func:`~negosim.prediction.advise`, which fits the opponent's offers in
    the trace, only once it answers its ``warmup``-th offer and only when
    the offer answered is at or below its reservation. Proposers alternate,
    so at round r a party answers its (r + 1) // 2-th offer and warm-up
    ends at round 2 * warmup - 1.
    ``max_rounds`` and ``divergence_window`` must pass :func:`settings_problems`.
    Each party's :class:`~negosim.tactics.OfferTable` is built before round 0,
    so a profile it rejects raises :class:`~negosim.domain.InvalidProfileError`
    even when no round is played.

    ``tables`` is a dict the caller keeps across sessions over the same
    profile objects: a party's table is ``tables[id(profile)]`` when that
    table's ``profile`` is the party's profile, and is otherwise built and
    stored there. Left ``None``, the dict is this call's own, so a lone
    session keeps no table. The tables live as long as the caller's dict,
    and so does every offer they scored, a custom tactic's fresh offers
    among them.
    """
    _check_alphabets(profile_a, profile_b)
    ids = (profile_a.agent_id, profile_b.agent_id)
    if ids[0] == ids[1]:
        raise SetupError("the two parties must have distinct agent ids")
    if opener is None:
        opener = ids[0]
    if opener not in ids:
        raise SetupError(f"opener {opener!r} is not one of the parties")
    for problem in settings_problems(max_rounds, divergence_window):
        raise SetupError(problem)

    if tables is None:
        tables = {}
    # per party, opener first: its offer table, its tactic, the first round its
    # predictor may advise on (max_rounds, never, for no predictor), its profile,
    # its agent id and the other party's table
    sides = []
    for profile, tactic in ((profile_a, tactic_a), (profile_b, tactic_b)):
        config = predictor_config
        if isinstance(config, Mapping):
            config = config.get(profile.agent_id)
        advised_from = 2 * config.warmup - 1 if config is not None and config.enabled else max_rounds
        table = tables.get(id(profile))
        if table is None or table.profile is not profile:
            table = tables[id(profile)] = OfferTable(profile)
        sides.append((table, tactic, advised_from, profile, profile.agent_id))
    first, second = sides if opener == ids[0] else sides[::-1]
    sides = ((*first, second[0]), (*second, first[0]))

    trace = SessionTrace()
    # rows go straight onto the trace's list: this loop numbers them contiguously
    append, new_row = trace._rows.append, tuple.__new__
    standing = None  # the offer on the table, worth mine to me and theirs to its proposer
    for round_no in range(max_rounds):
        table, tactic, advised_from, profile, me, other = sides[round_no & 1]
        try:
            planned = tactic.propose(table, trace, round_no)
            # a malformed counter is a protocol violation by its proposer
            own, their = table.utility(planned), other.utility(planned)  # to me, to the other
        except InvalidOfferError:
            return SessionOutcome(kind="withdrawal", round=round_no, party=me), trace

        if standing is not None:
            # respond()'s law, on the utilities recorded when each offer was scored
            outcome = None
            if round_no > profile.deadline:
                action = "withdraw"
                outcome = SessionOutcome(kind="withdrawal", round=round_no, party=me)
            else:
                reason = check_termination(trace, profile, divergence_window)
                if (
                    reason is None
                    and round_no >= advised_from
                    and mine <= table.reservation
                    and advise(trace, table).kind == "terminate-unprofitable"
                ):
                    reason = "unprofitable"
                if reason is not None:
                    action = f"terminate-{reason}"
                    outcome = SessionOutcome(
                        kind="early-termination", round=round_no, party=me, reason=reason
                    )
                elif mine > own:
                    action = "accept"
                    outcome = SessionOutcome(
                        kind="agreement",
                        round=round_no,
                        offer=standing,
                        utilities={a: mine if a == me else theirs for a in ids},
                    )
            if outcome is not None:  # the terminal row restates the standing offer from this side
                append(new_row(TraceRow, (round_no, me, standing, mine, theirs, action)))
                return outcome, trace

        append(new_row(TraceRow, (round_no, me, planned, own, their, "offer")))
        standing, theirs, mine = planned, own, their
    return SessionOutcome(kind="deadline-expiry", round=max_rounds), trace
