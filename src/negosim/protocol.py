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
from typing import Iterator, Mapping

from .domain import (
    InvalidOfferError,
    NegotiationError,
    OfferVector,
    PreferenceProfile,
    is_int,
    total_profit,
)
from .prediction import PredictorState, advise
from .tactics import OfferTable, Tactic

DEFAULT_MAX_ROUNDS = 100
DEFAULT_DIVERGENCE_WINDOW = 3


class SetupError(NegotiationError):
    """The two parties cannot negotiate (e.g. incompatible issue alphabets)."""


@dataclass(frozen=True)
class TraceRow:
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
    for row in reversed(trace):
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
    menu_a = {issue.name: set(issue.labels()) for issue in a.issues}
    menu_b = {issue.name: set(issue.labels()) for issue in b.issues}
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
) -> tuple[SessionOutcome, SessionTrace]:
    """Run one bilateral session to completion.

    Nothing in a session is random: the profiles, tactics and settings fix
    it, so equal inputs give identical sessions.

    ``predictor_config`` (a :class:`negosim.prediction.PredictorConfig` or a
    mapping ``{agent_id: config}``) arms per-agent behavior prediction.
    Check order on a responding turn: deadline withdrawal, threshold /
    divergence termination, predictor advice, then accept-or-counter.
    ``max_rounds`` and ``divergence_window`` must pass :func:`settings_problems`.
    Each party's :class:`~negosim.tactics.OfferTable` is built before round 0,
    so a profile it rejects raises :class:`~negosim.domain.InvalidProfileError`
    even when no round is played.
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

    # per party, opener first: its offer table, its tactic and its predictor
    sides = []
    for profile, tactic in ((profile_a, tactic_a), (profile_b, tactic_b)):
        config = predictor_config
        if isinstance(config, Mapping):
            config = config.get(profile.agent_id)
        predictor = PredictorState(config) if config is not None and config.enabled else None
        sides.append((OfferTable(profile), tactic, predictor))
    if opener != ids[0]:
        sides.reverse()

    trace = SessionTrace()
    standing: TraceRow | None = None  # the offer on the table, as its proposer recorded it
    for round_no in range(max_rounds):
        table, tactic, predictor = sides[round_no % 2]
        other = sides[1 - round_no % 2][0]
        profile = table.profile
        me = profile.agent_id
        try:
            planned = tactic.propose(table, trace, round_no)
            # a malformed counter is a protocol violation by its proposer
            planned_utilities = (table.utility(planned), other.utility(planned))
        except InvalidOfferError:
            return SessionOutcome(kind="withdrawal", round=round_no, party=me), trace

        if standing is not None:
            # respond()'s law, on the utilities recorded when each offer was scored
            mine, theirs = standing.utility_receiver, standing.utility_proposer
            outcome = None
            if round_no > profile.deadline:
                action = "withdraw"
                outcome = SessionOutcome(kind="withdrawal", round=round_no, party=me)
            else:
                reason = check_termination(trace, profile, divergence_window)
                if reason is None and predictor is not None:
                    if advise(predictor, standing, table).kind == "terminate-unprofitable":
                        reason = "unprofitable"
                if reason is not None:
                    action = f"terminate-{reason}"
                    outcome = SessionOutcome(
                        kind="early-termination", round=round_no, party=me, reason=reason
                    )
                elif mine > planned_utilities[0]:
                    action = "accept"
                    outcome = SessionOutcome(
                        kind="agreement",
                        round=round_no,
                        offer=standing.offer,
                        utilities={a: mine if a == me else theirs for a in ids},
                    )
            if outcome is not None:  # the terminal row restates the standing offer from this side
                trace.append(TraceRow(round_no, me, standing.offer, mine, theirs, action))
                return outcome, trace

        standing = TraceRow(round_no, me, planned, *planned_utilities, "offer")
        trace.append(standing)
    return SessionOutcome(kind="deadline-expiry", round=max_rounds), trace
