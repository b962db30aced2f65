"""Offer generation: time-, resource- and behavior-dependent tactics plus mixtures.

All tactics work in the agent's own utility space: a concession level
``alpha`` in [0, 1] is turned into a target utility between the agent's
maximum (100) and its reservation utility, and the target is then mapped
onto the discrete offer space. Offers that pick one of the agent's own
zero-rated options are never emitted; those options are below the agent's
threshold by definition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domain import (
    NegotiationError,
    OfferVector,
    PreferenceProfile,
    enumerate_offers,
    reservation_utility,
    total_profit,
)

if TYPE_CHECKING:
    from .protocol import SessionTrace

MAX_UTILITY = 100.0


class ParameterError(NegotiationError):
    """A tactic parameter is outside its admissible range."""


def time_alpha(t: float, t_max: float, k: float, beta: float) -> float:
    """Polynomial time-dependent concession: k + (1-k) * (t/t_max)^(1/beta).

    beta < 1 concedes late (boulware), beta > 1 concedes early (conceder).
    """
    if beta <= 0:
        raise ParameterError(f"beta must be > 0, got {beta:g}")
    if not 0 <= k <= 1:
        raise ParameterError(f"k must be in [0, 1], got {k:g}")
    if t_max <= 0:
        raise ParameterError(f"t_max must be > 0, got {t_max:g}")
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t:g}")
    frac = min(t, t_max) / t_max
    return k + (1.0 - k) * frac ** (1.0 / beta)


def resource_alpha(r: float, k: float) -> float:
    """Resource-dependent concession: fully conceded once the resource is gone."""
    if r < 0:
        raise ParameterError(f"resource remaining must be >= 0, got {r:g}")
    if not 0 <= k <= 1:
        raise ParameterError(f"k must be in [0, 1], got {k:g}")
    return k + (1.0 - k) * math.exp(-r)


def target_from_alpha(profile: PreferenceProfile, alpha: float) -> float:
    alpha = min(max(alpha, 0.0), 1.0)
    reservation = reservation_utility(profile)
    return MAX_UTILITY - alpha * (MAX_UTILITY - reservation)


def offer_for_target(profile: PreferenceProfile, target: float) -> OfferVector:
    """Cheapest concession meeting the target.

    Picks the offer with the smallest utility >= target; if the target is
    above every candidate, the best offer below it. Candidates exclude the
    agent's own zero-rated options; ties go to the lexicographically
    smallest label vector.
    """
    pool = enumerate_offers(profile, zero_free=True)  # best first, ties lexicographic
    qualifying = list(itertools.takewhile(lambda entry: entry[1] >= target - 1e-9, pool))
    if not qualifying:
        return pool[0][0]  # nothing reaches the target; concede as little as possible
    names = [issue.name for issue in profile.issues]
    offer, _ = min(
        qualifying, key=lambda entry: (entry[1], tuple(entry[0].choices[n] for n in names))
    )
    return offer


def behavior_target(
    profile: PreferenceProfile, trace: "SessionTrace", delta: int = 1
) -> float:
    """Relative tit-for-tat target in the agent's own utility space.

    The opponent's concession is measured as the ratio between its offers'
    utility-to-me at lag ``delta``; the agent reciprocates by scaling its own
    previous target by the inverse ratio, clamped to [reservation, 100].
    With insufficient history the previous target is kept (recorded in the
    trace metadata as a fallback).
    """
    if delta < 1:
        raise ParameterError(f"imitation lag delta must be >= 1, got {delta}")
    me = profile.agent_id
    own = [row.offer for row in trace.rows if row.proposer == me and row.action == "offer"]
    opp_utils = [
        total_profit(profile, row.offer)
        for row in trace.rows
        if row.proposer != me and row.action == "offer"
    ]
    if not own:
        trace.note_fallback(me, "no own offer yet; opening at maximum")
        return MAX_UTILITY
    previous_target = total_profit(profile, own[-1])
    if len(opp_utils) < 2 * delta or opp_utils[-delta] == 0:
        trace.note_fallback(me, "insufficient opponent history; repeating last offer")
        return previous_target
    ratio = opp_utils[-delta - 1] / opp_utils[-delta]
    target = previous_target * ratio
    reservation = reservation_utility(profile)
    return min(max(target, reservation), MAX_UTILITY)


class Tactic:
    """An offer generator: pure function of (profile, trace, round)."""

    def target(self, profile: PreferenceProfile, trace: "SessionTrace", round: int) -> float:
        raise NotImplementedError

    def propose(
        self, profile: PreferenceProfile, trace: "SessionTrace", round: int
    ) -> OfferVector:
        offer = offer_for_target(profile, self.target(profile, trace, round))
        return offer.stamped(round, profile.agent_id)


@dataclass
class TimeDependentTactic(Tactic):
    k: float = 0.0
    beta: float = 1.0

    def target(self, profile, trace, round):
        alpha = time_alpha(round, profile.deadline, self.k, self.beta)
        return target_from_alpha(profile, alpha)


@dataclass
class ResourceDependentTactic(Tactic):
    """Concedes as the resource runs out; defaults to rounds left before the deadline."""

    k: float = 0.0

    def resource_remaining(self, profile, round) -> float:
        return max(profile.deadline - round, 0)

    def target(self, profile, trace, round):
        alpha = resource_alpha(self.resource_remaining(profile, round), self.k)
        return target_from_alpha(profile, alpha)


@dataclass
class BehaviorDependentTactic(Tactic):
    delta: int = 1

    def target(self, profile, trace, round):
        return behavior_target(profile, trace, self.delta)


@dataclass
class MixedTactic(Tactic):
    components: tuple[tuple[float, Tactic], ...]

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.components]
        if not weights or any(w < 0 for w in weights):
            raise ParameterError("mixture weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights must sum to 1, got {sum(weights):g}")

    def target(self, profile, trace, round):
        return sum(w * tactic.target(profile, trace, round) for w, tactic in self.components)


@dataclass(frozen=True)
class TacticSpec:
    """Scenario-facing tactic description; ``build`` turns it into a Tactic."""

    family: str  # time-dependent | resource-dependent | behavior-dependent | mixed
    k: float = 0.0
    beta: float = 1.0
    delta: int = 1
    mixture: tuple[tuple[float, "TacticSpec"], ...] = ()

    def build(self) -> Tactic:
        if self.family == "time-dependent":
            return TimeDependentTactic(k=self.k, beta=self.beta)
        if self.family == "resource-dependent":
            return ResourceDependentTactic(k=self.k)
        if self.family == "behavior-dependent":
            return BehaviorDependentTactic(delta=self.delta)
        if self.family == "mixed":
            return MixedTactic(
                components=tuple((w, spec.build()) for w, spec in self.mixture)
            )
        raise ParameterError(f"unknown tactic family {self.family!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TacticSpec":
        family = raw.get("family")
        if family is None:
            raise ParameterError("tactic spec needs a 'family' field")
        mixture = tuple(
            (float(part["weight"]), cls.from_dict(part))
            for part in raw.get("mixture", ())
        )
        return cls(
            family=family,
            k=float(raw.get("k", 0.0)),
            beta=float(raw.get("beta", 1.0)),
            delta=int(raw.get("delta", 1)),
            mixture=mixture,
        )
