"""Offer generation: time-, resource- and behavior-dependent tactics plus mixtures.

All tactics work in the agent's own utility space: a concession level
``alpha`` in [0, 1] is turned into a target utility between the agent's
maximum (100) and its reservation utility, and the target is then mapped
onto the discrete offer space. Offers that pick one of the agent's own
zero-rated options are never emitted; those options are below the agent's
threshold by definition.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .domain import (
    InvalidProfileError,
    NegotiationError,
    OfferVector,
    PreferenceProfile,
    float_sum,
    is_int,
    is_number,
    reservation_utility,
    total_profit,  # looked up at each call, so perfbench's tracer can rebind it here
    unknown_keys,
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
    if not beta > 0:  # also rejects NaN
        raise ParameterError(f"beta must be > 0, got {beta:g}")
    if not 0 <= k <= 1:
        raise ParameterError(f"k must be in [0, 1], got {k:g}")
    if not t_max > 0:  # also rejects NaN
        raise ParameterError(f"t_max must be > 0, got {t_max:g}")
    if not t >= 0:
        raise ParameterError(f"t must be >= 0, got {t:g}")
    # min(t, t_max) without the builtin call: on a tie the first argument wins, as in min
    frac = (t_max if t_max < t else t) / t_max
    return k + (1.0 - k) * frac ** (1.0 / beta)


def resource_alpha(r: float, k: float) -> float:
    """Resource-dependent concession: fully conceded once the resource is gone."""
    if not r >= 0:  # also rejects NaN
        raise ParameterError(f"resource remaining must be >= 0, got {r:g}")
    if not 0 <= k <= 1:
        raise ParameterError(f"k must be in [0, 1], got {k:g}")
    # exp(-r) is 0.0 from r = 746 on; clamped, an int past the float range cannot overflow
    return k + (1.0 - k) * math.exp(-(1000.0 if 1000.0 < r else r))


def _concede(alpha: float, reservation: float) -> float:
    # min(max(alpha, 0.0), 1.0): the first argument wins a tie, and NaN passes through
    alpha = 0.0 if 0.0 > alpha else alpha
    alpha = 1.0 if 1.0 < alpha else alpha
    return MAX_UTILITY - alpha * (MAX_UTILITY - reservation)


def _zero_free_space(profile: PreferenceProfile) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Each issue's nonzero-rated option labels, sorted, and every offer's utility.

    The utilities form one array axis per issue. Its C-order flattening is
    the lexicographic label order, and the per-issue terms are added in
    issue order from 0.0, so every utility is the float
    :func:`~negosim.domain.total_profit` returns.
    """
    if not profile.issues:
        raise InvalidProfileError("cannot pick an offer for a profile without issues")
    menus = []
    utilities = np.float64(0.0)
    for issue in profile.issues:
        options = sorted((opt for opt in issue.options if opt.rating != 0), key=lambda o: o.label)
        if not options:
            raise InvalidProfileError(f"issue {issue.name!r} has no positively rated option")
        weight, max_rating = profile.weights[issue.name], issue.max_rating
        terms = np.array([weight * opt.rating / max_rating for opt in options])
        utilities = np.add.outer(utilities, terms)
        # from a list, so the tuple is made at its size: tuple() of a generator
        # resizes, and every resized tuple freed would grow the tuple free list
        menus.append(tuple([opt.label for opt in options]))
    return menus, np.clip(utilities, 0.0, 100.0)


class OfferTable:
    """One profile's constants: its profile, its reservation utility and its
    zero-free offer space sorted by utility. A session gets one per party
    before round 0 and hands it to that party's tactic; the sessions of one
    batch, and the threads of one market, share each profile's table.

    The sort is stable over the C-order (lexicographic) flattening, so among
    equal utilities the smallest label vector comes first. For its own life
    the table also keeps each offer it has served and each utility it has
    given, so a repeated pick or a rescored offer is one dictionary lookup.
    Both are pure functions of the profile, so sharing a table changes no
    session.
    """

    def __init__(self, profile: PreferenceProfile):
        self.profile = profile
        self.reservation = reservation_utility(profile)
        self._issues = tuple([issue.name for issue in profile.issues])  # from a list, as the menus
        self._menus, utilities = _zero_free_space(profile)
        flat = utilities.ravel()
        order = np.argsort(flat, kind="stable")
        keys = flat[order]
        # the pick when nothing qualifies: the first offer of the largest utility
        # (searchsorted, as NaN keys from an unvalidated profile sort last)
        self._fallback = int(keys.searchsorted(keys[-1]))
        # zero-copy views that read as Python floats and ints, so a pick calls no numpy
        self._keys = memoryview(keys)
        self._order = memoryview(order)
        self._served: dict[int, OfferVector] = {}  # sorted position -> its offer
        # id(offer) -> (offer, utility); holding the offer keeps its id from being reused
        self._scored: dict[int, tuple[OfferVector, float]] = {}

    def offer(self, target: float) -> OfferVector:
        """Cheapest concession meeting the target, by binary search.

        Picks the offer with the smallest utility >= target; if the target
        is above every candidate, the best offer below it. Candidates
        exclude the agent's own zero-rated options; ties go to the
        lexicographically smallest label vector. A repeated pick returns
        the same object.
        """
        keys = self._keys
        i = bisect_left(keys, target - 1e-9)
        if i == len(keys) or target != target:  # a NaN target sorts after every key
            i = self._fallback
        offer = self._served.get(i)
        if offer is None:
            offer = self._served[i] = self._decode(self._order[i])
            self._scored[id(offer)] = (offer, keys[i])
        return offer

    def utility(self, offer: OfferVector) -> float:
        """The party's :func:`~negosim.domain.total_profit` of ``offer``.

        A served offer's utility is its sort key, already that float; any
        other offer is scored on first sight and remembered, by identity,
        so an offer's choices must not change once it is made. A malformed
        offer raises :class:`~negosim.domain.InvalidOfferError`.
        """
        entry = self._scored.get(id(offer))
        if entry is None:
            entry = self._scored[id(offer)] = (offer, total_profit(self.profile, offer))
        return entry[1]

    def _decode(self, flat: int) -> OfferVector:
        """The offer at index ``flat`` of the C-order flattened utility array."""
        labels = []
        for menu in reversed(self._menus):
            flat, i = divmod(flat, len(menu))
            labels.append(menu[i])
        labels.reverse()
        return OfferVector(dict(zip(self._issues, labels)))


def offer_for_target(profile: PreferenceProfile, target: float) -> OfferVector:
    """:meth:`OfferTable.offer` on a table built for this call and dropped on
    return, so nothing is kept per profile."""
    return OfferTable(profile).offer(target)


def behavior_target(table: OfferTable, trace: "SessionTrace", delta: int = 1) -> float:
    """Relative tit-for-tat target in the agent's own utility space.

    The opponent's concession is measured as the ratio between its offers'
    utility-to-me at lag ``delta`` (an integer >= 1); the agent reciprocates
    by scaling its own previous target by the inverse ratio, clamped to
    [reservation, 100]. Both come from the utilities the trace recorded when
    each offer was made. With insufficient history the previous target is
    kept (recorded in the trace metadata as a fallback).
    """
    me = table.profile.agent_id
    previous_target = None
    recent = []  # the opponent's latest offer utilities, newest first
    for row in reversed(trace):  # back to the last own offer and 2 * delta opponent offers
        if row.action != "offer":
            continue
        if row.proposer != me:
            if len(recent) < 2 * delta:
                recent.append(row.utility_receiver)
        elif previous_target is None:
            previous_target = row.utility_proposer
        if previous_target is not None and len(recent) == 2 * delta:
            break
    if previous_target is None:
        trace.note_fallback(me, "no own offer yet; opening at maximum")
        return MAX_UTILITY
    if len(recent) < 2 * delta or recent[delta - 1] == 0:
        trace.note_fallback(me, "insufficient opponent history; repeating last offer")
        return previous_target
    ratio = recent[delta] / recent[delta - 1]
    target = previous_target * ratio
    return min(max(target, table.reservation), MAX_UTILITY)


class Tactic:
    """An offer generator: pure function of (table, trace, round).

    ``table`` is the proposing party's :class:`OfferTable` for the session:
    its profile, its reservation utility and its offers.
    """

    def target(self, table: OfferTable, trace: "SessionTrace", round: int) -> float:
        raise NotImplementedError

    def propose(self, table: OfferTable, trace: "SessionTrace", round: int) -> OfferVector:
        return table.offer(self.target(table, trace, round))


@dataclass(frozen=True)
class TimeDependentTactic(Tactic):
    k: float = 0.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        time_alpha(0.0, 1.0, self.k, self.beta)  # rejects k outside [0, 1] and beta <= 0

    def target(self, table, trace, round):
        alpha = time_alpha(round, table.profile.deadline, self.k, self.beta)
        return _concede(alpha, table.reservation)


@dataclass(frozen=True)
class ResourceDependentTactic(Tactic):
    """Concedes as the resource runs out; defaults to rounds left before the deadline."""

    k: float = 0.0

    def __post_init__(self) -> None:
        resource_alpha(0.0, self.k)  # rejects k outside [0, 1]

    def target(self, table, trace, round):
        left = table.profile.deadline - round
        alpha = resource_alpha(0 if 0 > left else left, self.k)
        return _concede(alpha, table.reservation)


@dataclass(frozen=True)
class BehaviorDependentTactic(Tactic):
    delta: int = 1

    def __post_init__(self) -> None:
        if not is_int(self.delta) or self.delta < 1:
            raise ParameterError(f"imitation lag delta must be an integer >= 1, got {self.delta!r}")

    def target(self, table, trace, round):
        return behavior_target(table, trace, self.delta)


@dataclass(frozen=True)
class MixedTactic(Tactic):
    components: tuple[tuple[float, Tactic], ...]

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.components]
        if not weights:
            raise ParameterError("a mixture needs at least one part")
        if not all(w >= 0 for w in weights):
            raise ParameterError("mixture weights must be non-negative")
        total = float_sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights must sum to 1, got {total:g}")

    def target(self, table, trace, round):
        return float_sum(w * tactic.target(table, trace, round) for w, tactic in self.components)


# each family's parameters; a mixture part also has its ``weight``
_FIELDS = {
    "time-dependent": ("k", "beta"),
    "resource-dependent": ("k",),
    "behavior-dependent": ("delta",),
    "mixed": ("mixture",),
}


def _number(raw: Mapping, key: str, default: float | None = None) -> float:
    value = raw.get(key, default)
    if not is_number(value):
        raise ParameterError(f"{key} must be a number, got {value!r}")
    return float(value)


def tactic_from_dict(raw) -> Tactic:
    """Build a tactic from its scenario-file mapping: a ``family`` and its parameters.

    Every malformed or out-of-range field raises :class:`ParameterError`.
    """
    return _tactic_from_dict(raw, ())


def _tactic_from_dict(raw, outer: tuple) -> Tactic:
    """:func:`tactic_from_dict` for a tactic nested in the mixtures ``outer``."""
    if not isinstance(raw, Mapping):
        raise ParameterError(f"a tactic must be a mapping, got {raw!r}")
    if any(raw is mixture for mixture in outer):  # a YAML alias can make a mixture hold itself
        raise ParameterError("a mixture cannot contain itself")
    family = raw.get("family")
    params = _FIELDS.get(family) if isinstance(family, str) else None
    if params is None:
        raise ParameterError(f"unknown tactic family {family!r}")
    unknown = unknown_keys(raw, ("family", *params, *(("weight",) if outer else ())))
    if unknown:
        raise ParameterError(f"unknown {family} tactic fields {unknown}")
    if family == "time-dependent":
        return TimeDependentTactic(k=_number(raw, "k", 0.0), beta=_number(raw, "beta", 1.0))
    if family == "resource-dependent":
        return ResourceDependentTactic(k=_number(raw, "k", 0.0))
    if family == "behavior-dependent":
        return BehaviorDependentTactic(delta=raw.get("delta", 1))
    parts = raw.get("mixture", ())
    if not isinstance(parts, (list, tuple)):
        raise ParameterError(f"mixture must be a list, got {parts!r}")
    components = []
    for part in parts:
        tactic = _tactic_from_dict(part, (*outer, raw))  # first, so a non-mapping is named
        components.append((_number(part, "weight"), tactic))
    return MixedTactic(components=tuple(components))
