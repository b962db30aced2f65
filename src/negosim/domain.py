"""Issues, preference profiles, offers and the weighted-additive utility model."""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

WEIGHT_TOTAL = 100.0
WEIGHT_SLACK = 1.0  # auto-normalize when |sum - 100| <= slack, hard error beyond
# ratings above this could overflow weight * rating; the 2 covers the rounding of normalized weights
MAX_RATING = sys.float_info.max / (2 * WEIGHT_TOTAL)


class NegotiationError(Exception):
    """Base class for errors raised by negosim."""


class InvalidOfferError(NegotiationError):
    """An offer references unknown issues or options, or misses an issue."""


class InvalidProfileError(NegotiationError):
    """A preference profile violates its invariants."""


class OutOfDomainError(NegotiationError):
    """A value falls outside a discretization scheme's covered domain."""


def is_int(value) -> bool:
    """An integer; a boolean is not one, so YAML ``true`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def unknown_keys(raw: Mapping, known) -> list:
    """The keys of ``raw`` not in ``known``, sorted by repr: YAML keys may mix types."""
    return sorted((key for key in raw if key not in known), key=repr)


def float_sum(values):
    """``sum(values)`` as Python 3.11 adds floats: left to right, rounding each step.

    From 3.12, ``sum()`` compensates float rounding, which changes the last
    bits of some sums; outputs must be the same bytes on every interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total


def is_number(value) -> bool:
    """A real number that has a float value; a boolean is not a number, nor is
    an integer beyond the float range."""
    return isinstance(value, float) or (is_int(value) and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class IssueOption:
    label: str
    rating: float


@dataclass(frozen=True)
class Issue:
    """A negotiable issue with a fixed, ordered menu of rated options.

    The lookups every utility evaluation needs are computed once, at
    construction; they take no part in equality, hashing or the repr.
    """

    name: str
    options: tuple[IssueOption, ...]
    max_rating: float = field(init=False, repr=False, compare=False)
    zero_rated_labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_label: dict[str, IssueOption] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        options = self.options
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "max_rating", max((opt.rating for opt in options), default=0.0))
        set_field(self, "zero_rated_labels", tuple(o.label for o in options if o.rating == 0))
        # the first of duplicate labels wins, as in a scan of the menu
        set_field(self, "_by_label", {o.label: o for o in reversed(options)})

    def option(self, label: str) -> IssueOption:
        try:
            return self._by_label[label]
        except KeyError:
            raise InvalidOfferError(f"issue {self.name!r} has no option {label!r}") from None

    def labels(self) -> tuple[str, ...]:
        return tuple(opt.label for opt in self.options)

    @property
    def max_rated_label(self) -> str:
        return max(self.options, key=lambda opt: opt.rating).label


@dataclass(frozen=True)
class OfferVector:
    """One option chosen per issue; the unit exchanged between agents."""

    choices: Mapping[str, str]

    def __hash__(self) -> int:  # choices is a plain dict; hash a frozen view
        return hash(tuple(sorted(self.choices.items())))


@dataclass(frozen=True)
class DiscretizationScheme:
    """Contiguous half-open bins [lower, upper) covering a continuous domain."""

    bins: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        if not self.bins:
            raise OutOfDomainError("discretization scheme needs at least one bin")
        for (_, lo, hi), (_, lo2, _) in zip(self.bins, self.bins[1:]):
            if hi != lo2:
                raise OutOfDomainError("bins must be contiguous and non-overlapping")
            if lo >= hi:
                raise OutOfDomainError("bin bounds must satisfy lower < upper")

    @property
    def lower(self) -> float:
        return self.bins[0][1]

    @property
    def upper(self) -> float:
        return self.bins[-1][2]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.bins)


@dataclass(frozen=True)
class PreferenceProfile:
    """An agent's private weights, option ratings and deadline.

    Weights are normalized to sum to 100 by :func:`make_profile`, which
    warns with the original sum. ``reservation_utility`` of ``None`` means the
    default: the lowest utility attainable without picking any zero-rated
    (threshold) option.
    """

    agent_id: str
    issues: tuple[Issue, ...]
    weights: Mapping[str, float]
    deadline: int
    reservation_utility: float | None = None


def make_profile(
    agent_id: str,
    issues: Sequence[Issue],
    weights: Mapping[str, float],
    deadline: int,
    reservation_utility: float | None = None,
) -> PreferenceProfile:
    """Build a profile, normalizing weights whose sum is within 1 of 100.

    A sum further away is a hard error; the intent of such input is unclear
    and silently rescaling it would hide real mistakes.
    """
    total = float_sum(weights.values())
    if abs(total - WEIGHT_TOTAL) > WEIGHT_SLACK:
        raise InvalidProfileError(
            f"profile {agent_id!r}: weights sum {total:g} is not {WEIGHT_TOTAL:g}"
        )
    normalized = dict(weights)
    if abs(total - WEIGHT_TOTAL) > 1e-9:
        warnings.warn(
            f"profile {agent_id!r}: weights sum {total:g} normalized to {WEIGHT_TOTAL:g}",
            stacklevel=2,
        )
        factor = WEIGHT_TOTAL / total
        normalized = {name: w * factor for name, w in weights.items()}
    return PreferenceProfile(
        agent_id=agent_id,
        issues=tuple(issues),
        weights=normalized,
        deadline=deadline,
        reservation_utility=reservation_utility,
    )


def validate_profile(profile: PreferenceProfile, check_weights: bool = True) -> list[str]:
    """Check every profile invariant; return all violations, not just the first.

    ``check_weights=False`` leaves out the weight rules, for a caller that
    has already reported why the weights could not be read.
    """
    violations: list[str] = []
    if not profile.issues:
        violations.append("profile has no issues")
    seen: set[str] = set()
    for issue in profile.issues:
        if issue.name in seen:
            violations.append(f"duplicate issue {issue.name!r}")
        seen.add(issue.name)
        if not issue.options:
            violations.append(f"issue {issue.name!r} has no options")
            continue
        labels = [opt.label for opt in issue.options]
        if len(labels) != len(set(labels)):
            violations.append(f"issue {issue.name!r} has duplicate option labels")
        if any(opt.rating < 0 for opt in issue.options):
            violations.append(f"issue {issue.name!r} has a negative option rating")
        if not all(math.isfinite(opt.rating) for opt in issue.options):
            violations.append(f"issue {issue.name!r} has a non-finite option rating")
        if any(MAX_RATING < opt.rating < math.inf for opt in issue.options):
            violations.append(f"issue {issue.name!r} has an option rating above {MAX_RATING:g}")
        zero_count = sum(1 for opt in issue.options if opt.rating == 0)
        if zero_count != 1:
            violations.append(
                f"issue {issue.name!r} has {zero_count} zero-rated options, expected exactly 1"
            )
        if issue.max_rating <= 0:
            violations.append(f"issue {issue.name!r} has no positively rated option")
    if check_weights:
        weight_sum = float_sum(profile.weights.values())
        if abs(weight_sum - WEIGHT_TOTAL) > 1e-9:
            violations.append(f"weights sum {weight_sum:g} != {WEIGHT_TOTAL:g}")
        for name, weight in profile.weights.items():
            if name not in seen:
                violations.append(f"weighted issue {name!r} not present in issue list")
            if weight < 0:
                violations.append(f"issue {name!r} has negative weight {weight:g}")
            if not math.isfinite(weight):
                violations.append(f"issue {name!r} has non-finite weight {weight:g}")
        for issue in profile.issues:
            if issue.name not in profile.weights:
                violations.append(f"issue {issue.name!r} has no weight")
    if profile.deadline < -sys.float_info.max:  # an integer too long to list
        violations.append(f"deadline must be > 0, got one below -{sys.float_info.max:g}")
    elif not profile.deadline > 0:  # also rejects NaN
        violations.append(f"deadline {profile.deadline:g} must be > 0")
    elif profile.deadline > sys.float_info.max:  # round / deadline would be 0.0 for every round
        violations.append(f"deadline must be at most {sys.float_info.max:g}, the float range")
    reservation = profile.reservation_utility
    if reservation is not None and not 0.0 <= reservation <= 100.0:  # also rejects NaN
        violations.append(f"reservation_utility {reservation:g} must be in [0, 100]")
    return violations


def total_profit(profile: PreferenceProfile, offer: OfferVector) -> float:
    """Weighted sum of rating ratios of the offered options; always in [0, 100]."""
    issues, choices, weights = profile.issues, offer.choices, profile.weights
    expected = {issue.name for issue in issues}
    given = set(choices)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        raise InvalidOfferError(
            f"offer does not cover the profile's issues (missing={missing}, extra={extra})"
        )
    score = 0.0
    for issue in issues:
        name = issue.name
        score += weights[name] * issue.option(choices[name]).rating / issue.max_rating
    # rating/max_rating can overshoot 1 by one ulp; keep the documented range, clamped
    # as min(max(score, 0.0), 100.0) is, without the builtin calls
    return 0.0 if 0.0 > score else (100.0 if 100.0 < score else score)


def enumerate_offers(
    profile: PreferenceProfile, zero_free: bool = False
) -> list[tuple[OfferVector, float]]:
    """All option permutations with their utility, best first.

    Ties are broken lexicographically on the choice labels so the ordering is
    deterministic. ``zero_free`` drops offers that pick any zero-rated option.
    """
    if not profile.issues:
        raise InvalidProfileError("cannot enumerate offers for a profile without issues")
    names = [issue.name for issue in profile.issues]
    menus = []
    for issue in profile.issues:
        labels = issue.labels()
        if zero_free:
            labels = tuple(l for l in labels if l not in issue.zero_rated_labels)
        menus.append(labels)
    entries = []
    for combo in itertools.product(*menus):
        offer = OfferVector(choices=dict(zip(names, combo)))
        entries.append((offer, total_profit(profile, offer)))
    entries.sort(key=lambda e: (-e[1], tuple(e[0].choices[n] for n in names)))
    return entries


def reservation_utility(profile: PreferenceProfile) -> float:
    """The agent's minimum acceptable utility.

    Defaults to the worst utility reachable without crossing any threshold
    (zero-rated) option, unless the profile pins an explicit value. Utility
    is additive and each term is monotone in the rating, so that worst offer
    picks every issue's lowest nonzero rating; summing in issue order, as
    :func:`total_profit` does, gives the same float as enumerating.
    """
    if profile.reservation_utility is not None:
        return profile.reservation_utility
    if not profile.issues:
        raise InvalidProfileError("a profile without issues has no reservation utility")
    score = 0.0
    for issue in profile.issues:
        nonzero = [opt.rating for opt in issue.options if opt.rating != 0]
        if not nonzero:
            raise InvalidProfileError(f"issue {issue.name!r} has no positively rated option")
        score += profile.weights[issue.name] * min(nonzero) / issue.max_rating
    return min(max(score, 0.0), 100.0)


def discretize(value: float, scheme: DiscretizationScheme) -> str:
    """Map a continuous value to its bin label; boundaries are lower-inclusive."""
    if math.isnan(value):
        raise OutOfDomainError("cannot discretize NaN")
    for label, lo, hi in scheme.bins:
        if lo <= value < hi:
            return label
    raise OutOfDomainError(
        f"value {value:g} outside covered domain [{scheme.lower:g}, {scheme.upper:g})"
    )
