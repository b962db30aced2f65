import dataclasses
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from negosim.domain import (
    DiscretizationScheme,
    InvalidOfferError,
    InvalidProfileError,
    Issue,
    IssueOption,
    OfferVector,
    OutOfDomainError,
    PreferenceProfile,
    discretize,
    enumerate_offers,
    make_profile,
    reservation_utility,
    total_profit,
    validate_profile,
)

from conftest import random_profile

AGE_BINS = DiscretizationScheme(
    bins=(("youth", 10, 25), ("middle-aged", 25, 50), ("old", 50, math.inf))
)


def three_issue_profile(weights=(50.0, 20.0, 30.0), ratios=None):
    """Three issues whose max ratings differ; chosen to reproduce given ratios."""
    issues = []
    for i, name in enumerate(["price", "quantity", "warranty"]):
        issues.append(
            Issue(
                name=name,
                options=(
                    IssueOption("worst", 0.0),
                    IssueOption("mid", 40.0),
                    IssueOption("best", 80.0),
                ),
            )
        )
    return make_profile(
        agent_id="a",
        issues=issues,
        weights=dict(zip(["price", "quantity", "warranty"], weights)),
        deadline=10,
    )


class TestTotalProfit:
    def test_all_max_rated_scores_100(self):
        profile = three_issue_profile()
        offer = OfferVector(choices={n: "best" for n in ["price", "quantity", "warranty"]})
        assert total_profit(profile, offer) == 100.0

    def test_all_zero_rated_scores_0(self):
        profile = three_issue_profile()
        offer = OfferVector(choices={n: "worst" for n in ["price", "quantity", "warranty"]})
        assert total_profit(profile, offer) == 0.0

    def test_hand_computed_weighted_sum(self):
        # ratios 0.5 / 1.0 / 0.0 under weights 50 / 20 / 30:
        # 50*0.5 + 20*1.0 + 30*0.0 = 45
        profile = three_issue_profile()
        offer = OfferVector(choices={"price": "mid", "quantity": "best", "warranty": "worst"})
        assert total_profit(profile, offer) == pytest.approx(45.0)

    def test_unknown_option_rejected(self):
        profile = three_issue_profile()
        offer = OfferVector(choices={"price": "nope", "quantity": "best", "warranty": "best"})
        with pytest.raises(InvalidOfferError):
            total_profit(profile, offer)

    def test_missing_issue_rejected(self):
        profile = three_issue_profile()
        with pytest.raises(InvalidOfferError):
            total_profit(profile, OfferVector(choices={"price": "best"}))


class TestEnumerateOffers:
    def test_aircraft_offer_space_is_24(self, aircraft_scenario):
        for spec in aircraft_scenario.agents:
            assert len(enumerate_offers(spec.profile)) == 24  # 3 * 2 * 4

    def test_single_issue_gives_k_offers(self):
        issue = Issue("x", (IssueOption("a", 0.0), IssueOption("b", 1.0), IssueOption("c", 2.0)))
        profile = make_profile("a", [issue], {"x": 100.0}, deadline=5)
        assert len(enumerate_offers(profile)) == 3

    def test_sorted_descending(self):
        entries = enumerate_offers(three_issue_profile())
        utilities = [u for _, u in entries]
        assert utilities == sorted(utilities, reverse=True)
        assert utilities[0] >= utilities[-1]

    def test_top_entry_selects_every_max_rated_option(self):
        profile = three_issue_profile()
        top, utility = enumerate_offers(profile)[0]
        assert utility == 100.0
        assert all(label == "best" for label in top.choices.values())

    def test_empty_profile_rejected(self):
        profile = PreferenceProfile("a", issues=(), weights={}, deadline=5)
        with pytest.raises(InvalidProfileError):
            enumerate_offers(profile)


class TestDiscretize:
    def test_age_17_is_youth(self):
        assert discretize(17, AGE_BINS) == "youth"

    def test_boundary_25_is_lower_inclusive(self):
        assert discretize(25, AGE_BINS) == "middle-aged"

    def test_boundary_50_is_old(self):
        assert discretize(50, AGE_BINS) == "old"

    def test_below_domain_rejected(self):
        with pytest.raises(OutOfDomainError):
            discretize(9.5, AGE_BINS)

    def test_partition_sweep(self):
        # every in-domain value maps to exactly one bin
        value = 10.0
        while value < 80:
            label = discretize(value, AGE_BINS)
            matches = [l for l, lo, hi in AGE_BINS.bins if lo <= value < hi]
            assert matches == [label]
            value += 0.37


class TestValidateProfile:
    def test_table_weights_summing_to_100_ok(self):
        profile = three_issue_profile(weights=(60.0, 15.0, 25.0))
        assert validate_profile(profile) == []

    def test_bad_weight_sum_reported(self):
        profile = PreferenceProfile(
            agent_id="b",
            issues=three_issue_profile().issues,
            weights={"price": 60.0, "quantity": 15.0, "warranty": 20.0},
            deadline=10,
        )
        assert any("weights sum 95" in v for v in validate_profile(profile))

    def test_missing_zero_rated_option_reported(self):
        issue = Issue("x", (IssueOption("a", 1.0), IssueOption("b", 2.0)))
        profile = PreferenceProfile("a", (issue,), {"x": 100.0}, deadline=5)
        assert any("zero-rated" in v for v in validate_profile(profile))

    def test_all_violations_reported_not_just_first(self):
        issue = Issue("x", (IssueOption("a", 1.0), IssueOption("a", 2.0)))
        profile = PreferenceProfile("a", (issue,), {"x": 50.0}, deadline=0)
        violations = validate_profile(profile)
        assert len(violations) >= 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rating_and_weight_reported(self, bad):
        issue = Issue("x", (IssueOption("z", 0.0), IssueOption("a", bad), IssueOption("b", 5.0)))
        profile = PreferenceProfile("a", (issue,), {"x": bad}, deadline=5)
        violations = validate_profile(profile)
        assert any("non-finite option rating" in v for v in violations)
        assert any("non-finite weight" in v for v in violations)

    def test_rating_that_overflows_when_weighted_reported(self):
        # 60 * 5e307 is past the float range: (high, s) scored 100, not 60 * 0.5 + 40
        size = Issue("size", (IssueOption("s", 1.0), IssueOption("m", 0.0)))
        ratings = {"low": 1.0e308, "mid": 0.0, "high": 5.0e307}
        price = Issue("price", tuple(IssueOption(label, r) for label, r in ratings.items()))
        profile = make_profile("a", [price, size], {"price": 60.0, "size": 40.0}, deadline=10)
        assert validate_profile(profile) == ["issue 'price' has an option rating above 8.98847e+305"]
        # at the bound, the weighted sum is finite and means what the ratings say
        bound = sys.float_info.max / 200
        ratings = {"low": bound, "mid": 0.0, "high": bound / 2}
        price = Issue("price", tuple(IssueOption(label, r) for label, r in ratings.items()))
        profile = make_profile("a", [price, size], {"price": 60.0, "size": 40.0}, deadline=10)
        assert validate_profile(profile) == []
        assert total_profit(profile, OfferVector({"price": "high", "size": "s"})) == 70.0
        assert reservation_utility(profile) == 70.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 150.0])
    def test_reservation_utility_outside_0_100_reported(self, bad):
        profile = dataclasses.replace(three_issue_profile(), reservation_utility=bad)
        assert any("reservation_utility" in v for v in validate_profile(profile))

    @pytest.mark.parametrize("edge", [0.0, 100.0])
    def test_reservation_utility_range_is_closed(self, edge):
        profile = dataclasses.replace(three_issue_profile(), reservation_utility=edge)
        assert validate_profile(profile) == []

    def test_make_profile_normalizes_within_slack(self):
        with pytest.warns(UserWarning, match="100.5"):
            profile = make_profile(
                "a",
                three_issue_profile().issues,
                {"price": 50.0, "quantity": 20.0, "warranty": 30.5},
                deadline=10,
            )
        assert sum(profile.weights.values()) == pytest.approx(100.0)

    def test_make_profile_rejects_weights_beyond_slack(self):
        with pytest.raises(InvalidProfileError):
            make_profile(
                "a",
                three_issue_profile().issues,
                {"price": 50.0, "quantity": 20.0, "warranty": 20.0},
                deadline=10,
            )


ratings = st.lists(st.floats(1.0, 100.0), min_size=1, max_size=4)


@given(ratings_a=ratings, scale=st.floats(0.1, 10.0), pick=st.integers(0, 4))
def test_total_profit_invariant_under_uniform_rating_scale(ratings_a, scale, pick):
    def build(rs):
        options = (IssueOption("z", 0.0),) + tuple(
            IssueOption(f"o{i}", r) for i, r in enumerate(rs)
        )
        issue = Issue("x", options)
        return make_profile("a", [issue], {"x": 100.0}, deadline=5)

    profile = build(ratings_a)
    scaled = build([r * scale for r in ratings_a])
    label = profile.issues[0].labels()[pick % len(profile.issues[0].options)]
    offer = OfferVector(choices={"x": label})
    assert total_profit(profile, offer) == pytest.approx(total_profit(scaled, offer))
    assert 0.0 <= total_profit(profile, offer) <= 100.0


@given(ratings_a=ratings, lo=st.integers(0, 4), hi=st.integers(0, 4))
def test_higher_rated_swap_never_decreases_utility(ratings_a, lo, hi):
    options = (IssueOption("z", 0.0),) + tuple(
        IssueOption(f"o{i}", r) for i, r in enumerate(ratings_a)
    )
    issue = Issue("x", options)
    profile = make_profile("a", [issue], {"x": 100.0}, deadline=5)
    labels = issue.labels()
    first, second = labels[lo % len(labels)], labels[hi % len(labels)]
    if issue.option(second).rating < issue.option(first).rating:
        first, second = second, first
    low = total_profit(profile, OfferVector(choices={"x": first}))
    high = total_profit(profile, OfferVector(choices={"x": second}))
    assert high >= low


def test_reservation_utility_default_excludes_threshold_options():
    issue = Issue(
        "x",
        (IssueOption("bad", 0.0), IssueOption("low", 20.0), IssueOption("top", 80.0)),
    )
    profile = make_profile("a", [issue], {"x": 100.0}, deadline=5)
    assert reservation_utility(profile) == pytest.approx(25.0)  # 20/80 * 100


def test_reservation_utility_equals_worst_zero_free_offer():
    rng = random.Random(2024)
    for i in range(500):
        profile = random_profile(rng, f"agent{i}")
        assert reservation_utility(profile) == enumerate_offers(profile, zero_free=True)[-1][1]


def test_reservation_utility_needs_a_positively_rated_option():
    ok = Issue("x", (IssueOption("bad", 0.0), IssueOption("top", 80.0)))
    dead = Issue("y", (IssueOption("bad", 0.0),))
    profile = make_profile("a", [ok, dead], {"x": 50.0, "y": 50.0}, deadline=5)
    with pytest.raises(InvalidProfileError):
        reservation_utility(profile)


def test_reservation_utility_explicit_override():
    profile = three_issue_profile()
    pinned = make_profile("a", profile.issues, profile.weights, 10, reservation_utility=70.0)
    assert reservation_utility(pinned) == 70.0


def test_enumerate_length_is_product_of_option_counts(aircraft_scenario):
    profile = aircraft_scenario.agents[0].profile
    expected = math.prod(len(issue.options) for issue in profile.issues)
    assert len(enumerate_offers(profile)) == expected


def test_issue_lookups_leave_equality_hash_and_repr_alone():
    options = (IssueOption("z", 0.0), IssueOption("a", 40.0), IssueOption("a", 80.0))
    issue = Issue("x", options)
    assert (issue.max_rating, issue.zero_rated_labels) == (80.0, ("z",))
    assert issue.option("a") is options[1]  # the first of duplicate labels, as a scan finds
    with pytest.raises(InvalidOfferError):
        issue.option("b")
    twin = Issue("x", tuple(IssueOption(o.label, o.rating) for o in options))
    assert twin == issue and hash(twin) == hash(issue)
    assert repr(issue) == f"Issue(name='x', options={options!r})"
    assert dataclasses.replace(issue, name="y").max_rating == 80.0
