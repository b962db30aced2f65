import gc
import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import negosim.tactics
from negosim.domain import (
    InvalidOfferError,
    InvalidProfileError,
    Issue,
    IssueOption,
    OfferVector,
    PreferenceProfile,
    enumerate_offers,
    make_profile,
    reservation_utility,
    total_profit,
)
from negosim.protocol import SessionTrace, TraceRow, run_session
from negosim.tactics import (
    BehaviorDependentTactic,
    MixedTactic,
    ParameterError,
    OfferTable,
    ResourceDependentTactic,
    Tactic,
    TimeDependentTactic,
    behavior_target,
    offer_for_target,
    resource_alpha,
    tactic_from_dict,
    time_alpha,
)

from conftest import ladder_profile
from test_protocol import rerated


class FixedTargetTactic(Tactic):
    def __init__(self, value):
        self.value = value

    def target(self, table, trace, round):
        return self.value


def ladder_trace(profile, own_utilities, opp_utilities):
    """Interleave opponent/own offers on the single-issue ladder profile."""
    trace = SessionTrace()
    round_no = 0
    for opp_u, own_u in zip(opp_utilities, own_utilities + [None]):
        trace.append(
            TraceRow(round_no, "opponent", OfferVector({"value": f"p{int(opp_u) // 10}"}),
                     100.0 - opp_u, opp_u, "offer")
        )
        round_no += 1
        if own_u is not None:
            trace.append(
                TraceRow(round_no, profile.agent_id, OfferVector({"value": f"p{int(own_u) // 10}"}),
                         own_u, 100.0 - own_u, "offer")
            )
            round_no += 1
    return trace


class TestTimeDependent:
    def test_alpha_zero_at_start_with_k_zero(self):
        assert time_alpha(0, 10, k=0.0, beta=1.0) == 0.0

    def test_alpha_is_k_at_start(self):
        assert time_alpha(0, 10, k=0.3, beta=0.5) == 0.3

    def test_alpha_one_at_deadline(self):
        for beta in (0.5, 1.0, 2.0):
            assert time_alpha(10, 10, k=0.0, beta=beta) == 1.0

    def test_midpoint_target_halfway_for_linear_conceder(self):
        profile = ladder_profile()
        alpha = time_alpha(5, 10, k=0.0, beta=1.0)
        assert alpha == 0.5
        reservation = reservation_utility(profile)
        target = TimeDependentTactic().target(OfferTable(profile), SessionTrace(), 5)
        assert target == pytest.approx((100.0 + reservation) / 2)

    def test_start_returns_top_offer(self):
        profile = ladder_profile()
        tactic = TimeDependentTactic(k=0.0, beta=1.0)
        choices = tactic.propose(OfferTable(profile), SessionTrace(), 0).choices
        assert total_profit(profile, OfferVector(choices)) == 100.0

    def test_deadline_returns_reservation_offer(self):
        profile = ladder_profile()
        tactic = TimeDependentTactic(k=0.0, beta=1.0)
        choices = tactic.propose(OfferTable(profile), SessionTrace(), 10).choices
        assert total_profit(profile, OfferVector(choices)) == pytest.approx(
            reservation_utility(profile)
        )

    def test_bad_beta_rejected(self):
        with pytest.raises(ParameterError):
            time_alpha(1, 10, k=0.0, beta=0.0)

    def test_alpha_monotone_in_time(self):
        for k in (0.0, 0.3):
            for beta in (0.5, 1.0, 2.0):
                values = [time_alpha(t, 100, k, beta) for t in range(0, 101)]
                assert all(b >= a for a, b in zip(values, values[1:]))

    def test_affine_target_for_linear_conceder(self):
        profile = ladder_profile()
        table = OfferTable(profile)
        targets = [TimeDependentTactic().target(table, SessionTrace(), t) for t in (2, 5, 8)]
        assert targets[1] - targets[0] == pytest.approx(targets[2] - targets[1])


class TestResourceDependent:
    def test_fully_conceded_when_resource_exhausted(self):
        assert resource_alpha(0, k=0.4) == 1.0

    def test_approaches_k_for_large_resource(self):
        assert resource_alpha(50, k=0.3) == pytest.approx(0.3, abs=1e-9)

    def test_formula_value(self):
        assert resource_alpha(1, k=0.2) == pytest.approx(0.2 + 0.8 * math.exp(-1))

    def test_negative_resource_rejected(self):
        with pytest.raises(ParameterError):
            resource_alpha(-1, k=0.0)

    def test_alpha_monotone_non_increasing_in_resource(self):
        values = [resource_alpha(r / 10, k=0.1) for r in range(0, 200)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestBehaviorDependent:
    def test_identical_opponent_offers_repeat_own_target(self):
        profile = ladder_profile()
        trace = ladder_trace(profile, own_utilities=[90.0], opp_utilities=[40.0, 40.0])
        assert behavior_target(OfferTable(profile), trace, delta=1) == pytest.approx(90.0)

    def test_opponent_concession_is_reciprocated(self):
        # opponent's offers rose 25% in my scale -> my target drops by 1/1.25
        profile = ladder_profile()
        trace = ladder_trace(profile, own_utilities=[90.0], opp_utilities=[40.0, 50.0])
        target = behavior_target(OfferTable(profile), trace, delta=1)
        assert target == pytest.approx(90.0 * 40.0 / 50.0)

    def test_target_clamped_at_reservation(self):
        profile = ladder_profile(reservation=60.0)
        trace = ladder_trace(profile, own_utilities=[70.0], opp_utilities=[10.0, 90.0])
        assert behavior_target(OfferTable(profile), trace, delta=1) == 60.0

    def test_insufficient_history_falls_back_and_flags_trace(self):
        profile = ladder_profile()
        trace = ladder_trace(profile, own_utilities=[80.0], opp_utilities=[40.0])
        assert behavior_target(OfferTable(profile), trace, delta=1) == pytest.approx(80.0)
        assert trace.metadata["fallbacks"]

    def test_opens_at_maximum_without_own_offer(self):
        profile = ladder_profile()
        assert behavior_target(OfferTable(profile), SessionTrace(), delta=1) == 100.0


def full_walk_behavior_target(profile, trace, delta):
    """Reference: the tit-for-tat target from a forward walk over the whole trace."""
    me = profile.agent_id
    previous_target = None
    opp_utils = []
    for row in trace:
        if row.action != "offer":
            continue
        if row.proposer == me:
            previous_target = row.utility_proposer
        else:
            opp_utils.append(row.utility_receiver)
    if previous_target is None:
        trace.note_fallback(me, "no own offer yet; opening at maximum")
        return 100.0
    if len(opp_utils) < 2 * delta or opp_utils[-delta] == 0:
        trace.note_fallback(me, "insufficient opponent history; repeating last offer")
        return previous_target
    ratio = opp_utils[-delta - 1] / opp_utils[-delta]
    target = previous_target * ratio
    return min(max(target, reservation_utility(profile)), 100.0)


def test_backward_walk_matches_the_full_walk_randomized():
    # two traces get the same rows; each function notes its fallbacks in its own
    rng = random.Random(77)
    outcomes = set()
    for _ in range(300):
        profile = ladder_profile(reservation=rng.choice((None, rng.uniform(0.0, 90.0))))
        table = OfferTable(profile)
        delta = rng.randint(1, 3)
        fast, slow = SessionTrace(), SessionTrace()
        for r in range(rng.randint(0, 40)):
            proposer = profile.agent_id if rng.random() < 0.5 else "opponent"
            action = "offer" if rng.random() < 0.85 else rng.choice(("accept", "withdraw"))
            # utilities of 0 to me make the lag-delta ratio undefined
            theirs = rng.choice((0.0, rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
            row = TraceRow(r, proposer, OfferVector({"value": "p5"}), rng.uniform(0.0, 100.0), theirs, action)
            fast.append(row)
            slow.append(row)
            notes = len(slow.metadata["fallbacks"])
            expected = full_walk_behavior_target(profile, slow, delta)
            assert behavior_target(table, fast, delta) == expected
            assert fast.metadata["fallbacks"] == slow.metadata["fallbacks"]
            new_notes = slow.metadata["fallbacks"][notes:]
            outcomes.add(new_notes[0][2] if new_notes else "reciprocated")
    assert len(outcomes) == 3


class TestMixed:
    def test_degenerate_mixture_equals_pure_tactic(self):
        table = OfferTable(ladder_profile())
        trace = SessionTrace()
        pure = TimeDependentTactic(k=0.0, beta=1.0)
        mixed = MixedTactic(components=((1.0, pure), (0.0, FixedTargetTactic(5.0))))
        for t in (0, 3, 7, 10):
            assert mixed.target(table, trace, t) == pure.target(table, trace, t)
            assert mixed.propose(table, trace, t).choices == pure.propose(table, trace, t).choices

    def test_weighted_mean_of_targets(self):
        table = OfferTable(ladder_profile())
        components = ((0.5, FixedTargetTactic(80.0)), (0.5, FixedTargetTactic(60.0)))
        mixed = MixedTactic(components=components)
        assert mixed.target(table, SessionTrace(), 0) == pytest.approx(70.0)

    def test_weighted_mean_skewed(self):
        table = OfferTable(ladder_profile())
        components = ((0.3, FixedTargetTactic(100.0)), (0.7, FixedTargetTactic(0.0)))
        mixed = MixedTactic(components=components)
        assert mixed.target(table, SessionTrace(), 0) == pytest.approx(30.0)

    def test_weight_sum_violation_rejected(self):
        components = ((0.5, FixedTargetTactic(80.0)), (0.6, FixedTargetTactic(60.0)))
        with pytest.raises(ParameterError):
            MixedTactic(components=components)

    def test_single_component_mixture_exact(self):
        table = OfferTable(ladder_profile())
        mixed = MixedTactic(components=((1.0, FixedTargetTactic(73.0)),))
        assert mixed.target(table, SessionTrace(), 0) == 73.0


class TestOfferMapping:
    def test_smallest_utility_at_or_above_target(self):
        profile = ladder_profile()
        offer = offer_for_target(profile, 64.0)
        assert total_profit(profile, offer) == 70.0

    def test_exact_target_hit(self):
        profile = ladder_profile()
        assert total_profit(profile, offer_for_target(profile, 70.0)) == 70.0

    def test_never_emits_threshold_option(self):
        profile = ladder_profile()
        offer = offer_for_target(profile, 0.0)
        assert offer.choices["value"] != "p0"

    def test_emitted_offers_respect_reservation(self):
        profile = ladder_profile(reservation=40.0)
        tactic = TimeDependentTactic(k=0.0, beta=2.0)
        for t in range(0, 11):
            choices = tactic.propose(OfferTable(profile), SessionTrace(), t).choices
            assert total_profit(profile, OfferVector(choices)) >= 40.0

    @pytest.mark.parametrize(
        "issues",
        [(), (Issue("x", (IssueOption("z", 0.0),)),)],
        ids=["no-issues", "no-positively-rated-option"],
    )
    def test_profile_with_no_offer_rejected(self, issues):
        profile = PreferenceProfile("a", issues, {"x": 100.0}, deadline=5)
        with pytest.raises(InvalidProfileError):
            offer_for_target(profile, 50.0)


def scan_offer_for_target(profile, pool, target):
    """Reference: scan ``enumerate_offers(profile, zero_free=True)``, as negosim once did."""
    qualifying = list(itertools.takewhile(lambda entry: entry[1] >= target - 1e-9, pool))
    if not qualifying:
        return pool[0][0]
    names = [issue.name for issue in profile.issues]
    offer, _ = min(
        qualifying, key=lambda entry: (entry[1], tuple(entry[0].choices[n] for n in names))
    )
    return offer


# labels whose sort order differs from their option order: "B" < "a", "o10" < "o2"
TIE_LABELS = ("o2", "o10", "a", "B", "o1", "Z")


def tie_heavy_profile(rng: random.Random, agent_id: str) -> PreferenceProfile:
    """1-4 issues with small integer ratings, so many offers share a utility."""
    issues = []
    for i in range(rng.randint(1, 4)):
        labels = rng.sample(TIE_LABELS, rng.randint(2, len(TIE_LABELS)))
        ratings = [0.0] + [float(rng.randint(1, 3)) for _ in labels[1:]]
        rng.shuffle(ratings)
        issues.append(Issue(f"issue{i}", tuple(map(IssueOption, labels, ratings))))
    cuts = sorted(rng.sample(range(1, 100), len(issues) - 1))
    weights = [float(b - a) for a, b in zip([0] + cuts, cuts + [100])]
    return make_profile(agent_id, issues, dict(zip((iss.name for iss in issues), weights)), 10)


def test_offer_for_target_matches_the_sorted_scan():
    rng = random.Random(5)
    cases = 0
    for n in range(150):
        profile = tie_heavy_profile(rng, f"agent{n}")
        pool = enumerate_offers(profile, zero_free=True)  # best first, ties lexicographic
        utilities = sorted({u for _, u in pool})
        targets = [-5.0, 0.0, 100.0, 100.0 + 1e-6, 150.0]
        for u in utilities:
            targets += [u, u - 1e-9, u + 1e-9, u - 2e-9, u + 2e-9]
        table = OfferTable(profile)  # as in a session: built once per profile, reused per target
        for target in targets:
            expected = scan_offer_for_target(profile, pool, target)
            offer = offer_for_target(profile, target)
            assert list(offer.choices.items()) == list(expected.choices.items()), (n, target)
            picked = FixedTargetTactic(target).propose(table, SessionTrace(), 0)
            assert list(picked.choices.items()) == list(expected.choices.items()), (n, target)
            cases += 1
    assert cases > 2000


def zero_free_utilities(profile):
    return sorted({u for _, u in enumerate_offers(profile, zero_free=True)})


def every_pick(profile):
    """Each zero-free utility, its neighbours within 1e-9 and the extremes, as targets."""
    targets = [-5.0, 150.0]
    for u in zero_free_utilities(profile):
        targets += [u, u - 1e-9, u + 1e-9]
    return targets


def test_table_utility_is_total_profit_bit_for_bit():
    # served offers take their sort key; the other party's offers and equal
    # copies are scored: every path must give the float total_profit gives
    rng = random.Random(23)
    checked = 0
    for n in range(100):
        profiles = (tie_heavy_profile(rng, f"agent{n}"),)
        profiles += (rerated(rng, profiles[0], "partner"),)
        tables = tuple(map(OfferTable, profiles))
        for mine, theirs in ((0, 1), (1, 0)):
            for target in every_pick(profiles[mine]):
                served = tables[mine].offer(target)
                copy = OfferVector(dict(served.choices))
                for k in (mine, theirs):
                    expected = total_profit(profiles[k], served).hex()
                    for offer in (served, copy, served):  # the second lookup is remembered
                        utility = tables[k].utility(offer)
                        assert type(utility) is float
                        assert utility.hex() == expected, (n, target, k)
                        checked += 1
    assert checked > 5000


def test_a_repeated_pick_is_the_same_offer():
    rng = random.Random(29)
    for n in range(100):
        profile = tie_heavy_profile(rng, f"agent{n}")
        table = OfferTable(profile)
        picks = {}
        for target in every_pick(profile):
            offer = table.offer(target)
            assert table.offer(target) is offer
            # targets within 1e-9 of one utility pick one position, so one object
            assert picks.setdefault(tuple(offer.choices.items()), offer) is offer
        assert len(picks) == len(zero_free_utilities(profile))


def test_table_utility_of_a_malformed_offer_raises():
    table = OfferTable(ladder_profile())
    for choices in ({}, {"value": "p11"}, {"value": "p5", "other": "x"}):
        for _ in range(2):  # a failed score is not remembered
            with pytest.raises(InvalidOfferError):
                table.utility(OfferVector(choices))


def test_a_session_scores_each_offer_once_per_table(monkeypatch):
    rng = random.Random(31)
    scored, kept = Counter(), []

    def counting_total_profit(profile, offer):
        scored[profile.agent_id, id(offer)] += 1
        kept.append(offer)  # no id is reused while the counts are read
        return total_profit(profile, offer)

    monkeypatch.setattr(negosim.tactics, "total_profit", counting_total_profit)
    rows = shared = 0
    for n in range(20):
        a = replace(tie_heavy_profile(rng, "a"), deadline=rng.randint(10, 40))
        b = rerated(rng, a, "b")
        tactic = TimeDependentTactic(beta=rng.choice((0.5, 1.0, 2.0)))
        scored.clear()
        outcome, trace = run_session(a, b, tactic, tactic, max_rounds=60, opener=rng.choice("ab"))
        assert scored and max(scored.values()) == 1, n
        offers = [row.offer for row in trace if row.action == "offer"]
        rows += len(offers)
        shared += len(offers) - len({id(offer) for offer in offers})
        for row in trace:
            receiver = b if row.proposer == "a" else a
            assert row.utility_receiver == total_profit(receiver, row.offer)
    assert shared > rows / 2  # most picks repeat an earlier one and share its object


def test_offer_for_target_keeps_nothing_per_profile():
    # a table kept per profile would be multiplied by every profile alive at once
    rng = random.Random(11)

    def five_by_five(n):
        issues = []
        for i in range(5):
            ratings = [0.0] + [rng.uniform(1.0, 100.0) for _ in range(4)]
            options = tuple(IssueOption(f"o{j}", r) for j, r in enumerate(ratings))
            issues.append(Issue(f"i{i}", options))
        return make_profile(f"agent{n}", issues, {f"i{i}": 20.0 for i in range(5)}, 10)

    profiles = [five_by_five(n) for n in range(256)]
    tracemalloc.start()
    try:
        offer_for_target(five_by_five(-1), 50.0)  # warm-up
        before, _ = tracemalloc.get_traced_memory()
        for profile in profiles:
            offer_for_target(profile, 50.0)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_run_session_keeps_no_offer_table():
    # the kept traces hold rows only: a table left on each would cost 256 x 16 KB
    rng = random.Random(11)

    def five_by_five(n):
        issues = []
        for i in range(5):
            ratings = [0.0] + [rng.uniform(1.0, 100.0) for _ in range(4)]
            options = tuple(IssueOption(f"o{j}", r) for j, r in enumerate(ratings))
            issues.append(Issue(f"i{i}", options))
        return make_profile(f"agent{n}", issues, {f"i{i}": 20.0 for i in range(5)}, 10)

    tactic = TimeDependentTactic(beta=2.0)

    def play(profiles):
        pairs = zip(profiles[::2], profiles[1::2])
        return [run_session(a, b, tactic, tactic, max_rounds=20) for a, b in pairs]

    profiles = [five_by_five(n) for n in range(256)]
    warm_up = [five_by_five(n) for n in range(256, 512)]
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    # a full collection empties the free lists; one that fell between the
    # warm-up and the first reading would count their refill as kept memory
    gc.disable()
    tracemalloc.start()
    try:
        # freed objects parked on the interpreter's free lists still count as
        # traced, so fill those lists first, with profiles that are then dropped
        play(warm_up)
        del warm_up
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        total_before, _ = tracemalloc.get_traced_memory()
        results = play(profiles)
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
        del results
        total_after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    kept_arrays = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert kept_arrays < 64 * 1024  # with the traces kept
    assert total_after - total_before < 64 * 1024  # nothing kept per profile


class TestTacticFromDict:
    def test_round_trip_build(self):
        tactic = tactic_from_dict({"family": "time-dependent", "k": 0.1, "beta": 2.0})
        assert isinstance(tactic, TimeDependentTactic)
        assert tactic.k == 0.1 and tactic.beta == 2.0

    def test_mixture_spec(self):
        tactic = tactic_from_dict(
            {
                "family": "mixed",
                "mixture": [
                    {"weight": 0.6, "family": "time-dependent", "beta": 0.5},
                    {"weight": 0.4, "family": "behavior-dependent", "delta": 2},
                ],
            }
        )
        assert isinstance(tactic, MixedTactic)
        assert isinstance(tactic.components[1][1], BehaviorDependentTactic)

    def test_resource_family(self):
        tactic = tactic_from_dict({"family": "resource-dependent", "k": 0.2})
        assert isinstance(tactic, ResourceDependentTactic)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            tactic_from_dict({"family": "psychic"})


@pytest.mark.parametrize(
    "make",
    [
        lambda: TimeDependentTactic(beta=-1.0),
        lambda: TimeDependentTactic(beta=math.nan),
        lambda: TimeDependentTactic(k=2.0),
        lambda: ResourceDependentTactic(k=-0.1),
        lambda: BehaviorDependentTactic(delta=0),
        lambda: BehaviorDependentTactic(delta=1.5),
        lambda: BehaviorDependentTactic(delta=True),
    ],
    ids=["beta-negative", "beta-nan", "k-above-1", "k-negative", "delta-0", "delta-float", "delta-bool"],
)
def test_out_of_range_parameter_rejected_at_construction(make):
    with pytest.raises(ParameterError):
        make()
