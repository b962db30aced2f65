import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from negosim import protocol
from negosim.coordination import CoordinationPlan, run_one_to_many
from negosim.domain import (
    InvalidProfileError,
    Issue,
    IssueOption,
    OfferVector,
    PreferenceProfile,
    reservation_utility,
    total_profit,
)
from negosim.harness import bundled_scenario, load_scenario, run_batch
from negosim.prediction import PredictorConfig
from negosim.protocol import (
    Accept,
    NegotiationState,
    Offer,
    SessionTrace,
    SetupError,
    TraceRow,
    Withdraw,
    _check_alphabets,
    check_termination,
    respond,
    run_session,
)
from negosim.tactics import (
    BehaviorDependentTactic,
    MixedTactic,
    OfferTable,
    ResourceDependentTactic,
    Tactic,
    TimeDependentTactic,
)

from conftest import ladder_profile, random_offer, random_profile
from perfbench.checks import PartySpec, session_violations


def ladder_offer(utility):
    return OfferVector({"value": f"p{int(utility) // 10}"})


def incoming_trace(profile, utilities):
    trace = SessionTrace()
    for i, u in enumerate(utilities):
        trace.append(
            TraceRow(i, "opponent", ladder_offer(u), 100.0 - u, u, "offer")
        )
    return trace


class TestRespond:
    def test_withdraw_past_deadline(self):
        profile = ladder_profile(deadline=10)
        state = NegotiationState(round=11)
        response = respond(profile, state, ladder_offer(90), ladder_offer(80))
        assert isinstance(response, Withdraw)

    def test_accept_on_strict_dominance(self):
        profile = ladder_profile(deadline=10)
        state = NegotiationState(round=5)
        response = respond(profile, state, ladder_offer(80), ladder_offer(70))
        assert isinstance(response, Accept)

    def test_counter_when_incoming_is_worse(self):
        profile = ladder_profile(deadline=10)
        state = NegotiationState(round=5)
        planned = ladder_offer(70)
        response = respond(profile, state, ladder_offer(60), planned)
        assert isinstance(response, Offer)
        assert response.counter is planned

    def test_tie_counters_instead_of_accepting(self):
        profile = ladder_profile(deadline=10)
        state = NegotiationState(round=5)
        response = respond(profile, state, ladder_offer(70), ladder_offer(70))
        assert isinstance(response, Offer)

    def test_accept_embeds_incoming_unchanged(self):
        profile = ladder_profile(deadline=10)
        incoming = ladder_offer(90)
        response = respond(profile, NegotiationState(round=5), incoming, ladder_offer(50))
        assert response.offer is incoming


class TestCheckTermination:
    def test_threshold_option_terminates(self):
        profile = ladder_profile()
        trace = incoming_trace(profile, [50.0, 0.0])  # p0 is the zero-rated option
        assert check_termination(trace, profile) == "threshold"

    def test_strictly_decreasing_window_terminates(self):
        profile = ladder_profile()
        trace = incoming_trace(profile, [50.0, 40.0, 30.0])
        assert check_termination(trace, profile, window=3) == "diverging"

    def test_non_monotone_window_continues(self):
        profile = ladder_profile()
        trace = incoming_trace(profile, [50.0, 40.0, 70.0])
        assert check_termination(trace, profile, window=3) is None

    def test_short_history_continues(self):
        profile = ladder_profile()
        trace = incoming_trace(profile, [50.0, 40.0])
        assert check_termination(trace, profile, window=3) is None

    def test_empty_trace_continues(self):
        assert check_termination(SessionTrace(), ladder_profile()) is None


class TestRunSession:
    def test_overlapping_zones_reach_agreement(self, aircraft_scenario):
        a, b = aircraft_scenario.agents
        outcome, trace = run_session(
            a.profile, b.profile, a.tactic, b.tactic,
            max_rounds=60, opener=b.id,
        )
        assert outcome.kind == "agreement"
        assert outcome.round <= min(a.profile.deadline, b.profile.deadline)

    def test_disjoint_zones_never_agree(self, disjoint_scenario):
        x, y = disjoint_scenario.agents
        outcome, _ = run_session(
            x.profile, y.profile, x.tactic, y.tactic,
            max_rounds=60, opener=x.id,
        )
        assert outcome.kind in ("withdrawal", "deadline-expiry")

    def test_zero_max_rounds_expires_immediately(self):
        a = ladder_profile("a")
        b = ladder_profile("b")
        outcome, trace = run_session(
            a, b, TimeDependentTactic(), TimeDependentTactic(), max_rounds=0
        )
        assert outcome.kind == "deadline-expiry"
        assert outcome.round == 0
        assert len(trace) == 0

    def test_trace_rounds_contiguous_and_alternating(self, aircraft_scenario):
        a, b = aircraft_scenario.agents
        _, trace = run_session(
            a.profile, b.profile, a.tactic, b.tactic,
            max_rounds=60, opener=b.id,
        )
        rounds = [row.round for row in trace.rows]
        assert rounds == list(range(len(trace)))
        proposers = [row.proposer for row in trace.rows]
        assert all(p1 != p2 for p1, p2 in zip(proposers, proposers[1:]))

    def test_identical_inputs_identical_traces(self, aircraft_scenario):
        a, b = aircraft_scenario.agents

        def go():
            return run_session(
                a.profile, b.profile, a.tactic, b.tactic,
                max_rounds=60, opener=b.id,
            )

        (out1, tr1), (out2, tr2) = go(), go()
        assert out1 == out2
        assert tr1.rows == tr2.rows

    def test_accept_beats_own_planned_counter(self, aircraft_scenario):
        a, b = aircraft_scenario.agents
        outcome, trace = run_session(
            a.profile, b.profile, a.tactic, b.tactic,
            max_rounds=60, opener=b.id,
        )
        assert outcome.kind == "agreement"
        accepter = trace.rows[-1].proposer
        profile = a.profile if accepter == a.id else b.profile
        accepted_value = total_profit(profile, outcome.offer)
        # the counter the accepter would have sent scores strictly less
        spec = a if accepter == a.id else b
        planned = spec.tactic.propose(OfferTable(profile), trace, outcome.round)
        assert accepted_value > total_profit(profile, planned)

    def test_incompatible_alphabets_rejected(self, aircraft_scenario):
        a = aircraft_scenario.agents[0]
        with pytest.raises(SetupError):
            run_session(
                a.profile, ladder_profile("b"), TimeDependentTactic(), TimeDependentTactic()
            )

    def test_malformed_offer_is_withdrawal_by_violator(self):
        class BrokenTactic(Tactic):
            def propose(self, table, trace, round):
                return OfferVector({"value": "no-such-option"})

            def target(self, table, trace, round):
                return 100.0

        a = ladder_profile("a")
        b = ladder_profile("b")
        outcome, _ = run_session(a, b, BrokenTactic(), TimeDependentTactic())
        assert outcome.kind == "withdrawal"
        assert outcome.party == "a"


def alphabet_profile(agent_id, menus):
    """A profile over ``menus``, a list of (issue name, option labels) in order."""
    issues = tuple(
        Issue(name, tuple(IssueOption(label, float(i)) for i, label in enumerate(labels)))
        for name, labels in menus
    )
    return PreferenceProfile(agent_id, issues, {}, deadline=5)


MENUS = st.lists(
    st.tuples(st.sampled_from("xyz"), st.lists(st.sampled_from("abcd"), max_size=5)), max_size=4
)


@st.composite
def alphabet_pairs(draw):
    """Two issue lists: one drawn, the other the same reordered, or with a
    label missing or added, an extra issue, or a label repeated."""
    menus = draw(MENUS)
    other = [(name, list(labels)) for name, labels in draw(st.permutations(menus))]
    change = draw(st.sampled_from(["none", "drop label", "add label", "add issue", "repeat label"]))
    if change == "add issue":
        other.append((draw(st.sampled_from("xyzw")), draw(st.lists(st.sampled_from("abcd")))))
    elif other and change != "none":
        name, labels = draw(st.sampled_from(other))
        if change == "add label":
            labels.append(draw(st.sampled_from("abcde")))
        elif labels and change == "drop label":
            labels.remove(draw(st.sampled_from(labels)))
        elif labels and change == "repeat label":
            labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(labels)))
    return menus, other


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(pair=alphabet_pairs())
def test_alphabet_check_is_the_set_of_labels_rule(pair):
    # the rule the check replaces: each issue name maps to the set of its labels,
    # the last of duplicate issue names winning, and both maps must be equal
    a, b = alphabet_profile("a", pair[0]), alphabet_profile("b", pair[1])
    shared = {i.name: set(i.labels()) for i in a.issues} == {
        i.name: set(i.labels()) for i in b.issues
    }
    if shared:
        _check_alphabets(a, b)
    else:
        with pytest.raises(SetupError) as info:
            _check_alphabets(a, b)
        assert str(info.value) == "profiles 'a' and 'b' do not share an issue/option alphabet"


def test_respond_branches_exclusive_and_exhaustive_randomized():
    rng = random.Random(987)
    for _ in range(2000):
        profile = random_profile(rng, "me")
        state = NegotiationState(round=rng.randint(0, 30))
        incoming = OfferVector(random_offer(rng, profile))
        planned = OfferVector(random_offer(rng, profile))
        response = respond(profile, state, incoming, planned)
        past_deadline = state.round > profile.deadline
        dominates = total_profit(profile, incoming) > total_profit(profile, planned)
        if past_deadline:
            assert isinstance(response, Withdraw)
        elif dominates:
            assert isinstance(response, Accept)
        else:
            assert isinstance(response, Offer)


def rerated(rng, profile, agent_id):
    """The same issue alphabet and weights with each issue's ratings shuffled."""
    issues = []
    for issue in profile.issues:
        ratings = [opt.rating for opt in issue.options]
        rng.shuffle(ratings)
        options = tuple(IssueOption(opt.label, r) for opt, r in zip(issue.options, ratings))
        issues.append(Issue(issue.name, options))
    return replace(profile, agent_id=agent_id, issues=tuple(issues), deadline=rng.randint(1, 20))


def random_tactic(rng):
    time = TimeDependentTactic(k=rng.uniform(0.0, 0.5), beta=rng.choice((0.5, 1.0, 2.0)))
    resource = ResourceDependentTactic(k=rng.uniform(0.0, 0.5))
    behavior = BehaviorDependentTactic(delta=rng.randint(1, 2))
    w = rng.random()
    mixed = MixedTactic(components=((w, time), (1.0 - w, behavior)))
    return rng.choice((time, resource, behavior, mixed))


def test_recorded_utilities_are_the_profiles_scores_randomized():
    # readers take utilities from the trace instead of rescoring, so every
    # recorded value must be exactly what total_profit gives
    rng = random.Random(4242)
    kinds = set()
    for _ in range(200):
        a = random_profile(rng, "a")
        b = rerated(rng, a, "b")
        profiles = {"a": a, "b": b}
        predictor = PredictorConfig(enabled=True, warmup=rng.randint(2, 5))
        outcome, trace = run_session(
            a, b, random_tactic(rng), random_tactic(rng),
            predictor_config=predictor, max_rounds=30, opener=rng.choice("ab"),
        )
        kinds.add(outcome.kind)
        for row in trace:
            receiver = "b" if row.proposer == "a" else "a"
            assert row.utility_proposer == total_profit(profiles[row.proposer], row.offer)
            assert row.utility_receiver == total_profit(profiles[receiver], row.offer)
        if outcome.kind == "agreement":
            assert list(outcome.utilities.items()) == [
                (agent, total_profit(profile, outcome.offer)) for agent, profile in profiles.items()
            ]
    assert {"agreement", "early-termination"} <= kinds


ROW_FIELDS = ("round", "proposer", "offer", "utility_proposer", "utility_receiver", "action")


def test_a_trace_row_is_immutable_with_six_fields_in_order():
    row = TraceRow(0, "a", ladder_offer(50.0), 50.0, 50.0, "offer")
    assert TraceRow._fields == ROW_FIELDS
    for name in ROW_FIELDS:
        with pytest.raises(AttributeError):
            setattr(row, name, None)
    assert row == tuple(getattr(row, name) for name in ROW_FIELDS)


def test_session_rows_equal_rows_rebuilt_field_by_field():
    rng = random.Random(4343)
    rows = 0
    for _ in range(50):
        a = random_profile(rng, "a")
        _, trace = run_session(a, rerated(rng, a, "b"), random_tactic(rng), random_tactic(rng),
                               max_rounds=30, opener=rng.choice("ab"))
        for row in trace:
            rebuilt = TraceRow(*(getattr(row, name) for name in ROW_FIELDS))
            assert type(row) is TraceRow and row == rebuilt
            rows += 1
    assert rows > 200


@pytest.mark.parametrize("window", [1, -1])
def test_divergence_window_of_one_rejected(window):
    # one offer is not a trend: a window of 1 would end every session at its first reply
    a, b = ladder_profile("a"), ladder_profile("b")
    with pytest.raises(SetupError):
        run_session(a, b, TimeDependentTactic(), TimeDependentTactic(), divergence_window=window)


SESSION_RUNNERS = {
    "run_session": lambda a, b, **settings: run_session(
        a, b, TimeDependentTactic(), TimeDependentTactic(), **settings
    ),
    "run_one_to_many": lambda a, b, **settings: run_one_to_many(
        a, TimeDependentTactic(), [(b, TimeDependentTactic())], CoordinationPlan("patient"),
        **settings,
    ),
}


@pytest.mark.parametrize("runner", sorted(SESSION_RUNNERS))
@pytest.mark.parametrize(
    "setting, value",
    [
        ("max_rounds", 2.5),
        ("max_rounds", True),
        ("max_rounds", -3),
        ("max_rounds", "3"),
        ("divergence_window", 2.5),
        ("divergence_window", True),
        ("divergence_window", "3"),
    ],
)
def test_session_settings_are_checked(runner, setting, value):
    # 2.5 rounds would run 3, True would run 1 and -3 would expire at round 0
    a, b = ladder_profile("a"), ladder_profile("b")
    with pytest.raises(SetupError, match=setting):
        SESSION_RUNNERS[runner](a, b, **{setting: value})


@pytest.mark.parametrize("max_rounds", [0, 1])
def test_offer_tables_are_built_before_round_0(max_rounds):
    # "b" has no offer without a zero-rated option; the loader never builds such a
    # profile. With one round only "a" acts, yet both tables exist before round 0.
    a = PreferenceProfile("a", (Issue("x", (IssueOption("z", 50.0),)),), {"x": 100.0}, 5)
    b = PreferenceProfile("b", (Issue("x", (IssueOption("z", 0.0),)),), {"x": 100.0}, 5)
    with pytest.raises(InvalidProfileError, match="no positively rated option"):
        run_session(a, b, TimeDependentTactic(), TimeDependentTactic(), max_rounds=max_rounds)


def test_a_tactic_defining_only_target_plays_a_session(aircraft_scenario):
    class LinearConceder(Tactic):
        """TimeDependentTactic(k=0, beta=1), written against the offer table."""

        def target(self, table, trace, round):
            share = min(round, table.profile.deadline) / table.profile.deadline
            return 100.0 - share * (100.0 - table.reservation)

    a, b = aircraft_scenario.agents
    custom = run_session(a.profile, b.profile, LinearConceder(), b.tactic, opener=b.id)
    builtin = run_session(a.profile, b.profile, TimeDependentTactic(), b.tactic, opener=b.id)
    assert custom[0].kind == "agreement"
    assert custom[0] == builtin[0]
    assert custom[1].rows == builtin[1].rows


def test_single_offer_is_not_a_diverging_trend():
    profile = ladder_profile()
    trace = incoming_trace(profile, [50.0])
    assert check_termination(trace, profile, window=1) is None
    assert check_termination(trace, profile, window=0) is None


def whole_trace_check(trace, profile, window):
    """Reference: the termination rules over every incoming offer of the trace."""
    incoming = [r for r in trace if r.proposer != profile.agent_id and r.action == "offer"]
    if not incoming:
        return None
    if any(incoming[-1].offer.choices[i.name] in i.zero_rated_labels for i in profile.issues):
        return "threshold"
    if window >= 2 and len(incoming) >= window:
        utilities = [row.utility_receiver for row in incoming[-window:]]
        if all(b < a for a, b in zip(utilities, utilities[1:])):
            return "diverging"
    return None


def test_check_termination_matches_the_whole_trace_rules_randomized():
    rng = random.Random(77)
    verdicts = set()
    for _ in range(500):
        profile = ladder_profile()
        trace = SessionTrace()
        for r in range(rng.randint(0, 12)):
            proposer = rng.choice((profile.agent_id, "opponent"))
            action = "offer" if rng.random() < 0.9 else "withdraw"
            u = float(rng.choice(range(0, 101, 10)))
            trace.append(TraceRow(r, proposer, ladder_offer(u), 100.0 - u, u, action))
        for window in (0, 1, 2, 3, 4):
            verdict = check_termination(trace, profile, window)
            assert verdict == whole_trace_check(trace, profile, window)
            verdicts.add(verdict)
    assert verdicts == {None, "threshold", "diverging"}


def test_session_replies_follow_respond_randomized():
    # run_session decides each reply from recorded utilities; respond() is the law
    rng = random.Random(2718)
    kinds, actions = set(), set()
    for n in range(300):
        a = random_profile(rng, "a")
        b = rerated(rng, a, "b")
        profiles = {"a": a, "b": b}
        tactics = {"a": random_tactic(rng), "b": random_tactic(rng)}
        predictor = PredictorConfig(enabled=True, warmup=rng.randint(2, 5))
        # deadlines are at most 20, so only a shorter session can expire
        max_rounds = 30 if n % 5 else rng.randint(2, 10)
        outcome, trace = run_session(
            a, b, tactics["a"], tactics["b"],
            predictor_config=predictor, max_rounds=max_rounds, opener=rng.choice("ab"),
        )
        kinds.add(outcome.kind)
        rows = trace.rows
        for r in range(1, len(rows)):
            row = rows[r]
            if row.action == "offer":
                planned = row.offer
            else:
                replay = SessionTrace()
                for earlier in rows[:r]:
                    replay.append(earlier)
                table = OfferTable(profiles[row.proposer])
                planned = tactics[row.proposer].propose(table, replay, r)
            state = NegotiationState(round=r)
            response = respond(profiles[row.proposer], state, rows[r - 1].offer, planned)
            if row.action == "offer":
                assert isinstance(response, Offer), (r, row)
            elif row.action == "withdraw":
                assert isinstance(response, Withdraw), (r, row)
            elif row.action == "accept":
                assert isinstance(response, Accept), (r, row)
            else:
                assert row.action.startswith("terminate-")
                assert not isinstance(response, Withdraw), (r, row)
            actions.add(row.action)
    assert kinds == {"agreement", "withdrawal", "early-termination", "deadline-expiry"}
    assert {"offer", "accept", "withdraw"} <= actions
    assert any(action.startswith("terminate-") for action in actions)


def party_spec(profile):
    ratings = {i.name: {o.label: o.rating for o in i.options} for i in profile.issues}
    return PartySpec(profile.agent_id, ratings, dict(profile.weights), profile.deadline)


def sharing_zeros(rng, profile, agent_id):
    """Like :func:`rerated`, but each issue keeps its zero-rated option, so no
    offer trips the threshold rule and sessions run into deep concessions."""
    issues = []
    for issue in profile.issues:
        positive = [opt.rating for opt in issue.options if opt.rating != 0]
        rng.shuffle(positive)
        ratings = iter(positive)
        options = tuple(
            IssueOption(opt.label, opt.rating if opt.rating == 0 else next(ratings))
            for opt in issue.options
        )
        issues.append(Issue(issue.name, options))
    return replace(profile, agent_id=agent_id, issues=tuple(issues), deadline=rng.randint(1, 40))


def test_session_properties_randomized():
    # contiguous rounds, agreements only from a final accept row, no party
    # offering its own zero-rated option or anything below its reservation
    rng = random.Random(1618)
    kinds = set()
    for n in range(300):
        a = random_profile(rng, "a")
        if n % 3 == 0:  # a pinned reservation puts offers below it in the offer table
            a = replace(a, reservation_utility=rng.uniform(0.0, 90.0))
        b = (rerated if n % 2 else sharing_zeros)(rng, a, "b")
        profiles = {"a": a, "b": b}
        outcome, trace = run_session(
            a, b, random_tactic(rng), random_tactic(rng),
            predictor_config=PredictorConfig(enabled=True, warmup=rng.randint(0, 5)),
            max_rounds=50 if n % 5 else rng.randint(2, 10), opener=rng.choice("ab"),
        )
        kinds.add(outcome.kind)
        parties = {agent: party_spec(profile) for agent, profile in profiles.items()}
        assert session_violations(parties, outcome, trace) == []
        for row in trace:
            if row.action == "offer":
                floor = reservation_utility(profiles[row.proposer]) - 1e-9
                assert row.utility_proposer >= floor, row
    assert kinds == {"agreement", "withdrawal", "early-termination", "deadline-expiry"}


@pytest.fixture
def built(monkeypatch):
    """(agent id, weak reference) for every OfferTable run_session builds, in order."""
    tables = []

    class Recorded(OfferTable):
        def __init__(self, profile):
            super().__init__(profile)
            tables.append((profile.agent_id, weakref.ref(self)))

    monkeypatch.setattr(protocol, "OfferTable", Recorded)
    return tables


@pytest.mark.parametrize(
    "name, profiles",
    [("aircraft.scenario", 2), ("disjoint.scenario", 2), ("aircraft_market.scenario", 4)],
)
def test_a_batch_builds_each_profiles_table_once_and_frees_it(built, name, profiles):
    scenario = load_scenario(bundled_scenario(name))
    result = run_batch(scenario, 5)
    assert sorted(agent for agent, _ in built) == sorted(spec.id for spec in scenario.agents)
    assert len(built) == profiles
    # the result is still held, yet no table outlives the call
    assert len(result.records) == 5
    assert [agent for agent, table in built if table() is not None] == []


def test_run_one_to_many_builds_the_buyers_table_once(built, market_scenario):
    buyer = market_scenario.agent(market_scenario.buyer_id)
    suppliers = [market_scenario.agent(s) for s in market_scenario.supplier_ids]
    _, results, _ = run_one_to_many(
        buyer.profile, buyer.tactic, [(s.profile, s.tactic) for s in suppliers],
        market_scenario.plan, max_rounds=market_scenario.max_rounds,
    )
    assert len(results) == 3
    assert [agent for agent, _ in built] == [buyer.id, *(s.id for s in suppliers)]


def test_a_table_built_for_another_profile_is_not_used():
    a = ladder_profile("a")
    reversed_ladder = tuple(IssueOption(o.label, 100.0 - o.rating) for o in a.issues[0].options)
    b = replace(a, agent_id="b", issues=(Issue("value", reversed_ladder),))
    # the same agent id and alphabet as "a", but it rates the options as "b" does
    impostor = replace(b, agent_id="a")
    stale = OfferTable(impostor)
    tables = {id(a): stale}
    tactic = TimeDependentTactic()
    shared = run_session(a, b, tactic, tactic, tables=tables)
    fresh = run_session(a, b, tactic, tactic)
    assert tables[id(a)] is not stale and tables[id(a)].profile is a
    assert shared[0] == fresh[0]
    assert shared[1].rows == fresh[1].rows


class Minting(Tactic):
    """Its inner tactic's offer, copied: no offer it makes recurs by identity."""

    def __init__(self, inner: Tactic):
        self.inner = inner

    def propose(self, table, trace, round):
        return OfferVector(choices=dict(self.inner.propose(table, trace, round).choices))


def row_fields(trace):
    return [
        (r.round, r.proposer, dict(r.offer.choices), r.utility_proposer, r.utility_receiver, r.action)
        for r in trace
    ]


def test_shared_tables_change_no_session_randomized():
    # sessions over a pool of profiles, each played through one dict of tables
    # kept across them and again with tables of its own
    rng = random.Random(2020)
    kinds, fallbacks, minted = set(), 0, 0
    for _ in range(40):
        base = random_profile(rng, "p0")
        # two profiles of agent "p1": a table is its profile's, not its agent's
        pool = [base] + [(rerated if i % 2 else sharing_zeros)(rng, base, f"p{i}") for i in (1, 2, 1)]
        pinned = rng.randrange(len(pool))
        pool[pinned] = replace(pool[pinned], reservation_utility=rng.uniform(0.0, 90.0))
        tables = {}
        for _ in range(10):
            a, b = rng.sample(pool, 2)
            while a.agent_id == b.agent_id:
                a, b = rng.sample(pool, 2)
            tactic_a, tactic_b = random_tactic(rng), random_tactic(rng)
            if rng.random() < 0.25:
                tactic_a, minted = Minting(tactic_a), minted + 1
            armed = PredictorConfig(enabled=True, warmup=rng.randint(0, 4))
            session = dict(
                profile_a=a, profile_b=b, tactic_a=tactic_a, tactic_b=tactic_b,
                predictor_config=rng.choice((None, armed, {b.agent_id: armed})),
                max_rounds=rng.randint(2, 40), opener=rng.choice((a.agent_id, b.agent_id)),
            )
            shared = run_session(**session, tables=tables)
            fresh = run_session(**session)
            assert shared[0] == fresh[0]
            assert row_fields(shared[1]) == row_fields(fresh[1])
            assert shared[1].metadata["fallbacks"] == fresh[1].metadata["fallbacks"]
            kinds.add(fresh[0].kind)
            fallbacks += len(fresh[1].metadata["fallbacks"])
        assert len(tables) <= len(pool)
        assert all(tables[id(table.profile)] is table for table in tables.values())
    assert kinds == {"agreement", "withdrawal", "early-termination", "deadline-expiry"}
    assert fallbacks > 0 and minted > 0
