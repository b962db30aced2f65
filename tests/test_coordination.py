import random

import pytest

from negosim.coordination import (
    ContractChoice,
    CoordinationPlan,
    PlanError,
    SubBuyerResult,
    coordinate,
    coordinate_adapted,
    coordinate_desperate,
    coordinate_patient,
    run_one_to_many,
)
from negosim.domain import Issue, IssueOption, make_profile
from negosim.protocol import SessionOutcome
from negosim.tactics import TimeDependentTactic

from conftest import ladder_profile


def result(thread_id, round, utility, kind="agreement"):
    outcome = SessionOutcome(
        kind=kind,
        round=round,
        offer=None,
        party=f"supplier_{thread_id}",
        reason=None,
        utilities={},
    )
    return SubBuyerResult(
        thread_id=thread_id,
        supplier_id=f"supplier_{thread_id}",
        outcome=outcome,
        completion_round=round,
        utility=utility if kind == "agreement" else None,
    )


class TestPlan:
    def test_adapted_requires_theta(self):
        with pytest.raises(PlanError):
            CoordinationPlan(strategy="adapted")

    def test_theta_only_for_adapted(self):
        with pytest.raises(PlanError):
            CoordinationPlan(strategy="patient", theta=50.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanError):
            CoordinationPlan(strategy="impatient")


class TestDesperate:
    def test_earliest_success_wins(self):
        results = [result(0, 5, 90.0), result(1, 3, 60.0)]
        choice = coordinate_desperate(results)
        assert choice.thread_id == 1
        assert choice.round == 3
        assert choice.utility == 60.0

    def test_same_round_tie_goes_to_higher_utility(self):
        results = [result(0, 4, 60.0), result(1, 4, 80.0)]
        assert coordinate_desperate(results).utility == 80.0

    def test_full_tie_goes_to_lowest_thread_id(self):
        results = [result(1, 4, 70.0), result(0, 4, 70.0)]
        assert coordinate_desperate(results).thread_id == 0

    def test_failures_skipped(self):
        results = [result(0, 2, None, kind="withdrawal"), result(1, 6, 55.0)]
        choice = coordinate_desperate(results)
        assert choice.thread_id == 1 and choice.round == 6

    def test_no_success_returns_none(self):
        results = [result(0, 2, None, kind="withdrawal")]
        assert coordinate_desperate(results) is None

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            coordinate_desperate([])


class TestPatient:
    def test_best_utility_wins_regardless_of_timing(self):
        results = [result(0, 3, 55.0), result(1, 9, 70.0), result(2, 5, 65.0)]
        choice = coordinate_patient(results)
        assert choice.thread_id == 1
        assert choice.utility == 70.0

    def test_decision_round_is_slowest_completion(self):
        results = [result(0, 3, 90.0), result(1, 12, None, kind="deadline-expiry")]
        choice = coordinate_patient(results)
        assert choice.thread_id == 0
        assert choice.round == 12

    def test_utility_tie_goes_to_earlier_round(self):
        results = [result(0, 8, 70.0), result(1, 4, 70.0)]
        assert coordinate_patient(results).thread_id == 1

    def test_full_tie_goes_to_lowest_thread_id(self):
        results = [result(2, 4, 70.0), result(1, 4, 70.0)]
        assert coordinate_patient(results).thread_id == 1

    def test_no_success_returns_none(self):
        results = [result(0, 2, None, kind="withdrawal")]
        assert coordinate_patient(results) is None

    def test_empty_rejected(self):
        with pytest.raises(PlanError, match="^coordination needs at least one sub-buyer thread$"):
            coordinate_patient([])


class TestAdapted:
    def test_first_good_enough_wins(self):
        results = [result(0, 3, 60.0), result(1, 7, 95.0)]
        choice = coordinate_adapted(results, theta=55.0)
        assert choice.thread_id == 0
        assert choice.round == 3

    def test_below_threshold_falls_back_to_patient(self):
        results = [result(0, 3, 60.0), result(1, 7, 95.0)]
        choice = coordinate_adapted(results, theta=75.0)
        assert choice.thread_id == 1
        assert choice.round == 7  # patient waits for every thread

    def test_theta_zero_matches_desperate(self):
        results = [result(0, 5, 90.0), result(1, 3, 60.0), result(2, 3, 62.0)]
        assert coordinate_adapted(results, theta=0.0) == coordinate_desperate(results)

    def test_theta_above_scale_matches_patient(self):
        results = [result(0, 3, 55.0), result(1, 9, 70.0), result(2, 5, 65.0)]
        assert coordinate_adapted(results, theta=101.0) == coordinate_patient(results)

    def test_exact_threshold_qualifies(self):
        results = [result(0, 3, 75.0), result(1, 7, 95.0)]
        assert coordinate_adapted(results, theta=75.0).thread_id == 0

    def test_negative_theta_rejected(self):
        with pytest.raises(PlanError):
            coordinate_adapted([result(0, 3, 75.0)], theta=-1.0)

    def test_empty_rejected(self):
        with pytest.raises(PlanError, match="^coordination needs at least one sub-buyer thread$"):
            coordinate_adapted([], 10.0)


class TestCoordinateDispatch:
    def test_dispatch_matches_strategy_functions(self):
        results = [result(0, 3, 55.0), result(1, 9, 70.0)]
        assert coordinate(CoordinationPlan("desperate"), results) == coordinate_desperate(results)
        assert coordinate(CoordinationPlan("patient"), results) == coordinate_patient(results)
        assert coordinate(
            CoordinationPlan("adapted", theta=60.0), results
        ) == coordinate_adapted(results, 60.0)


class TestRunOneToMany:
    def suppliers(self, n=3):
        return [
            (ladder_profile(f"supplier_{i}", deadline=10 + 2 * i), TimeDependentTactic())
            for i in range(n)
        ]

    def test_market_scenario_commits_a_contract(self, market_scenario):
        buyer = market_scenario.agent(market_scenario.buyer_id)
        suppliers = [
            (spec.profile, spec.tactic)
            for spec in market_scenario.agents
            if spec.id != market_scenario.buyer_id
        ]
        choice, results, traces = run_one_to_many(
            buyer.profile,
            buyer.tactic,
            suppliers,
            market_scenario.plan,
            max_rounds=market_scenario.max_rounds,
        )
        assert isinstance(choice, ContractChoice)
        assert len(results) == len(suppliers) == len(traces)

    def test_threads_replay_in_isolation(self, market_scenario):
        buyer = market_scenario.agent(market_scenario.buyer_id)
        suppliers = [
            (spec.profile, spec.tactic)
            for spec in market_scenario.agents
            if spec.id != market_scenario.buyer_id
        ]
        _, results, traces = run_one_to_many(
            buyer.profile, buyer.tactic, suppliers,
            market_scenario.plan, max_rounds=market_scenario.max_rounds,
        )
        from negosim.protocol import run_session

        for thread_id, (profile, tactic) in enumerate(suppliers):
            outcome, _ = run_session(
                buyer.profile, profile, buyer.tactic, tactic,
                max_rounds=market_scenario.max_rounds,
                opener=market_scenario.opener,
            )
            assert outcome == results[thread_id].outcome

    def test_losers_past_commit_round_marked_cancelled(self):
        buyer = ladder_profile("buyer", deadline=20)
        # supplier deadlines differ, so threads finish at different rounds
        choice, results, _ = run_one_to_many(
            buyer, TimeDependentTactic(), self.suppliers(),
            CoordinationPlan("desperate"), max_rounds=60,
        )
        assert choice is not None
        for res in results:
            if res.thread_id == choice.thread_id:
                assert res.cancelled_at is None
            elif res.completion_round > choice.round:
                assert res.cancelled_at == choice.round

    @pytest.mark.parametrize(
        "plan",
        [
            CoordinationPlan("desperate"),
            CoordinationPlan("patient"),
            CoordinationPlan("adapted", theta=60.0),
        ],
        ids=["desperate", "patient", "adapted"],
    )
    def test_cancelled_exactly_when_done_after_the_commit(self, plan):
        rng = random.Random(15)

        def reservation():
            return rng.choice((None, float(rng.randint(0, 4) * 10)))

        def tactic():
            return TimeDependentTactic(k=rng.choice((0.0, 0.2)), beta=rng.choice((0.3, 1.0, 3.0)))

        # suppliers rate the buyer's ladder in reverse
        options = tuple(IssueOption(f"p{i}", 100.0 - 10.0 * i) for i in range(11))
        late = 0
        for _ in range(60):
            buyer = ladder_profile("buyer", rng.randint(3, 30), reservation())
            suppliers = [
                (
                    make_profile(
                        f"supplier_{i}", [Issue("value", options)], {"value": 100.0},
                        rng.randint(3, 30), reservation(),
                    ),
                    tactic(),
                )
                for i in range(rng.randint(1, 4))
            ]
            choice, results, _ = run_one_to_many(
                buyer, tactic(), suppliers, plan,
                max_rounds=rng.randint(5, 60), divergence_window=rng.choice((0, 3)),
            )
            for res in results:
                after = choice is not None and res.completion_round > choice.round
                assert res.cancelled_at == (choice.round if after else None)
                late += after
        # a patient commit round is the last completion round
        assert late == 0 if plan.strategy == "patient" else late > 5

    def test_patient_never_cancels(self):
        buyer = ladder_profile("buyer", deadline=20)
        _, results, _ = run_one_to_many(
            buyer, TimeDependentTactic(), self.suppliers(),
            CoordinationPlan("patient"), max_rounds=60,
        )
        assert all(res.cancelled_at is None for res in results)

    def test_no_suppliers_rejected(self):
        with pytest.raises(PlanError):
            run_one_to_many(
                ladder_profile("buyer"), TimeDependentTactic(), [],
                CoordinationPlan("desperate"),
            )
