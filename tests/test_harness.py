import builtins
import copy
import csv
import hashlib
import io
import itertools
import math
import os
import re
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import negosim
import test_golden
from negosim import cli, harness
from negosim.cli import main
from negosim.domain import NegotiationError, OfferVector, enumerate_offers, total_profit
from negosim.harness import (
    ScenarioError,
    bundled_scenario,
    compare_prediction,
    load_scenario,
    run_batch,
    trace_csv,
    write_outputs,
)
from negosim.protocol import SessionTrace, TraceRow

MINIMAL = {
    "schema_version": 1,
    "seed": 7,
    "mode": "bilateral",
    "opener": "b",
    "max_rounds": 40,
    "issues": [
        {"name": "price", "options": ["low", "mid", "high"]},
    ],
    "agents": [
        {
            "id": "a",
            "role": "seller",
            "deadline": 10,
            "weights": {"price": 100},
            "ratings": {"price": {"high": 90, "mid": 50, "low": 0}},
            "tactic": {"family": "time-dependent", "k": 0.0, "beta": 1.0},
        },
        {
            "id": "b",
            "role": "buyer",
            "deadline": 10,
            "weights": {"price": 100},
            "ratings": {"price": {"mid": 90, "high": 40, "low": 0}},
            "tactic": {"family": "time-dependent", "k": 0.0, "beta": 1.0},
        },
    ],
}


MINIMAL_MARKET = {
    **MINIMAL,
    "mode": "one-to-many",
    "coordination": {"buyer": "b", "suppliers": ["a"], "strategy": "adapted", "theta": 60},
}


def self_mixture():
    """A mixed tactic listed among its own parts, as a YAML alias can write it."""
    tactic = {"family": "mixed"}
    tactic["mixture"] = [tactic]
    return tactic


def write_scenario(tmp_path, raw, name="test.scenario"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


def negosim_module(cwd, *args, env=()):
    """``python -m negosim *args``, as a user runs it, in a fresh interpreter;
    ``env`` adds to or overrides the environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(negosim.__file__).parent.parent), **dict(env)}
    return subprocess.run(
        [sys.executable, "-m", "negosim", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestLoadScenario:
    def test_bundled_aircraft_loads(self, aircraft_scenario):
        assert aircraft_scenario.mode == "bilateral"
        assert [spec.id for spec in aircraft_scenario.agents] == ["company_a", "company_b"]
        assert aircraft_scenario.opener == "company_b"

    def test_minimal_scenario_loads(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert scenario.seed == 7
        assert len(scenario.agents) == 2

    def test_bad_weight_sum_reported(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["agents"][0]["weights"] = {"price": 95}
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert any("95" in v for v in exc.value.violations)

    def test_missing_seed_reported(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        del raw["seed"]
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert any("seed" in v for v in exc.value.violations)

    def test_all_violations_collected(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        del raw["seed"]
        raw["agents"][0]["weights"] = {"price": 50}
        raw["agents"][1]["deadline"] = 0
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert len(exc.value.violations) >= 3

    @pytest.mark.parametrize(
        "fields, expected",
        [
            (
                {"weights": {"price": 50}, "ratings": {"price": {"low": -5, "mid": 0, "high": 0}}},
                [
                    "profile 'a': weights sum 50 is not 100",
                    "agent 'a': issue 'price' has a negative option rating",
                    "agent 'a': issue 'price' has 2 zero-rated options, expected exactly 1",
                    "agent 'a': issue 'price' has no positively rated option",
                ],
            ),
            (
                {"weights": {"price": "heavy"}, "deadline": 0},
                [
                    "agent 'a': weight of issue 'price' must be a number, got 'heavy'",
                    "agent 'a': deadline 0 must be > 0",
                ],
            ),
        ],
        ids=["weight-sum", "weight-str"],
    )
    def test_bad_weights_do_not_hide_the_agents_other_violations(self, tmp_path, fields, expected):
        # weights that cannot build the profile; each other problem is listed once
        raw = copy.deepcopy(MINIMAL)
        raw["agents"][0].update(fields)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.violations == expected

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.scenario")

    def test_three_agents_in_bilateral_rejected(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["agents"].append({**copy.deepcopy(raw["agents"][1]), "id": "c"})
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, raw))

    def test_one_to_many_requires_coordination_section(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["mode"] = "one-to-many"
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert any("coordination" in v for v in exc.value.violations)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("seed",), True, "seed"),
            (("max_rounds",), True, "max_rounds"),
            (("divergence_window",), "three", "divergence_window"),
            (("divergence_window",), -2, "divergence_window"),
            (("divergence_window",), 1, "divergence_window"),
            (("agents", 0, "deadline"), "soon", "deadline"),
            (("agents", 0, "reservation_utility"), "high", "reservation_utility"),
            (("agents", 0, "predictor"), {"warmup": "x"}, "warmup"),
            (("agents", 0, "predictor"), {"enabled": True, "warmup": -3}, "warmup"),
            (("agents", 0, "ratings"), [1, 2], "ratings"),
            (("agents", 0, "weights"), [50, 20], "weights"),
            (
                ("agents", 0, "tactic"),
                {
                    "family": "mixed",
                    "mixture": [
                        {"weight": 0.5, "family": "time-dependent"},
                        {"weight": 0.6, "family": "time-dependent"},
                    ],
                },
                "mixture weights",
            ),
            (("agents", 0, "tactic"), 5, "tactic must be a mapping"),
            (("agents", 0, "predictor"), 5, "predictor"),
            (("agents", 0, "predictor"), {"enabled": "no"}, "enabled"),
            (("agents", 0, "weights", "price"), "fifty", "weight of issue 'price'"),
            (("agents", 0, "ratings", "price", "high"), "high", "rating for option 'high'"),
            (("agents", 0, "ratings", "price", "mid"), None, "rating for option 'mid'"),
            (("agents", 0, "ratings", "price", "high"), math.nan, "non-finite option rating"),
            (("agents", 0, "ratings", "price", "high"), 1.0e308, "option rating above"),
            (("agents", 0, "tactic"), {"family": "behavior-dependent", "delta": 1.5}, "delta"),
            (("agents", 0, "tactic"), {"family": "time-dependent", "beta": -1}, "beta"),
            (("agents", 0, "tactic"), {"family": "resource-dependent", "k": 2}, "k must be"),
            (
                ("agents", 0, "ratings", "price"),
                {"high": 90, "mid": 50, "low": 0, 1: 5, "x": 3},
                "unknown options ['x', 1]",
            ),
            (("agents", 0, "reservation_utility"), math.nan, "reservation_utility nan"),
            (("agents", 0, "reservation_utility"), 150, "reservation_utility 150"),
            (("agents", 0, "tactic"), self_mixture(), "a mixture cannot contain itself"),
            (("coordination", "theta"), "abc", "theta must be"),
            (("coordination", "theta"), [1], "theta must be"),
            (("coordination", "theta"), True, "theta must be"),
            (("coordination", "theta"), "75", "theta must be"),
            (("coordination", "theta"), math.nan, "theta must be"),
            (("coordination", "theta"), -1, "theta must be"),
            (("coordination", "suppliers"), 5, "suppliers must be a list"),
            (("coordination", "suppliers"), ["b", "a"], "suppliers must not name the buyer 'b'"),
            (("coordination", "suppliers"), ["a", "a"], "suppliers must be unique (repeated: ['a'])"),
            (("coordination", "suppliers"), [["a"], ["a"]], "suppliers must be unique"),
            (("coordination", "theta"), 10**400, "theta must be"),
            (("agents", 0, "ratings", "price", "high"), 10**400, "rating for option 'high'"),
            (("agents", 0, "tactic"), {"family": "time-dependent", "beta": 10**400}, "beta must be"),
            (("agents", 0, "deadline"), 10**400, "'a': deadline must be at most 1.79769e+308"),
            (("agents", 0, "id"), 1, "agent id must be a non-empty string, got 1"),
            (("agents", 0, "id"), [1, 2], "agent id must be a non-empty string, got [1, 2]"),
            (("agents", 0, "id"), None, "agent id must be a non-empty string, got None"),
            (("agents", 0, "id"), True, "agent id must be a non-empty string, got True"),
            (("agents", 0, "id"), "", "agent id must be a non-empty string, got ''"),
            (("issues", 0, "name"), 5, "issue name must be a non-empty string, got 5"),
            (("issues", 0, "name"), 0, "issue name must be a non-empty string, got 0"),
            (("issues", 0, "name"), "", "issue name must be a non-empty string, got ''"),
            (
                ("issues", 0, "options"),
                ["low", True, None],
                "issue 'price': option labels must be non-empty strings, got [True, None]",
            ),
            (
                ("issues", 0, "options"),
                ["low", "mid", ""],
                "issue 'price': option labels must be non-empty strings, got ['']",
            ),
            (("agents", 0, "weights", 5), 100, "agent 'a': weights key 5 must be an issue name"),
            (("max_round",), 3, "top level: unknown keys ['max_round']"),
            (("issues", 0, "option"), ["low"], "issue 'price': unknown keys ['option']"),
            (("agents", 0, "deadlin"), 5, "agent 'a': unknown keys ['deadlin']"),
            (("agents", 0, 1), 5, "agent 'a': unknown keys [1]"),
            (("agents", 0, "predictor"), {"enabeld": True}, "unknown keys ['enabeld']"),
            (
                ("agents", 0, "tactic"),
                {"family": "time-dependent", "bta": 0.2},
                "unknown time-dependent tactic fields ['bta']",
            ),
            (
                ("agents", 0, "tactic"),
                {"family": "time-dependent", "weight": 1.0},
                "unknown time-dependent tactic fields ['weight']",
            ),
            (
                ("agents", 0, "tactic"),
                {"family": "mixed", "mixture": [{"weight": 1.0, "family": "mixed", "k": 0}]},
                "unknown mixed tactic fields ['k']",
            ),
            (("coordination", "stratgy"), "patient", "coordination: unknown keys ['stratgy']"),
            (
                ("coordination",),
                {"buyer": "b", "suppliers": ["a"], "strategy": "adapted", "theta": "not-a-number"},
                "coordination: only one-to-many mode reads this section",
            ),
            (
                ("agents", 0, "ratings", "colour"),
                {"red": 5, "blue": 0},
                "agent 'a': ratings for undeclared issues ['colour']",
            ),
            (
                ("agents", 0),
                {k: v for k, v in MINIMAL["agents"][0].items() if k != "deadline"},
                "agent 'a': deadline is required and must be an integer",
            ),
            (
                ("agents", 0, "ratings", "price"),
                [1, 2],
                "agent 'a': ratings of issue 'price' must be a mapping, got [1, 2]",
            ),
            (("agents", 0, "role"), ["seller"], "agent 'a': role must be a string, got ['seller']"),
            (("agents", 0, "role"), True, "agent 'a': role must be a string, got True"),
        ],
        ids=[
            "seed-bool",
            "max_rounds-bool",
            "divergence_window-str",
            "divergence_window-negative",
            "divergence_window-one",
            "deadline-str",
            "reservation_utility-str",
            "warmup-str",
            "warmup-negative",
            "ratings-list",
            "weights-list",
            "mixture-weight-sum",
            "tactic-int",
            "predictor-int",
            "enabled-str",
            "weight-str",
            "rating-str",
            "rating-null",
            "rating-nan",
            "rating-near-float-max",
            "delta-float",
            "beta-negative",
            "k-above-1",
            "ratings-unknown-keys-of-two-types",
            "reservation_utility-nan",
            "reservation_utility-above-100",
            "tactic-self-mixture",
            "theta-str",
            "theta-list",
            "theta-bool",
            "theta-numeric-str",
            "theta-nan",
            "theta-negative",
            "suppliers-int",
            "suppliers-name-the-buyer",
            "suppliers-repeated",
            "suppliers-repeated-unhashable",
            "theta-int-beyond-float",
            "rating-int-beyond-float",
            "beta-int-beyond-float",
            "deadline-int-beyond-float",
            "id-int",
            "id-list",
            "id-null",
            "id-bool",
            "id-empty",
            "issue-name-int",
            "issue-name-zero",
            "issue-name-empty",
            "option-labels-bool-null",
            "option-label-empty",
            "weights-key-int",
            "top-level-unknown-key",
            "issue-unknown-key",
            "agent-unknown-key",
            "agent-unknown-int-key",
            "predictor-unknown-key",
            "tactic-unknown-field",
            "tactic-weight-outside-a-mixture",
            "mixture-part-unknown-field",
            "coordination-unknown-key",
            "coordination-in-bilateral-mode",
            "ratings-undeclared-issue",
            "deadline-missing",
            "issue-ratings-list",
            "role-list",
            "role-bool",
        ],
    )
    def test_bad_field_is_a_listed_violation(self, tmp_path, path, value, named):
        # a coordination field is set in a market; the section itself, in a bilateral scenario
        raw = copy.deepcopy(MINIMAL_MARKET if path[0] == "coordination" and path[1:] else MINIMAL)
        raw["agents"][1]["weights"] = {"price": 50}  # a second, unrelated violation
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario_path = write_scenario(tmp_path, raw)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(scenario_path)
        assert any(named in v for v in exc.value.violations)
        assert any("weights sum 50" in v for v in exc.value.violations)
        result = CliRunner().invoke(main, ["run", "--scenario", str(scenario_path)])
        assert isinstance(result.exception, SystemExit)  # a ClickException, not a crash
        assert result.exit_code != 0
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "base, second_id, listed",
        [
            (MINIMAL_MARKET, "b", ["profile 'b': weights sum 50 is not 100"]),
            (MINIMAL, "b", ["profile 'b': weights sum 50 is not 100"]),
            (
                {**MINIMAL, "opener": "a"},
                "a",
                ["profile 'a': weights sum 50 is not 100", "agent ids must be unique"],
            ),
        ],
        ids=["coordination-buyer", "opener", "repeated-id"],
    )
    def test_agent_whose_profile_fails_is_still_declared(self, tmp_path, base, second_id, listed):
        # the buyer, opener and unique-id checks see every named agent, built or not
        raw = copy.deepcopy(base)
        raw["agents"][1].update(id=second_id, weights={"price": 50})
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.violations == listed

    def test_ratings_of_a_malformed_issue_are_not_reported_again(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["issues"].append({"name": "colour", "options": []})
        raw["agents"][0]["ratings"]["colour"] = {"red": 5, "blue": 0}
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert [v for v in exc.value.violations if "colour" in v] == [
            "issue entry {'name': 'colour', 'options': []} needs a name and a non-empty option list"
        ]

    def test_int_buyer_id_is_reported_as_a_bad_id(self, tmp_path):
        raw = copy.deepcopy(MINIMAL_MARKET)
        raw["agents"][1]["id"] = raw["coordination"]["buyer"] = raw["opener"] = 1
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert "agent id must be a non-empty string, got 1" in exc.value.violations

    @pytest.mark.parametrize("explicit", [True, False], ids=["supplier-opener", "supplier-first"])
    def test_one_to_many_opener_is_the_buyer(self, tmp_path, explicit):
        raw = yaml.safe_load(bundled_scenario("aircraft_market.scenario").read_text())
        if explicit:
            raw["opener"] = "seller_1"
        else:  # without an opener, listing a supplier first must not make it the opener
            del raw["opener"]
            raw["agents"].append(raw["agents"].pop(0))
        scenario_path = write_scenario(tmp_path, raw)
        result = CliRunner().invoke(
            main, ["run", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")]
        )
        assert "Traceback" not in result.output
        if explicit:
            with pytest.raises(ScenarioError) as exc:
                load_scenario(scenario_path)
            assert any("coordination buyer 'company_b'" in v for v in exc.value.violations)
            assert isinstance(result.exception, SystemExit)
            assert result.exit_code != 0
        else:
            scenario = load_scenario(scenario_path)
            assert scenario.agents[0].id == "seller_1"
            assert scenario.opener == "company_b"
            assert result.exit_code == 0, result.output

    def test_coordination_without_strategy_names_the_required_key(self, tmp_path):
        raw = yaml.safe_load(bundled_scenario("aircraft_market.scenario").read_text())
        del raw["coordination"]["strategy"]
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.violations == [
            "coordination: strategy is required and must be one of"
            " ('desperate', 'patient', 'adapted')"
        ]

    def test_an_unreadable_mode_skips_the_rules_that_depend_on_it(self, tmp_path):
        raw = yaml.safe_load(bundled_scenario("aircraft_market.scenario").read_text())
        raw["mode"] = "one_to_many"
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        unreadable = "top level: mode must be one of ('bilateral', 'one-to-many'), got 'one_to_many'"
        assert exc.value.violations == [unreadable]
        # the rules that do not depend on the mode are still checked
        raw["opener"] = "nobody"
        raw["agents"][1]["weights"]["price"] = 40
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.violations == [
            unreadable,
            "profile 'seller_1': weights sum 90 is not 100",
            "opener 'nobody' is not a declared agent",
        ]

    def test_market_scenario_has_plan(self, market_scenario):
        assert market_scenario.mode == "one-to-many"
        assert market_scenario.plan.strategy == "adapted"
        assert market_scenario.buyer_id == "company_b"
        assert len(market_scenario.supplier_ids) == 3


class TestRunBatch:
    def test_overlapping_scenario_agrees_almost_always(self, aircraft_scenario):
        # independent oracle: the agents have common ground, so linear
        # conceders with equal deadlines must find it
        a, b = (spec.profile for spec in aircraft_scenario.agents)
        overlap = [
            (offer, ua)
            for offer, ua in enumerate_offers(a, zero_free=True)
            if total_profit(b, offer) > 0
        ]
        assert overlap, "fixture must have a non-empty agreement zone"
        result = run_batch(aircraft_scenario, 100)
        assert result.stats.agreement_rate >= 0.99

    def test_same_scenario_same_results(self, aircraft_scenario):
        r1 = run_batch(aircraft_scenario, 10)
        r2 = run_batch(aircraft_scenario, 10)
        assert r1.stats == r2.stats
        assert [r.outcome for r in r1.records] == [r.outcome for r in r2.records]

    def test_single_session_batch(self, aircraft_scenario):
        result = run_batch(aircraft_scenario, 1)
        assert result.stats.sessions == 1
        assert len(result.records) == 1

    def test_stats_identities_hold(self, aircraft_scenario):
        stats = run_batch(aircraft_scenario, 25).stats
        assert stats.agreements == pytest.approx(stats.agreement_rate * stats.sessions)
        assert stats.agreements + stats.early_terminations + stats.breakdowns == stats.sessions

    def test_zero_sessions_rejected(self, aircraft_scenario):
        with pytest.raises(NegotiationError):
            run_batch(aircraft_scenario, 0)

    @pytest.mark.parametrize("n_sessions", [True, 2.5, 1.0, "3", None])
    def test_session_count_must_be_an_integer(self, aircraft_scenario, n_sessions):
        # True would run 1 session; the others would end in a TypeError
        with pytest.raises(NegotiationError, match="n_sessions"):
            run_batch(aircraft_scenario, n_sessions)

    def test_one_to_many_batch_runs(self, market_scenario):
        result = run_batch(market_scenario, 3)
        assert result.stats.sessions == 3
        # each record carries one trace per supplier thread
        assert all(len(r.traces) == 3 for r in result.records)

    @pytest.mark.parametrize(
        "max_rounds, seller_3_deadline, threads, market",
        [
            (2, 16, ["deadline-expiry"] * 3, "deadline-expiry"),
            (4, 1, ["deadline-expiry", "deadline-expiry", "withdrawal"], "withdrawal"),
        ],
        ids=["all-expire", "mixed"],
    )
    def test_market_without_a_contract_reports_how_its_threads_ended(
        self, market_scenario, max_rounds, seller_3_deadline, threads, market
    ):
        agents = tuple(
            replace(spec, profile=replace(spec.profile, deadline=seller_3_deadline))
            if spec.id == "seller_3" else spec
            for spec in market_scenario.agents
        )
        scenario = replace(market_scenario, max_rounds=max_rounds, agents=agents)
        record = run_batch(scenario, 1).records[0]
        assert [r.outcome.kind for r in record.thread_results] == threads
        assert record.contract is None
        assert record.outcome.kind == market


_BUILTIN_SUM = sum


def compensated_sum(values, start=0):
    """``sum()`` as Python 3.12 and later add floats: Neumaier-compensated, as in
    CPython's ``builtin_sum_impl``. Any other sum is left to the builtin."""
    values = list(values)
    if not values or not all(type(v) is float for v in values):
        return _BUILTIN_SUM(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def uneven_weights_scenario(path):
    """aircraft.scenario with weights summing to 99.9, which the loader normalizes."""
    raw = yaml.safe_load(bundled_scenario("aircraft.scenario").read_text())
    for agent in raw["agents"]:
        agent["weights"] = {"price": 33.4, "quantity": 33.3, "warranty": 33.2}
    path.write_text(yaml.safe_dump(raw))
    return path


# output digests recorded on Python 3.11; each case's bytes change if a sum in the
# program is left to a compensating sum(): a 10-session mean utility, and weights
# normalized by their sum
SUM_SENSITIVE = {
    "aircraft-10": (
        lambda tmp: bundled_scenario("aircraft.scenario"),
        10,
        "7343f9cca032158e1213f57d7579de84199b547bc67ab92d0261afb8009ee31f",
    ),
    "aircraft_market-10": (
        lambda tmp: bundled_scenario("aircraft_market.scenario"),
        10,
        "b2fae7d2e60096a5e6cc22c4456e02e0f0f41cc538547ee1b0a12a2d5c78fc81",
    ),
    "aircraft-uneven-weights-3": (
        lambda tmp: uneven_weights_scenario(tmp / "uneven.scenario"),
        3,
        "93fbe80b6a46efb2bb71d7e18fb468d4b6fde30b428fb4c1477d2ae939ea367a",
    ),
}


def test_compensated_sum_is_the_3_12_sum():
    # the example of Python 3.12's "What's New": sum() of ten 0.1s is exactly 1.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2]) == 3


@pytest.mark.filterwarnings("ignore:profile")
@pytest.mark.parametrize("summer", ["builtin", "compensated"])
@pytest.mark.parametrize("case", sorted(SUM_SENSITIVE))
def test_outputs_do_not_depend_on_the_interpreters_sum(case, summer, tmp_path, monkeypatch):
    if summer == "compensated":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    scenario_path, n_sessions, expected = SUM_SENSITIVE[case]
    scenario = load_scenario(scenario_path(tmp_path))
    digest = hashlib.sha256()
    for path in write_outputs(scenario, run_batch(scenario, n_sessions), tmp_path / "out"):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == expected


class TestComparePrediction:
    def test_disabled_config_gives_zero_deltas(self, aircraft_scenario):
        # prediction is off in the scenario, so both arms are identical
        comparison = compare_prediction(aircraft_scenario, 5)
        assert comparison["deltas"]["agreement_rate"] == 0.0
        assert comparison["deltas"]["mean_rounds"] == 0.0

    def test_unprofitable_scenario_terminates_earlier_with_prediction(
        self, disjoint_scenario
    ):
        comparison = compare_prediction(disjoint_scenario, 5)
        assert comparison["on"].stats.mean_rounds < comparison["off"].stats.mean_rounds
        assert comparison["on"].stats.agreement_rate == 0.0
        assert comparison["off"].stats.agreement_rate == 0.0


class TestOutputs:
    def test_trace_csv_one_row_per_round(self, aircraft_scenario):
        result = run_batch(aircraft_scenario, 1)
        record = result.records[0]
        trace = record.traces[0][1]
        issue_names = [i.name for i in aircraft_scenario.agents[0].profile.issues]
        text = trace_csv(trace, 0, issue_names)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(trace)  # header + one row per round
        header = lines[0].split(",")
        assert header[:3] == ["session", "round", "proposer"]
        assert header[3 : 3 + len(issue_names)] == issue_names

    def test_write_outputs_byte_stable(self, aircraft_scenario, tmp_path):
        result = run_batch(aircraft_scenario, 3)
        dir1, dir2 = tmp_path / "one", tmp_path / "two"
        files1 = write_outputs(aircraft_scenario, result, dir1)
        files2 = write_outputs(aircraft_scenario, run_batch(aircraft_scenario, 3), dir2)
        assert [p.name for p in files1] == [p.name for p in files2]
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_stats_yaml_round_trips(self, aircraft_scenario, tmp_path):
        result = run_batch(aircraft_scenario, 2)
        write_outputs(aircraft_scenario, result, tmp_path)
        stats = yaml.safe_load((tmp_path / "stats.yaml").read_text())
        assert stats["sessions"] == 2
        assert stats["seed"] == aircraft_scenario.seed
        assert len(stats["outcomes"]) == 2

    def test_thread_traces_named_per_supplier(self, market_scenario, tmp_path):
        result = run_batch(market_scenario, 1)
        written = write_outputs(market_scenario, result, tmp_path)
        names = sorted(p.name for p in written)
        assert "session_0000_thread_0.csv" in names
        assert "session_0000_thread_2.csv" in names


def csv_writer_trace(trace, session_index, issue_names):
    """The trace as ``csv.writer`` renders it, the reference ``trace_csv`` must equal."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["session", "round", "proposer", *issue_names, "utility_self", "utility_opponent_observed", "action"]
    )
    for row in trace:
        writer.writerow(
            [
                session_index,
                row.round,
                row.proposer,
                *[row.offer.choices[name] for name in issue_names],
                repr(row.utility_proposer),
                repr(row.utility_receiver),
                row.action,
            ]
        )
    return buffer.getvalue()


ACTIONS = ("offer", "accept", "withdraw", "terminate-unprofitable", "terminate-diverging")
# CSV's special characters, spaces and non-ASCII, but no CR: csv.writer quotes a CR only
# from Python 3.13 on, and 3.10's raises on a NUL
CELL_TEXT = st.text(
    st.one_of(st.sampled_from(',"\n \u00e9\u20ac\U0001f600'), st.characters(exclude_characters="\r\x00")),
    max_size=6,
)


@st.composite
def traces(draw, labels=CELL_TEXT, ids=CELL_TEXT):
    """A session trace over drawn issue names, labels and agent ids; rows reuse offers."""
    issue_names = draw(st.lists(CELL_TEXT, min_size=1, max_size=4, unique=True))
    menus = {name: draw(st.lists(labels, min_size=1, max_size=4)) for name in issue_names}
    offers = [
        OfferVector({name: draw(st.sampled_from(menu)) for name, menu in menus.items()})
        for _ in range(draw(st.integers(1, 4)))
    ]
    proposers = draw(st.lists(ids, min_size=2, max_size=2, unique=True))
    trace = SessionTrace()
    for round_ in range(draw(st.integers(0, 8))):
        trace.append(
            TraceRow(
                round_,
                proposers[round_ % 2],
                draw(st.sampled_from(offers)),
                draw(st.floats()),
                draw(st.floats()),
                draw(st.sampled_from(ACTIONS)),
            )
        )
    return trace, draw(st.integers(0, 10**6)), issue_names


NON_STRING_LABELS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([numpy.float64(2.5), numpy.int64(-3), (1, "a,b"), -0.0, 10**30]),
)


class TestTraceCsv:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(drawn=traces())
    def test_every_trace_is_csv_writer_byte_for_byte(self, drawn):
        assert trace_csv(*drawn) == csv_writer_trace(*drawn)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(drawn=traces(labels=NON_STRING_LABELS, ids=st.one_of(CELL_TEXT, st.integers())))
    def test_non_string_labels_and_ids_are_csv_writer_byte_for_byte(self, drawn):
        assert trace_csv(*drawn) == csv_writer_trace(*drawn)

    def test_a_cr_in_a_label_is_quoted_on_every_interpreter(self, tmp_path):
        # csv.writer wrote "5\r" bare before Python 3.13, and csv.reader then split each row in two
        raw = yaml.safe_load(bundled_scenario("aircraft.scenario").read_text())
        raw["issues"][1]["options"] = ["3", "5\r"]
        for agent in raw["agents"]:
            agent["ratings"]["quantity"]["5\r"] = agent["ratings"]["quantity"].pop("5")
        scenario = load_scenario(write_scenario(tmp_path, raw))
        result = run_batch(scenario, 1)
        write_outputs(scenario, result, tmp_path / "out")
        data = (tmp_path / "out" / "session_0000.csv").read_bytes()
        trace = result.records[0].traces[0][1]
        assert len(trace) == 13
        assert data.count(b',"5\r",') == 13
        assert hashlib.sha256(data).hexdigest() == (
            "077ea6b981f677e1290d67480cced3635f0d99fa23ba0734b32c1ae6773b907a"
        )
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        assert rows == [
            ["session", "round", "proposer", "price", "quantity", "warranty",
             "utility_self", "utility_opponent_observed", "action"],
            *(
                [
                    "0", str(row.round), row.proposer,
                    *(row.offer.choices[name] for name in ("price", "quantity", "warranty")),
                    repr(row.utility_proposer), repr(row.utility_receiver), row.action,
                ]
                for row in trace
            ),
        ]

    def test_cr_and_nul_cells_are_the_same_on_every_interpreter(self):
        # the differential draws neither: csv.writer quotes a CR from 3.13 on, and 3.10's
        # raises on a NUL, which 3.11 on writes bare
        assert harness._cell("5\r") == '"5\r"'
        assert harness._cell('\r"') == '"\r"""'
        assert harness._cell("a\x00b") == "a\x00b"


class TestCli:
    def test_run_aircraft(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["run", "--scenario", str(bundled_scenario("aircraft.scenario")), "--seed", "3"]
        )
        assert result.exit_code == 0
        assert "outcome: agreement" in result.output

    def test_run_writes_trace(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "run",
                "--scenario", str(bundled_scenario("aircraft.scenario")),
                "--out", str(tmp_path),
                "--trace",
            ],
        )
        assert result.exit_code == 0
        assert (tmp_path / "session_0000.csv").exists()
        assert (tmp_path / "stats.yaml").exists()

    def test_batch_reports_stats(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "batch",
                "--scenario", str(bundled_scenario("aircraft.scenario")),
                "-n", "5",
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0
        assert "agreement_rate" in result.output
        assert (tmp_path / "stats.yaml").exists()

    def test_compare_reports_deltas(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["compare", "--scenario", str(bundled_scenario("disjoint.scenario")), "-n", "3"],
        )
        assert result.exit_code == 0
        assert "deltas" in result.output

    def test_registry_demo(self):
        runner = CliRunner()
        result = runner.invoke(main, ["registry-demo"])
        assert result.exit_code == 0
        assert "discovered 3 sellers" in result.output

    def test_registry_demo_uses_the_scenario_settings(self, tmp_path, monkeypatch):
        # the demo session runs as every session does: with the buyer's predictor armed
        raw = yaml.safe_load(bundled_scenario("aircraft_market.scenario").read_text())
        assert raw["agents"][0]["id"] == "company_b"
        raw["agents"][0]["predictor"] = {"enabled": True, "warmup": 3}
        raw["agents"][0]["reservation_utility"] = 95
        path = write_scenario(tmp_path, raw)
        monkeypatch.setattr(cli, "bundled_scenario", lambda name: path)
        result = CliRunner().invoke(main, ["registry-demo"])
        assert result.exit_code == 0, result.output
        assert "session company_b vs seller_1: early-termination at round 6\n" in result.output

    def test_module_entry_point(self, tmp_path):
        ok = negosim_module(tmp_path, "run", "--scenario", str(bundled_scenario("aircraft.scenario")))
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("outcome: agreement")
        missing = negosim_module(tmp_path, "run", "--scenario", "missing.scenario")
        assert missing.returncode != 0
        assert "does not exist" in missing.stderr
        assert "Traceback" not in missing.stdout + missing.stderr

    def test_weights_warning_is_one_line_on_stderr(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["agents"][0]["weights"] = {"price": 100.5}
        path = write_scenario(tmp_path, raw)
        done = negosim_module(tmp_path, "run", "--scenario", str(path))
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("outcome: ")
        assert done.stderr == "negosim: warning: profile 'a': weights sum 100.5 normalized to 100\n"
        with pytest.warns(UserWarning, match="weights sum 100.5 normalized to 100"):
            load_scenario(path)  # library callers still get the warning itself

    def test_deadline_past_the_float_range_with_a_resource_dependent_tactic(self, tmp_path):
        # round / deadline would be 0.0 at every round, so the predictor would see no time pass
        raw = copy.deepcopy(MINIMAL)
        raw["agents"][0]["deadline"] = 10**400
        raw["agents"][0]["tactic"] = {"family": "resource-dependent", "k": 0.0}
        done = negosim_module(tmp_path, "run", "--scenario", str(write_scenario(tmp_path, raw)))
        assert done.returncode != 0
        assert "Traceback" not in done.stdout + done.stderr
        listed = [line for line in done.stderr.splitlines() if line.startswith("  - ")]
        assert listed == ["  - agent 'a': deadline must be at most 1.79769e+308, the float range"]

    def test_deadline_far_below_zero_is_one_short_line(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["agents"][0]["deadline"] = -(10**400)
        done = negosim_module(tmp_path, "run", "--scenario", str(write_scenario(tmp_path, raw)))
        assert done.returncode != 0
        assert "Traceback" not in done.stdout + done.stderr
        listed = [line for line in done.stderr.splitlines() if line.startswith("  - ")]
        assert len(listed) == 1 and len(listed[0]) < 200, listed
        assert "deadline must be > 0" in listed[0]

    def test_missing_scenario_exits_nonzero(self):
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--scenario", "/no/such/file.scenario"])
        assert result.exit_code != 0
        assert "does not exist" in result.output

    @pytest.mark.parametrize(
        "content, named",
        [
            (None, "cannot read the file"),  # the path is a directory
            ("seed: 7\nmode: bilateral  # caf\u00e9\n".encode("latin-1"), "cannot read the file"),
            (b"seed: 2020-02-30\n", "YAML parse error"),  # no such date
            # a lone surrogate cannot be written as UTF-8; as a loaded label it crashed the CSV writer
            (b'seed: 7\nmode: "\\ud800"\n', "YAML parse error"),
        ],
        ids=["directory", "not-utf8", "bad-date", "lone-surrogate"],
    )
    def test_unloadable_scenario_is_a_listed_violation(self, tmp_path, content, named):
        path = tmp_path
        if content is not None:
            path = tmp_path / "test.scenario"
            path.write_bytes(content)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert any(named in v for v in exc.value.violations)
        result = CliRunner().invoke(main, ["run", "--scenario", str(path)])
        assert isinstance(result.exception, SystemExit)  # a ClickException, not a crash
        assert result.exit_code != 0
        assert "Traceback" not in result.output

    def test_batch_out_on_an_existing_file_is_a_diagnostic(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = CliRunner().invoke(
            main,
            [
                "batch",
                "--scenario", str(bundled_scenario("aircraft.scenario")),
                "-n", "1",
                "--out", str(taken),
            ],
        )
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code != 0
        assert "File exists" in result.output
        assert "Traceback" not in result.output

    def test_invalid_scenario_lists_violations(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        del raw["seed"]
        path = write_scenario(tmp_path, raw)
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--scenario", str(path)])
        assert result.exit_code != 0
        assert "seed" in result.output


# ids that exercise the emitters' quoting: reserved words, numbers, indicators, spaces
TRICKY_IDS = [
    "null", "~", "yes", "No", "on", "1.5", "0x1F", "0o7", "1e3", ".inf", ".NaN",
    "2020-01-01", "? x", "a: b", "x:", "#c", "x #y", "- x", "-", "!x", "&a", "*a",
    "%x", "@x", "`x", "|", ">", "[x]", "{x}", ",x", "<<", "=", "'", '"', "'q'",
    '"q"', " x", "x ", " " * 64,
]
# in the class: every spelling PyYAML's resolver reads as a bool or null, which it quotes,
# and near misses, which it does not
RESERVED_WORDS = [
    spelling
    for word in ("yes", "no", "true", "false", "on", "off", "null")
    for spelling in (word, word.capitalize(), word.upper(), word[:-1] + word[-1].upper())
] + ["y", "n", "Nul", "nulls", "offer", "one-to-many"]
PRINTABLE_IDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=64)
PLAIN_IDS = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,63}", fullmatch=True)
OUTSIDE_IDS = ["caf\u00e9", "\u2028", "a\rb", "\t", "x" * 65, " ".join(["word"] * 14)]
SCENARIO_AGENT_IDS = ["company_a", "company_b", "firm_x", "firm_y", "seller_1", "seller_2", "seller_3"]
HOSTILE_FLOATS = [
    -0.0, 0.0, 5e-324, 1.1e-308, 2.2250738585072014e-308, 1e16, 1e17, 1e-5, 1.5e-7, 1e300,
    -1e300, 1.7976931348623157e308, 0.1, 100.0, math.nan, -math.nan, math.inf, -math.inf,
]


def in_class(text) -> bool:
    """Whether the direct emitter writes the string ``text`` itself."""
    return re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]{0,63}", text) is not None


def stats_documents(off_shape: bool):
    """Documents of the shape ``stats.yaml`` has: a non-empty mapping with string keys holding
    mappings, lists of mappings, empty containers, big ints, hostile floats and strings of the
    class. ``off_shape`` adds strings outside the class and lists of scalars or lists, which
    the direct emitter leaves to ``yaml.safe_dump``."""
    outside = [st.sampled_from(TRICKY_IDS + OUTSIDE_IDS)] if off_shape else []
    strings = st.one_of(PLAIN_IDS, st.sampled_from(RESERVED_WORDS), *outside)
    scalars = st.one_of(
        st.integers(),
        st.integers(min_value=-(2**200), max_value=2**200),
        st.booleans(),
        st.none(),
        st.floats(),
        st.sampled_from(HOSTILE_FLOATS),
        strings,
    )
    mappings = lambda values: st.dictionaries(strings, values, max_size=5)  # noqa: E731
    tree = st.recursive(
        scalars,
        lambda children: st.one_of(
            mappings(children),
            st.lists(mappings(children), max_size=3),
            *([st.lists(children, min_size=1, max_size=2)] if off_shape else []),
        ),
        max_leaves=30,
    )
    return st.dictionaries(strings, tree, min_size=1, max_size=6)


def on_shape(doc) -> bool:
    """Whether the direct emitter writes ``doc``: every string is in the class, every key a string,
    and every list holds only mappings."""
    if isinstance(doc, dict):
        return all(isinstance(k, str) and in_class(k) and on_shape(v) for k, v in doc.items())
    if isinstance(doc, list):
        return all(isinstance(v, dict) and on_shape(v) for v in doc)
    return in_class(doc) if isinstance(doc, str) else True


@pytest.fixture(scope="module")
def dumped_documents(tmp_path_factory):
    """Every document ``yaml_text`` renders for ``batch --out`` (bilateral and market) and ``compare``."""
    documents = []
    yaml_text = harness.yaml_text

    def spy(data):
        documents.append(copy.deepcopy(data))
        return yaml_text(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "yaml_text", spy)
        patch.setattr(cli, "yaml_text", spy)
        for command, name in [
            ("batch", "aircraft.scenario"),
            ("batch", "aircraft_market.scenario"),
            ("compare", "disjoint.scenario"),
        ]:
            out = tmp_path_factory.mktemp("out")
            result = CliRunner().invoke(
                main, [command, "--scenario", str(bundled_scenario(name)), "-n", "2", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
    assert len(documents) == 5  # two summaries, two stats.yaml, one comparison
    assert any("contract" in outcome for doc in documents for outcome in doc.get("outcomes", []))
    return documents


def relabel(doc, names, number):
    """``doc`` with agent ids renamed by ``names`` and every float replaced by ``number()``."""
    if isinstance(doc, dict):
        return {relabel(k, names, number): relabel(v, names, number) for k, v in doc.items()}
    if isinstance(doc, list):
        return [relabel(v, names, number) for v in doc]
    if isinstance(doc, str):
        return names.get(doc, doc)
    if isinstance(doc, float):
        return number()
    return doc


def agent_ids_in(doc) -> set:
    if isinstance(doc, dict):
        return set().union(*map(agent_ids_in, doc), *map(agent_ids_in, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(agent_ids_in, doc))
    return {doc} & set(SCENARIO_AGENT_IDS)


def takes_direct_path(doc) -> bool:
    return harness._direct_text(doc) is not None


def spy_on(function, results):
    """``function``, appending each result it returns to ``results``."""

    def spy(data):
        results.append(function(data))
        return results[-1]

    return spy


class TestYamlText:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        ids=st.lists(
            st.one_of(
                PRINTABLE_IDS,
                PLAIN_IDS,
                st.sampled_from(TRICKY_IDS + RESERVED_WORDS),
                st.sampled_from(OUTSIDE_IDS),
            ),
            min_size=len(SCENARIO_AGENT_IDS),
            max_size=len(SCENARIO_AGENT_IDS),
            unique=True,
        ),
        seed=st.integers(),
        floats=st.lists(st.one_of(st.floats(), st.sampled_from(HOSTILE_FLOATS)), min_size=1, max_size=8),
    )
    def test_every_document_is_safe_dump_byte_for_byte(self, dumped_documents, ids, seed, floats):
        names = dict(zip(SCENARIO_AGENT_IDS, ids))
        for original in dumped_documents:
            doc = relabel(original, names, itertools.cycle(floats).__next__)
            if "seed" in doc:
                doc["seed"] = seed
            used = {names[agent] for agent in agent_ids_in(original)}
            # the ids are the only strings not fixed by the code, so they pick the path
            assert takes_direct_path(doc) == all(map(in_class, used))
            assert harness.yaml_text(doc) == yaml.safe_dump(doc, sort_keys=True)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(doc=st.one_of(stats_documents(off_shape=False), stats_documents(off_shape=True)))
    def test_every_stats_shaped_document_is_safe_dump_byte_for_byte(self, doc):
        assert takes_direct_path(doc) == on_shape(doc)
        assert harness.yaml_text(doc) == yaml.safe_dump(doc, sort_keys=True)

    @pytest.mark.parametrize("outside", OUTSIDE_IDS + ["~", "1.5", "0x1F", "- x", "x:", "'q'"])
    def test_an_id_outside_the_class_takes_the_python_emitter(self, dumped_documents, outside):
        for original in dumped_documents:
            doc = relabel(original, {"company_b": outside}, lambda: 0.5)
            assert takes_direct_path(doc) == ("company_b" not in agent_ids_in(original))
            assert harness.yaml_text(doc) == yaml.safe_dump(doc, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [{"a": 1}],
            "text",
            {"a": {}, "b": []},  # on shape; the control
            {1: "a", 2: "b"},
            {"b": 1, 1: 2},  # keys that do not sort: safe_dump keeps their order
            {"a": [1, 2]},
            {"a": [[{"b": 1}]]},
            {"a": (1, 2)},
            {"a": b"bytes"},
            {"a": ""},
            {"a": "x" * 64, "b": "y" * 65},
        ],
        ids=repr,
    )
    def test_documents_off_the_shape_fall_back(self, doc):
        assert takes_direct_path(doc) == (doc == {"a": {}, "b": []})
        assert harness.yaml_text(doc) == yaml.safe_dump(doc, sort_keys=True)

    def test_a_container_met_twice_keeps_its_anchor(self):
        shared, empty = {"x": 1.5}, {}
        for doc in ({"a": shared, "b": shared}, {"a": [shared, shared]}, {"a": empty, "b": [empty]}):
            assert not takes_direct_path(doc)
            assert "&id001" in harness.yaml_text(doc)
            assert harness.yaml_text(doc) == yaml.safe_dump(doc, sort_keys=True)
        recursive = {"a": 1}
        recursive["self"] = recursive
        assert harness.yaml_text(recursive) == yaml.safe_dump(recursive, sort_keys=True)

    def test_a_subclass_is_left_to_safe_dump(self):
        class Count(int):
            pass

        for value in (Count(3), numpy.float64(0.5), numpy.int64(3)):
            assert not takes_direct_path({"a": value})
            with pytest.raises(yaml.representer.RepresenterError):
                harness.yaml_text({"a": value})

    @pytest.mark.parametrize("command", ["batch", "compare"])
    @pytest.mark.parametrize("name", sorted(test_golden.GOLDEN_SHA256))
    def test_bundled_documents_take_the_direct_path(self, command, name, tmp_path, monkeypatch):
        documents = []
        monkeypatch.setattr(harness, "_direct_text", spy_on(harness._direct_text, documents))
        args = [command, "--scenario", str(bundled_scenario(name)), "-n", "2", "--out", str(tmp_path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(documents) == (2 if command == "batch" else 1)
        assert all(text is not None for text in documents)

    @pytest.mark.parametrize("name", sorted(test_golden.GOLDEN_SHA256))
    def test_golden_hashes_with_the_python_emitter(self, name, tmp_path, monkeypatch):
        documents = []
        monkeypatch.setattr(harness, "_direct_text", spy_on(lambda data: None, documents))
        test_golden.test_bundled_outputs_match_golden_hashes(name, tmp_path)
        assert documents == [None]  # stats.yaml was written by yaml.safe_dump


class TestOutputFiles:
    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        raw = copy.deepcopy(MINIMAL)
        raw["issues"][0]["options"] = ["low", "mid", "caf\u00e9"]
        for agent in raw["agents"]:
            agent["ratings"]["price"]["caf\u00e9"] = agent["ratings"]["price"].pop("high")
        path = write_scenario(tmp_path, raw)
        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        for out, env in (("default", {}), ("ascii", ascii_locale)):
            args = ("run", "--scenario", str(path), "--out", out, "--trace")
            done = negosim_module(tmp_path, *args, env=env)
            assert done.returncode == 0, done.stderr
        csv = (tmp_path / "default" / "session_0000.csv").read_bytes()
        assert "caf\u00e9".encode() in csv
        assert (tmp_path / "ascii" / "session_0000.csv").read_bytes() == csv

    def test_rewrite_replaces_every_output_with_a_new_file(self, aircraft_scenario, tmp_path):
        out, kept, fresh = tmp_path / "out", tmp_path / "kept", tmp_path / "fresh"
        kept.mkdir()
        old = {}
        for path in write_outputs(aircraft_scenario, run_batch(aircraft_scenario, 3), out):
            os.link(path, kept / path.name)  # also keeps the old inode from being reused
            old[path.name] = path.read_bytes()
        rerun = replace(aircraft_scenario, seed=aircraft_scenario.seed + 1)  # a new stats.yaml
        result = run_batch(rerun, 3)
        written = write_outputs(rerun, result, out)
        write_outputs(rerun, result, fresh)
        assert [path.name for path in written] == list(old)
        for path in written:
            assert path.read_bytes() == (fresh / path.name).read_bytes()
            assert path.stat().st_ino != (kept / path.name).stat().st_ino
            assert (kept / path.name).read_bytes() == old[path.name]
        assert (out / "stats.yaml").read_bytes() != old["stats.yaml"]

    def test_symlinked_output_is_written_through(self, aircraft_scenario, tmp_path):
        target, out = tmp_path / "elsewhere.yaml", tmp_path / "out"
        target.write_text("old\n")
        out.mkdir()
        (out / "stats.yaml").symlink_to(target)
        result = run_batch(aircraft_scenario, 1)
        write_outputs(aircraft_scenario, result, out, traces=False)
        write_outputs(aircraft_scenario, result, tmp_path / "fresh", traces=False)
        assert (out / "stats.yaml").is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh" / "stats.yaml").read_bytes()

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        text = "session,caf\u00e9\n" * 50
        write, calls = os.write, []

        def one_byte(fd, data):
            calls.append(len(data))
            return write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", one_byte)
        harness._write_new(tmp_path / "out.csv", text)
        monkeypatch.undo()
        assert (tmp_path / "out.csv").read_bytes() == text.encode()
        assert len(calls) == len(text.encode())

    @pytest.mark.parametrize("umask", [0o002, 0o077])
    def test_a_new_file_has_the_mode_open_gives_it(self, umask, tmp_path):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            harness._write_new(tmp_path / "new", "x\n")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o666 & ~umask

    def test_text_that_does_not_encode_touches_no_file(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"old\n")
        for path in (new, old):
            with pytest.raises(UnicodeEncodeError):
                harness._write_new(path, "lone \ud800 surrogate")
        assert not new.exists()
        assert old.read_bytes() == b"old\n"

    def test_batch_out_with_a_directory_for_stats_is_a_diagnostic(self, tmp_path):
        (tmp_path / "stats.yaml").mkdir()
        result = CliRunner().invoke(
            main,
            [
                "batch",
                "--scenario", str(bundled_scenario("aircraft.scenario")),
                "-n", "1",
                "--out", str(tmp_path),
            ],
        )
        assert isinstance(result.exception, SystemExit)
        assert result.exit_code == 1
        assert "Is a directory" in result.output
        assert "Traceback" not in result.output
