"""Tests of the benchmark itself: seeded inputs, the correctness gate, and tracing hygiene."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import negosim
from perfbench import checks, measure, workloads
from perfbench.tracing import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every attribute of every negosim module and negosim class, by location."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "negosim" and not name.startswith("negosim."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    found[(name, attr, cls_attr)] = cls_value
    return found


@pytest.mark.parametrize(
    "generate", [workloads.large_domain_instances, workloads.long_horizon_instances]
)
def test_seed_fixes_synthetic_inputs(generate):
    assert generate(3, count=24) == generate(3, count=24)
    assert generate(3, count=24) != generate(4, count=24)


def test_large_domain_parties_share_one_zero_option_per_issue():
    for instance in workloads.large_domain_instances(5, count=16):
        a, b = instance.parties
        for name, labels in instance.issues:
            zeros = [label for label in labels if a.ratings[name][label] == 0]
            assert len(zeros) == 1
            assert zeros == [label for label in labels if b.ratings[name][label] == 0]


@pytest.fixture(scope="module")
def agreed_session(tmp_path_factory):
    workload = workloads.make("long_horizon", workloads.DEFAULT_SEED, tmp_path_factory.mktemp("out"))
    for key in range(len(workload.instances)):
        outcome, trace = workload.run(key)
        if outcome.kind == "agreement":
            return workload, key, outcome, trace
    raise AssertionError("no long_horizon session at the default seed reaches agreement")


def test_stored_reference_accepts_the_seed_commit_outcome(agreed_session):
    workload, key, outcome, trace = agreed_session
    report, fp = workload.inspect(key, (outcome, trace))
    ledger = checks.FingerprintLedger(
        checks.load_reference("long_horizon", workloads.DEFAULT_SEED)
    )
    assert str(key) in ledger.expected
    assert report.violations == []
    assert ledger.check(key, fp) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda o: {"utilities": {a: u + 1e-6 for a, u in o.utilities.items()}},
        lambda o: {"round": o.round + 1},
        lambda o: {"kind": "withdrawal"},
    ],
    ids=["utility", "round", "kind"],
)
def test_fingerprint_check_fails_on_a_corrupted_outcome(agreed_session, corrupt):
    workload, key, outcome, trace = agreed_session
    ledger = checks.FingerprintLedger(
        checks.load_reference("long_horizon", workloads.DEFAULT_SEED)
    )
    bad = dataclasses.replace(outcome, **corrupt(outcome))
    report, fp = workload.inspect(key, (bad, trace))
    assert ledger.check(key, fp) != []


def test_invariants_catch_a_wrong_utility(agreed_session):
    workload, key, outcome, trace = agreed_session
    bad = dataclasses.replace(outcome, utilities={a: u + 1e-6 for a, u in outcome.utilities.items()})
    report, _ = workload.inspect(key, (bad, trace))
    assert any("recomputed" in v for v in report.violations)


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    workload = workloads.make("bundled", workloads.DEFAULT_SEED, tmp_path)
    ledger = checks.FingerprintLedger({})
    with Tracer() as tracer:
        # names imported into other modules are rebound too, and so is the method
        for module in (negosim.domain, negosim.tactics, negosim.protocol, negosim.prediction):
            assert module.total_profit is not before[("negosim.domain", "total_profit")]
        assert negosim.run_batch is not before[("negosim", "run_batch")]
        assert negosim.tactics.Tactic.propose is not before[("negosim.tactics", "Tactic", "propose")]
        tally = measure.run_units(workload, ledger, workload.warmup_keys)
    after = _bindings()
    assert tally.failed == 0
    assert tracer.stats["harness.run_batch"].calls == len(workloads.BUNDLED)
    assert tracer.stats["coordination.coordinate"].calls == workloads.BUNDLED_BATCH
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    workload = workloads.make("bundled", workloads.DEFAULT_SEED, tmp_path)
    ledger = checks.FingerprintLedger({})
    plain = measure.run_units(workload, ledger, workload.warmup_keys)
    with Tracer() as tracer:
        traced = measure.run_units(workload, ledger, plain.keys)
    layer = measure.per_layer(traced, tracer, tracer, plain.wall_s)
    e2e = measure.end_to_end(plain, setup_s=1.0)
    assert {n: u for n, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert [(n, u) for n, (_, u) in layer.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layers = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())["layers"]
    assert sorted(n for layer in layers.values() for n in layer["metrics"]) == sorted(layer)
