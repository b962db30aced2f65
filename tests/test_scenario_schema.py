"""Valid scenarios drawn from what the loader's field tables accept.

``scenarios()`` is a hypothesis strategy of scenario files the loader must
accept: 1-3 issues of 2-5 options, ratings with exactly one zero per issue,
weights summing to 100, pinned and default reservations, every tactic family
and mixtures of them, the predictor on and off, `divergence_window` 0 or >= 2,
and bilateral or one-to-many scenarios with 1-4 suppliers under every
strategy. Each drawn file must load and run one session. Every key of every
loader table must be drawn, and named in the README's "Scenario files"
section, so a new key fails here until it is both drawn and documented.
Examples are derandomized, so every run checks the same inputs.
"""

import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from negosim import harness
from negosim.coordination import STRATEGIES
from negosim.harness import ScenarioError, bundled_scenario, load_scenario, run_batch

NAMES = st.text("abcdefghijklmnopqrstuvwxyz0123456789_ $.-", min_size=1, max_size=8)
LEFT_OUT = object()  # a drawn value that leaves its key out of the mapping


def mapping(**values):
    """``values`` as a scenario mapping, without the keys drawn as left out."""
    return {key: value for key, value in values.items() if value is not LEFT_OUT}


def maybe(values):
    """``values``, or the key left out."""
    return st.one_of(st.just(LEFT_OUT), values)


def shares(n, total):
    """``n`` non-negative integers summing to ``total``."""
    cuts = st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1).map(sorted)
    return cuts.map(lambda c: [b - a for a, b in zip([0, *c], [*c, total])])


FAMILIES = ("time-dependent", "resource-dependent", "behavior-dependent", "mixed")
UNIT_INTERVAL = st.one_of(st.integers(0, 1), st.floats(0, 1))
PERCENT = st.one_of(st.integers(0, 100), st.floats(0, 100))


@st.composite
def tactics(draw, nested=False):
    """A tactic mapping of any family; a mixture's parts are not mixtures themselves."""
    family = draw(st.sampled_from(FAMILIES[:-1] if nested else FAMILIES))
    k = draw(maybe(UNIT_INTERVAL))
    if family == "time-dependent":
        return mapping(family=family, k=k, beta=draw(maybe(st.floats(0.1, 8))))
    if family == "resource-dependent":
        return mapping(family=family, k=k)
    if family == "behavior-dependent":
        return mapping(family=family, delta=draw(maybe(st.integers(1, 4))))
    parts = draw(st.lists(tactics(nested=True), min_size=1, max_size=3))
    quarters = draw(shares(len(parts), 4))  # weights of exact binary fractions sum to 1 exactly
    return {"family": family, "mixture": [{**p, "weight": q / 4} for p, q in zip(parts, quarters)]}


# null, or a mapping of any of its keys
PREDICTORS = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={"enabled": st.booleans(), "warmup": st.integers(0, 6)}),
)


@st.composite
def agents(draw, agent_id, alphabet):
    ratings = {}
    for name, labels in alphabet:
        positive = draw(st.lists(
            st.one_of(st.integers(1, 100), st.floats(0.5, 100)),
            min_size=len(labels) - 1, max_size=len(labels) - 1,
        ))
        zero = draw(st.integers(0, len(labels) - 1))
        ratings[name] = dict(zip(labels, [*positive[:zero], 0, *positive[zero:]]))
    weights = draw(shares(len(alphabet), 100))
    return mapping(
        id=agent_id,
        role=draw(maybe(st.text(max_size=10))),
        deadline=draw(st.integers(1, 30)),
        reservation_utility=draw(maybe(st.one_of(st.none(), PERCENT))),
        weights={name: w for (name, _), w in zip(alphabet, weights)},
        ratings=ratings,
        tactic=draw(maybe(tactics())),
        predictor=draw(maybe(PREDICTORS)),
    )


@st.composite
def scenarios(draw):
    """A scenario file, as a mapping, that the loader accepts."""
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    alphabet = [
        (name, draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))) for name in names
    ]
    market = draw(st.booleans())
    ids = draw(st.lists(NAMES, min_size=2, max_size=5 if market else 2, unique=True))
    if market:
        strategy = draw(st.sampled_from(STRATEGIES))
        coordination = mapping(
            buyer=ids[0],
            suppliers=ids[1:],
            strategy=strategy,
            theta=draw(PERCENT if strategy == "adapted" else maybe(st.none())),
        )
    return mapping(
        schema_version=1,
        seed=draw(st.integers()),
        mode="one-to-many" if market else draw(maybe(st.just("bilateral"))),
        opener=draw(maybe(st.sampled_from(ids[:1] if market else ids))),
        max_rounds=draw(maybe(st.integers(0, 60))),
        divergence_window=draw(maybe(st.one_of(st.just(0), st.integers(2, 5)))),
        issues=[{"name": name, "options": labels} for name, labels in alphabet],
        agents=[draw(agents(agent_id, alphabet)) for agent_id in ids],
        coordination=coordination if market else LEFT_OUT,
    )


def loader_tables() -> dict:
    """Every field table in the loader, by name."""
    return {
        name: table
        for name, table in vars(harness).items()
        if isinstance(table, dict) and table
        and all(isinstance(field, harness._Field) for field in table.values())
    }


def keys_drawn(raw):
    """The (table name, key) pairs set in the scenario mapping ``raw``."""
    yield from (("_TOP_LEVEL", key) for key in raw)
    for issue in raw["issues"]:
        yield from (("_ISSUE", key) for key in issue)
    for agent in raw["agents"]:
        yield from (("_AGENT", key) for key in agent)
        yield from (("_PREDICTOR", key) for key in agent.get("predictor") or {})
    yield from (("_COORDINATION", key) for key in raw.get("coordination", {}))


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.scenario"


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(raw=scenarios())
def test_every_drawn_scenario_loads_and_runs(scenario_path, raw):
    scenario_path.write_text(yaml.safe_dump(raw, allow_unicode=True), encoding="utf-8")
    scenario = load_scenario(scenario_path)
    ids = [agent["id"] for agent in raw["agents"]]
    assert [spec.id for spec in scenario.agents] == ids
    assert scenario.mode == raw.get("mode", "bilateral")
    assert scenario.opener == raw.get("opener", ids[0])
    for spec, agent in zip(scenario.agents, raw["agents"]):
        assert spec.profile.deadline == agent["deadline"]
        assert spec.predictor.enabled == (agent.get("predictor") or {}).get("enabled", False)
    result = run_batch(scenario, 1)
    assert result.stats.sessions == 1


def test_the_strategy_draws_every_key_of_every_loader_table():
    drawn = set()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(raw=scenarios())
    def collect(raw):
        drawn.update(keys_drawn(raw))

    collect()
    tables = loader_tables()
    assert sorted(tables) == ["_AGENT", "_COORDINATION", "_ISSUE", "_PREDICTOR", "_TOP_LEVEL"]
    assert drawn == {(name, key) for name, table in tables.items() for key in table}


def test_the_readme_names_every_key_of_every_loader_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    # `key`, `parent.key` or `key: value`
    undocumented = [
        key
        for table in loader_tables().values()
        for key in table
        if not re.search(rf"`(\w+\.)?{re.escape(key)}(:[^`]*)?`", section)
    ]
    assert undocumented == []


def test_an_agent_in_no_thread_is_rejected(tmp_path):
    raw = yaml.safe_load(bundled_scenario("aircraft_market.scenario").read_text(encoding="utf-8"))
    raw["coordination"]["suppliers"] = ["seller_1", "seller_2"]
    path = tmp_path / "idle.scenario"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert exc.value.violations == [
        "coordination: agents ['seller_3'] are neither the buyer nor a supplier"
    ]
