"""Fuzzing the scenario loader with mutated copies of the bundled scenarios.

Each example takes one bundled scenario and makes one to three mutations:
a subtree replaced by a value of another type, a mapping key deleted, or an
issue or agent listed twice. The loader must either return a scenario or
raise a :class:`ScenarioError`, and a mutant that loads must run through
``negosim run`` without error. Examples are derandomized, so every run
checks the same inputs.
"""

import copy

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from negosim.cli import main
from negosim.harness import ScenarioError, bundled_scenario, load_scenario

BUNDLED = tuple(
    yaml.safe_load(bundled_scenario(name).read_text(encoding="utf-8"))
    for name in ("aircraft.scenario", "disjoint.scenario", "aircraft_market.scenario")
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
WRONG_TYPES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.one_of(st.text(max_size=5), st.integers()), SCALARS, max_size=3),
)

DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # the C emitter, where built, is faster


def _paths(node, prefix=()):
    """The path of every subtree of ``node``, the root's ``()`` first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _parent(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


def _field(path) -> str:
    """The schema field a path ends in: its last key, or ``<key>[]`` for a list item."""
    if not path:
        return ""
    if isinstance(path[-1], int):
        return f"{_field(path[:-1])}[]"
    return path[-1]


def _pick(draw, paths):
    """A path drawn so that every schema field is equally likely, however often it
    repeats: ``theta`` occurs once, option ratings dozens of times."""
    by_field = {}
    for path in paths:
        by_field.setdefault(_field(path), []).append(path)
    return draw(st.sampled_from(by_field[draw(st.sampled_from(sorted(by_field)))]))


def _mutate(draw, raw):
    """``raw`` after one mutation: a subtree replaced, a key deleted or an entry repeated."""
    kind = draw(st.sampled_from(("replace", "delete", "duplicate")))
    if kind == "duplicate":
        entries = raw.get(draw(st.sampled_from(("issues", "agents"))))
        if isinstance(entries, list) and entries:
            entries.append(copy.deepcopy(draw(st.sampled_from(entries))))
        return raw
    paths = list(_paths(raw))
    if kind == "delete":
        keyed = [p for p in paths if p and isinstance(_parent(raw, p), dict)]
        if keyed:
            path = _pick(draw, keyed)
            del _parent(raw, path)[path[-1]]
        return raw
    path = _pick(draw, paths)
    value = draw(WRONG_TYPES)
    if not path:
        return value
    _parent(raw, path)[path[-1]] = value
    return raw


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario after one to three mutations."""
    raw = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(raw, dict):
            break
        raw = _mutate(draw, raw)
    return raw


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.scenario"


def _write(path, raw):
    # sort_keys=False: a mutation may mix integer and string keys in one mapping
    text = yaml.dump(raw, Dumper=DUMPER, sort_keys=False, allow_unicode=True)
    path.write_text(text, encoding="utf-8")
    return path


@settings(
    max_examples=1200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=mutated_scenarios())
def test_mutated_scenario_is_loaded_or_listed_and_never_crashes_the_cli(scenario_path, raw):
    path = _write(scenario_path, raw)
    try:
        load_scenario(path)
    except ScenarioError as exc:
        assert exc.violations
        return
    # the mutants that load also run, so a value the loader lets through cannot crash a session
    result = CliRunner().invoke(main, ["run", "--scenario", str(path)])
    assert result.exception is None, result.exception
    assert "Traceback" not in result.output
