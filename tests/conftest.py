import random
import sys
from pathlib import Path

import pytest

# the repository root, so tests can reuse perfbench's session checks
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from negosim.domain import Issue, IssueOption, make_profile
from negosim.harness import bundled_scenario, load_scenario


def ladder_issue(name="value", steps=11):
    """Single issue whose option p_i is rated 10*i, so utility == rating."""
    options = tuple(IssueOption(label=f"p{i}", rating=10.0 * i) for i in range(steps))
    return Issue(name=name, options=options)


def ladder_profile(agent_id="agent", deadline=10, reservation=None):
    return make_profile(
        agent_id=agent_id,
        issues=[ladder_issue()],
        weights={"value": 100.0},
        deadline=deadline,
        reservation_utility=reservation,
    )


def random_profile(rng: random.Random, agent_id: str):
    """A small random but valid profile (exactly one zero-rated option per issue)."""
    n_issues = rng.randint(1, 3)
    issues = []
    for i in range(n_issues):
        n_options = rng.randint(2, 4)
        ratings = [0.0] + [rng.uniform(1.0, 100.0) for _ in range(n_options - 1)]
        rng.shuffle(ratings)
        issues.append(
            Issue(
                name=f"issue{i}",
                options=tuple(
                    IssueOption(label=f"o{j}", rating=r) for j, r in enumerate(ratings)
                ),
            )
        )
    raw = [rng.uniform(1.0, 10.0) for _ in range(n_issues)]
    total = sum(raw)
    weights = {f"issue{i}": 100.0 * w / total for i, w in enumerate(raw)}
    return make_profile(
        agent_id=agent_id,
        issues=issues,
        weights=weights,
        deadline=rng.randint(1, 20),
    )


def random_offer(rng: random.Random, profile):
    return {
        issue.name: rng.choice(issue.labels()) for issue in profile.issues
    }


@pytest.fixture(scope="session")
def aircraft_scenario():
    return load_scenario(bundled_scenario("aircraft.scenario"))


@pytest.fixture(scope="session")
def disjoint_scenario():
    return load_scenario(bundled_scenario("disjoint.scenario"))


@pytest.fixture(scope="session")
def market_scenario():
    return load_scenario(bundled_scenario("aircraft_market.scenario"))
