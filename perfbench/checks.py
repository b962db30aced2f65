"""Correctness gate: session invariants, fingerprints and the stored reference.

Utilities are recomputed here from plain data (``PartySpec``) with the
weighted-additive formula, not through negosim, so a fault in negosim's
utility code cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
UTILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PartySpec:
    """One agent's private data as plain values."""

    agent_id: str
    ratings: Mapping[str, Mapping[str, float]]  # issue -> option label -> rating
    weights: Mapping[str, float]  # issue -> weight, summing to 100
    deadline: int
    beta: float = 1.0

    def utility(self, choices: Mapping[str, str]) -> float:
        score = 0.0
        for issue, weight in self.weights.items():
            menu = self.ratings[issue]
            score += weight * menu[choices[issue]] / max(menu.values())
        return min(max(score, 0.0), 100.0)

    def picks_zero(self, choices: Mapping[str, str]) -> bool:
        return any(self.ratings[issue][label] == 0 for issue, label in choices.items())


def session_violations(parties: Mapping[str, PartySpec], outcome, trace) -> list[str]:
    """Invariants every bilateral session (or sub-buyer thread) must satisfy."""
    problems = []
    rows = trace.rows
    if [row.round for row in rows] != list(range(len(rows))):
        problems.append("trace rounds are not contiguous")
    accepts = [i for i, row in enumerate(rows) if row.action == "accept"]
    if outcome.kind == "agreement":
        if accepts != [len(rows) - 1]:
            problems.append("agreement not reached on a final accept row")
        elif dict(rows[-1].offer.choices) != dict(outcome.offer.choices):
            problems.append("agreed offer differs from the accepted offer")
        for agent, value in outcome.utilities.items():
            expected = parties[agent].utility(outcome.offer.choices)
            if not math.isclose(value, expected, rel_tol=0.0, abs_tol=UTILITY_TOLERANCE):
                problems.append(f"utility of {agent} is {value!r}, recomputed {expected!r}")
    elif accepts:
        problems.append(f"accept row in a session that ended in {outcome.kind}")
    for row in rows:
        if row.action == "offer" and parties[row.proposer].picks_zero(row.offer.choices):
            problems.append(f"round {row.round}: {row.proposer} offers its own zero-rated option")
    return problems


def fingerprint(outcome, contract=None, contract_offer=None) -> list:
    """Outcome summary compared across runs: kind, round, party, reason, offer,
    exact utilities and, for a one-to-many session, the coordinator's choice."""
    fp = [
        outcome.kind,
        outcome.round,
        outcome.party,
        outcome.reason,
        sorted(outcome.offer.choices.items()) if outcome.offer is not None else None,
        sorted(outcome.utilities.items()),
        None,
    ]
    if contract is not None:
        fp[-1] = [
            contract.thread_id,
            contract.supplier_id,
            contract.round,
            contract.utility,
            sorted(contract_offer.choices.items()),
        ]
    return json.loads(json.dumps(fp))  # tuples become lists, as in the stored reference


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict:
    """Stored fingerprints by unit key, or an empty mapping for a seed without one."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    stored = json.loads(path.read_text())
    return stored["fingerprints"] if stored["seed"] == seed else {}


class FingerprintLedger:
    """Expected fingerprint per unit: the stored reference where there is one,
    otherwise whatever the unit produced the first time it ran."""

    def __init__(self, expected: Mapping[str, list]):
        self.expected = dict(expected)
        self.seen: dict[str, list] = {}

    def check(self, key, fp: list) -> list[str]:
        key = str(key)
        self.seen.setdefault(key, fp)
        want = self.expected.setdefault(key, fp)
        if want != fp:
            return [f"unit {key}: outcome fingerprint differs from the expected one"]
        return []
