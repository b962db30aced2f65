"""One-to-many negotiation: sub-buyer threads and coordination strategies.

The buyer spawns one sub-buyer per supplier; each pair runs an independent
bilateral session. The coordinator then picks a contract: as soon as
possible (desperate), best overall (patient), or first-good-enough with a
patient fallback (adapted). Ties go to the earlier completion round, then
the lower thread id, so the order of the results does not matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .domain import NegotiationError, PreferenceProfile, is_number
from .protocol import (
    DEFAULT_DIVERGENCE_WINDOW,
    DEFAULT_MAX_ROUNDS,
    SessionOutcome,
    SessionTrace,
    run_session,
)
from .tactics import Tactic

STRATEGIES = ("desperate", "patient", "adapted")


class PlanError(NegotiationError):
    """A coordination plan is malformed."""


@dataclass(frozen=True)
class SubBuyerResult:
    thread_id: int
    supplier_id: str
    outcome: SessionOutcome
    completion_round: int
    utility: float | None  # buyer's utility; present iff the thread agreed
    cancelled_at: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome.kind == "agreement"


@dataclass(frozen=True)
class CoordinationPlan:
    strategy: str  # desperate | patient | adapted
    theta: float | None = None  # adapted only: good-enough utility threshold

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise PlanError(f"unknown coordination strategy {self.strategy!r}")
        if self.strategy == "adapted" and self.theta is None:
            raise PlanError("adapted strategy requires a threshold theta")
        if self.strategy != "adapted" and self.theta is not None:
            raise PlanError(f"{self.strategy} strategy takes no threshold")
        if self.theta is not None and not (is_number(self.theta) and 0 <= self.theta < math.inf):
            raise PlanError(f"theta must be a finite number >= 0, got {self.theta!r}")


@dataclass(frozen=True)
class ContractChoice:
    thread_id: int
    supplier_id: str
    round: int  # round at which the coordinator commits
    utility: float


def coordinate_desperate(results: Sequence[SubBuyerResult]) -> ContractChoice | None:
    """First success wins; among same-round successes, the highest utility."""
    if not results:
        raise PlanError("coordination needs at least one sub-buyer thread")
    successes = [r for r in results if r.succeeded]
    if not successes:
        return None
    first_round = min(r.completion_round for r in successes)
    same_round = [r for r in successes if r.completion_round == first_round]
    best = min(same_round, key=lambda r: (-r.utility, r.thread_id))
    return ContractChoice(best.thread_id, best.supplier_id, first_round, best.utility)


def coordinate_patient(results: Sequence[SubBuyerResult]) -> ContractChoice | None:
    """Wait for every thread, then take the best success.

    Ties: earliest completion round, then lowest thread id. The commit round
    is when the slowest thread finished, since everyone waited for it.
    """
    if not results:
        raise PlanError("coordination needs at least one sub-buyer thread")
    successes = [r for r in results if r.succeeded]
    if not successes:
        return None
    decision_round = max(r.completion_round for r in results)
    best = min(successes, key=lambda r: (-r.utility, r.completion_round, r.thread_id))
    return ContractChoice(best.thread_id, best.supplier_id, decision_round, best.utility)


def coordinate_adapted(
    results: Sequence[SubBuyerResult], theta: float
) -> ContractChoice | None:
    """Take the first success scoring at least theta; otherwise act patient."""
    if theta < 0:
        raise PlanError(f"theta must be >= 0, got {theta:g}")
    qualifying = [r for r in results if r.succeeded and r.utility >= theta]
    if qualifying:
        return coordinate_desperate(qualifying)
    return coordinate_patient(results)


def coordinate(plan: CoordinationPlan, results: Sequence[SubBuyerResult]) -> ContractChoice | None:
    if plan.strategy == "desperate":
        return coordinate_desperate(results)
    if plan.strategy == "patient":
        return coordinate_patient(results)
    return coordinate_adapted(results, plan.theta)


def run_one_to_many(
    buyer_profile: PreferenceProfile,
    buyer_tactic: Tactic,
    suppliers: Sequence[tuple[PreferenceProfile, Tactic]],
    plan: CoordinationPlan,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    predictor_config=None,
    divergence_window: int = DEFAULT_DIVERGENCE_WINDOW,
    tables: dict | None = None,
) -> tuple[ContractChoice | None, list[SubBuyerResult], list[SessionTrace]]:
    """Run every sub-buyer thread, then coordinate.

    The buyer opens every thread. A losing thread still running when the
    coordinator commits gets the commit round as its ``cancelled_at``.
    ``tables`` is :func:`~negosim.protocol.run_session`'s, passed to every
    thread; left ``None``, the threads share a dict of this call's own, so
    the buyer's offer table is built once per market and freed on return.
    """
    if not suppliers:
        raise PlanError("one-to-many mode needs at least one supplier")
    if tables is None:
        tables = {}
    results: list[SubBuyerResult] = []
    traces: list[SessionTrace] = []
    for thread_id, (supplier_profile, supplier_tactic) in enumerate(suppliers):
        outcome, trace = run_session(
            buyer_profile,
            supplier_profile,
            buyer_tactic,
            supplier_tactic,
            predictor_config=predictor_config,
            max_rounds=max_rounds,
            divergence_window=divergence_window,
            tables=tables,
        )
        utility = None
        if outcome.kind == "agreement":
            utility = outcome.utilities[buyer_profile.agent_id]
        results.append(
            SubBuyerResult(
                thread_id=thread_id,
                supplier_id=supplier_profile.agent_id,
                outcome=outcome,
                completion_round=outcome.round,
                utility=utility,
            )
        )
        traces.append(trace)
    choice = coordinate(plan, results)
    if choice is not None:  # the winner, and every thread under patient, is done by then
        for i, result in enumerate(results):
            if result.completion_round > choice.round:
                results[i] = replace(result, cancelled_at=choice.round)
    return choice, results, traces
