"""Command-line interface: run, batch, compare, registry-demo."""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import click

from .domain import NegotiationError
from .harness import (
    _run_bilateral,
    _write_new,
    bundled_scenario,
    compare_prediction,
    load_scenario,
    run_batch,
    write_outputs,
    yaml_text,
)
from .registry import DiscoveryQuery, ServiceRecord, ServiceRegistry


def _load(scenario_path: str, seed: int | None):
    scenario = load_scenario(scenario_path)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    return scenario


def _warn_one_line(message, *_) -> None:
    """``warnings.showwarning`` for the CLI: the message alone, on stderr."""
    click.echo(f"negosim: warning: {message}", err=True)


class _Main(click.Group):
    """Turns every expected failure of a command into a one-line diagnostic,
    and every warning into one line on stderr."""

    def invoke(self, ctx):
        with warnings.catch_warnings():
            warnings.showwarning = _warn_one_line
            try:
                return super().invoke(ctx)
            except BrokenPipeError:
                raise  # click exits quietly when stdout is closed early
            except (NegotiationError, OSError) as exc:
                raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main() -> None:
    """Deterministic multi-agent negotiation simulator."""


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=str)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_dir", type=str, default=None)
@click.option("--trace", is_flag=True, help="Also write the session trace CSV.")
def run(scenario_path, seed, out_dir, trace) -> None:
    """Run a single session and report its outcome."""
    scenario = _load(scenario_path, seed)
    result = run_batch(scenario, 1)
    outcome = result.records[0].outcome
    click.echo(
        f"outcome: {outcome.kind} at round {outcome.round}"
        + (f" ({outcome.reason})" if outcome.reason else "")
    )
    for agent, utility in sorted(outcome.utilities.items()):
        click.echo(f"  utility[{agent}] = {utility:.2f}")
    if out_dir is not None:
        for path in write_outputs(scenario, result, out_dir, traces=trace):
            click.echo(f"wrote {path}")


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=str)
@click.option("-n", "--sessions", "n_sessions", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_dir", type=str, default=None)
def batch(scenario_path, n_sessions, seed, out_dir) -> None:
    """Run a batch of sessions; write traces and aggregate statistics."""
    scenario = _load(scenario_path, seed)
    result = run_batch(scenario, n_sessions)
    click.echo(yaml_text(result.stats.to_dict()).rstrip())
    if out_dir is not None:
        write_outputs(scenario, result, out_dir, traces=True)
        click.echo(f"wrote traces and stats to {out_dir}")


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=str)
@click.option("-n", "--sessions", "n_sessions", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_dir", type=str, default=None)
def compare(scenario_path, n_sessions, seed, out_dir) -> None:
    """Paired batches with behavior prediction off vs on; report the deltas."""
    scenario = _load(scenario_path, seed)
    comparison = compare_prediction(scenario, n_sessions)
    report = {
        "off": comparison["off"].stats.to_dict(),
        "on": comparison["on"].stats.to_dict(),
        "deltas": comparison["deltas"],
    }
    text = yaml_text(report)
    click.echo(text.rstrip())
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_new(out / "compare.yaml", text)
        click.echo(f"wrote {out / 'compare.yaml'}")


@main.command("registry-demo")
def registry_demo() -> None:
    """Register the bundled sellers, discover them, then negotiate with one."""
    scenario = load_scenario(bundled_scenario("aircraft_market.scenario"))
    registry = ServiceRegistry()
    for supplier_id in scenario.supplier_ids:
        spec = scenario.agent(supplier_id)
        registry.register(
            ServiceRecord(
                seller_id=spec.id,
                category="aircraft",
                issue_template=spec.profile.issues,
            )
        )
    records = registry.discover(
        DiscoveryQuery(category="aircraft", required_issues=("price", "warranty"))
    )
    click.echo(f"discovered {len(records)} sellers in category 'aircraft':")
    for record in records:
        click.echo(f"  #{record.registered_at} {record.seller_id}")
    buyer = scenario.agent(scenario.buyer_id)
    seller = scenario.agent(records[0].seller_id)
    outcome = _run_bilateral(scenario, 0, buyer, seller).outcome
    click.echo(
        f"session {buyer.id} vs {seller.id}: {outcome.kind} at round {outcome.round}"
    )
    for agent, utility in sorted(outcome.utilities.items()):
        click.echo(f"  utility[{agent}] = {utility:.2f}")


if __name__ == "__main__":
    sys.exit(main())
