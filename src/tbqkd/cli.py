"""Command-line entry point: pattern, simulate, sweep, optimize.

Exit codes: 0 success, 2 configuration error (machine-readable JSON on
stderr), 3 degenerate statistics (outputs still written, skl = 0).
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import NoReturn

import click
import yaml

from . import __version__
from .config import (
    SCHEMA_VERSION,
    ScenarioConfig,
    load_preset,
    load_scenario,
    preset_names,
)
from .errors import TbqkdError
from .keyrate import KeyRateReport
from .optimize import GridSpec, optimize_params, write_grid_csv
from .pipeline import RunOutcome, simulate_and_analyze
from .ppg import pattern_timeline
from .protocol import State
from .sift import write_tally_csv

#: Nominal transmitter slot rate the per-clock-slot yield divides by.
CLOCK_SLOT_RATE_HZ = 200e6

YIELD_NOTE = (
    "yield = skl / symbols actually sent (burst duty cycle included); "
    "yield_per_clock_slot = skr / 200 MHz, the transmitter's maximum "
    "slot rate. The denominators differ by the burst duty cycle, so "
    "both are reported."
)


def _fail_config(message: str) -> NoReturn:
    click.echo(json.dumps({"error": "config", "message": message}), err=True)
    sys.exit(2)


def _load_config(config: str | None, preset: str | None) -> ScenarioConfig:
    if config and preset:
        _fail_config("pass either --config or --preset, not both")
    try:
        if config:
            return load_scenario(config)
        if preset:
            return load_preset(preset)
        return ScenarioConfig()
    except (TbqkdError, OSError, yaml.YAMLError) as exc:
        _fail_config(str(exc))


def _apply_overrides(
    cfg: ScenarioConfig,
    seed: int | None,
    duration: float | None,
    loss_db: float | None = None,
) -> ScenarioConfig:
    try:
        if seed is not None:
            cfg = cfg.replace(seed=seed)
        if duration is not None:
            cfg = cfg.replace(duration=duration)
        if loss_db is not None:
            cfg = cfg.with_loss(loss_db)
    except TbqkdError as exc:
        _fail_config(str(exc))
    return cfg


def _out_dir(out: str | None, cfg: ScenarioConfig) -> Path:
    path = Path(out or cfg.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(cfg: ScenarioConfig, engine: str) -> tuple[RunOutcome, KeyRateReport]:
    try:
        return simulate_and_analyze(cfg, engine=engine)
    except TbqkdError as exc:
        _fail_config(str(exc))


def _report_payload(
    outcome: RunOutcome, report: KeyRateReport, cfg: ScenarioConfig
) -> dict[str, object]:
    stats = outcome.sift_stats
    meta: dict[str, object] = {
        # the run's identity: the package version and a digest of the
        # scenario as run, overrides included
        "version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "seed": cfg.seed,
        "duration_s": cfg.duration,
        "symbols_sent": outcome.symbols_sent,
        "elapsed_s": outcome.elapsed_s,
        "eligible_bursts": outcome.eligible_bursts,
        "total_bursts": outcome.total_bursts,
        "q_x": report.q_x,
        "degenerate": report.degenerate,
        "yield_per_clock_slot": report.skr / CLOCK_SLOT_RATE_HZ,
        "yield_note": YIELD_NOTE,
        "discarded_cross_basis": stats.discarded_cross_basis,
        "discarded_outside": stats.discarded_outside,
        "discarded_sideband": stats.discarded_sideband,
        "discarded_stabilization": stats.discarded_stabilization,
        # measured seconds per stage; the only field that differs between
        # reruns of one scenario
        "timings": outcome.timings,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "report": report.to_json_dict(),
        "meta": meta,
    }


def _write_outputs(
    out: Path, outcome: RunOutcome, report: KeyRateReport, cfg: ScenarioConfig
) -> None:
    write_tally_csv(out / "tallies.csv", [outcome.tallies])
    payload = _report_payload(outcome, report, cfg)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")


config_option = click.option(
    "--config", type=click.Path(), default=None, help="Scenario YAML file."
)
preset_option = click.option(
    "--preset",
    type=str,
    default=None,
    help=f"Bundled scenario preset ({', '.join(preset_names())}).",
)
seed_option = click.option("--seed", type=int, default=None, help="RNG seed.")
out_option = click.option(
    "--out", type=click.Path(file_okay=False), default=None, help="Output directory."
)
duration_option = click.option(
    "--duration", type=float, default=None, help="Run duration in seconds."
)
engine_option = click.option(
    "--engine",
    type=click.Choice(["batch", "reference"]),
    default="batch",
    help="Simulation engine.",
)


@click.group()
def main() -> None:
    """Time-bin transmitter simulation and key analysis toolkit."""


@main.command()
@config_option
@preset_option
@click.option(
    "--states",
    type=str,
    default="XPlus",
    help="Comma-separated state cycle (Z0, Z1, XPlus).",
)
@click.option("--bursts", type=int, default=1, help="Bursts to dump.")
@out_option
def pattern(
    config: str | None, preset: str | None, states: str, bursts: int, out: str | None
) -> None:
    """Dump the serialized pulse pattern as CSV."""
    cfg = _load_config(config, preset)
    names = [s.strip() for s in states.split(",") if s.strip()]
    try:
        cycle = [State[name] for name in names]
    except KeyError as exc:
        _fail_config(f"unknown state {exc.args[0]!r}; choose from Z0, Z1, XPlus")
    if bursts < 1:
        _fail_config(f"--bursts must be >= 1, got {bursts}")
    try:
        pulses = list(pattern_timeline(cycle, cfg.params, cfg.framing, bursts))
    except TbqkdError as exc:
        _fail_config(str(exc))
    out_path = _out_dir(out, cfg) / "pattern.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["burst", "slot", "bin", "start_ps", "width_ps"])
        for p in pulses:
            writer.writerow(
                [p.burst_index, p.slot_index, p.bin_label.name.lower(),
                 p.start_ps, p.width_ps]
            )
    click.echo(f"wrote {out_path} ({len(pulses)} pulses)")


@main.command()
@config_option
@preset_option
@seed_option
@duration_option
@click.option("--loss-db", type=float, default=None, help="Channel loss override.")
@engine_option
@out_option
def simulate(
    config: str | None,
    preset: str | None,
    seed: int | None,
    duration: float | None,
    loss_db: float | None,
    engine: str,
    out: str | None,
) -> None:
    """Run one scenario; write tallies.csv and report.json."""
    cfg = _apply_overrides(_load_config(config, preset), seed, duration, loss_db)
    outcome, report = _run(cfg, engine)
    _write_outputs(_out_dir(out, cfg), outcome, report, cfg)
    click.echo(
        f"symbols_sent={outcome.symbols_sent} elapsed_s={outcome.elapsed_s:.6f} "
        f"q_z={report.q_z:.6f} skl={report.skl} skr={report.skr:.3f}"
    )
    if report.degenerate:
        click.echo("degenerate statistics: skl forced to 0", err=True)
        sys.exit(3)


@main.command()
@config_option
@preset_option
@seed_option
@duration_option
@click.option(
    "--loss-db",
    "loss_list",
    type=str,
    required=True,
    help="Comma-separated channel losses in dB.",
)
@engine_option
@out_option
def sweep(
    config: str | None,
    preset: str | None,
    seed: int | None,
    duration: float | None,
    loss_list: str,
    engine: str,
    out: str | None,
) -> None:
    """Simulate each loss point; write sweep.csv ordered by loss."""
    cfg = _apply_overrides(_load_config(config, preset), seed, duration)
    try:
        losses = sorted(float(v) for v in loss_list.split(",") if v.strip())
    except ValueError:
        _fail_config(f"--loss-db must be a comma-separated float list, got {loss_list!r}")
    if not losses:
        _fail_config("--loss-db list is empty")
    rows = []
    any_degenerate = False
    for loss in losses:
        point = _apply_overrides(cfg, None, None, loss)
        outcome, report = _run(point, engine)
        any_degenerate = any_degenerate or report.degenerate
        rows.append(
            {
                "loss_db": loss,
                "q_z": report.q_z,
                "phi_z": report.phi_z_upper,
                "skr": report.skr,
                "yield": report.yield_,
            }
        )
        click.echo(f"loss_db={loss:g} q_z={report.q_z:.6f} skr={report.skr:.3f}")
    out_path = _out_dir(out, cfg) / "sweep.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["loss_db", "q_z", "phi_z", "skr", "yield"])
        writer.writeheader()
        writer.writerows(rows)
    click.echo(f"wrote {out_path} ({len(rows)} points)")
    if any_degenerate:
        click.echo("degenerate statistics at one or more points", err=True)
        sys.exit(3)


def _parse_axis(text: str | None, fallback: float, flag: str) -> list[float]:
    if text is None:
        return [fallback]
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        _fail_config(f"{flag} must be a comma-separated float list, got {text!r}")
    if not vals:
        _fail_config(f"{flag} list is empty")
    return vals


@main.command()
@config_option
@preset_option
@duration_option
@click.option("--mu1", "mu1_list", type=str, default=None, help="Signal intensities.")
@click.option("--mu2", "mu2_list", type=str, default=None, help="Decoy intensities.")
@click.option("--p-mu1", "p_mu1_list", type=str, default=None, help="Signal probabilities.")
@click.option("--p-z", "p_z_list", type=str, default=None, help="Z-basis probabilities.")
@out_option
def optimize(
    config: str | None,
    preset: str | None,
    duration: float | None,
    mu1_list: str | None,
    mu2_list: str | None,
    p_mu1_list: str | None,
    p_z_list: str | None,
    out: str | None,
) -> None:
    """Grid-search source parameters on the analytic model."""
    cfg = _apply_overrides(_load_config(config, preset), None, duration)
    base = cfg.params
    grid = GridSpec(
        mu1=_parse_axis(mu1_list, base.mu1, "--mu1"),
        mu2=_parse_axis(mu2_list, base.mu2, "--mu2"),
        p_mu1=_parse_axis(p_mu1_list, base.p_mu1, "--p-mu1"),
        p_z=_parse_axis(p_z_list, base.p_z, "--p-z"),
    )
    try:
        result = optimize_params(cfg, grid)
    except TbqkdError as exc:
        _fail_config(str(exc))
    out_root = _out_dir(out, cfg)
    write_grid_csv(result.points, out_root / "grid.csv")
    best = {
        "schema_version": SCHEMA_VERSION,
        "best": {
            "mu1": result.best.mu1,
            "mu2": result.best.mu2,
            "p_mu1": result.best.p_mu1,
            "p_z": result.best.p_z,
            "skl": result.best_skl,
        },
        "report": result.best_report.to_json_dict(),
    }
    (out_root / "best.json").write_text(json.dumps(best, indent=2) + "\n")
    click.echo(
        f"best mu1={result.best.mu1:g} mu2={result.best.mu2:g} "
        f"p_mu1={result.best.p_mu1:g} p_z={result.best.p_z:g} skl={result.best_skl}"
    )


if __name__ == "__main__":
    main()
