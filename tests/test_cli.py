"""Command-line surface, end to end: output files, exit codes, and the
JSON error contract on stderr.

Contract under test: exit 0 on success, exit 2 on any configuration
error (one JSON object on stderr), exit 3 on degenerate statistics with
the output files still written so the caller can inspect what happened.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from tbqkd import DetectorModel, __version__
from tbqkd.cli import main
from tbqkd.config import ScenarioConfig, load_scenario, save_scenario
from tbqkd.protocol import ProtocolParams
from tbqkd.sift import read_tally_csv

from conftest import small_scenario

REPORT_KEYS = {
    "s_z0_lower",
    "s_z1_lower",
    "phi_z_upper",
    "q_z",
    "lambda_ec",
    "skl",
    "skr",
    "yield",
    "s_x1_lower",
    "v_x1_upper",
    "s_z0_upper",
}


def cli_scenario() -> ScenarioConfig:
    """A scenario fast enough for CLI tests yet statistically healthy.

    The short runs need enough X-basis clicks that the decoy bound on
    single-photon X counts stays positive, or simulate would exit 3 by
    design. A balanced basis choice and a hot detector get there in a
    2 s scenario (~0.2 s of wall time per invocation).
    """
    return small_scenario(
        duration=2.0,
        params=ProtocolParams(p_z=0.5),
        detector=DetectorModel(efficiency=0.8, dark_prob_per_ns=1e-6),
    )


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture
def cfg_path(tmp_path) -> str:
    path = tmp_path / "scenario.yaml"
    save_scenario(cli_scenario(), path)
    return str(path)


def config_error(result) -> str:
    """Decode the stderr JSON emitted on exit 2 and return its message."""
    assert result.exit_code == 2, result.output
    payload = json.loads(result.stderr)
    assert payload["error"] == "config"
    return payload["message"]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPattern:
    def test_csv_shape_and_header(self, runner, tmp_path):
        out = tmp_path / "pat"
        result = runner.invoke(main, ["pattern", "--bursts", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output

        with open(out / "pattern.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["burst", "slot", "bin", "start_ps", "width_ps"]
        # Default cycle is XPlus: two pulses per symbol, 20 symbols, 2 bursts.
        assert len(rows) == 2 * 20 * 2
        assert {r[0] for r in rows} == {"0", "1"}
        assert {r[2] for r in rows} == {"early", "late"}
        # 800 MHz default output clock: every pulse is one 625 ps bit wide.
        assert all(int(r[4]) == 625 for r in rows)
        starts = [int(r[3]) for r in rows]
        assert starts == sorted(starts)
        assert starts[0] < starts[1]
        assert "80 pulses" in result.output

    def test_state_cycle_is_honored(self, runner, tmp_path):
        out = tmp_path / "pat"
        result = runner.invoke(
            main, ["pattern", "--states", "Z0,Z1", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "pattern.csv")
        assert len(rows) == 20
        for row in rows:
            slot = int(row["slot"])
            assert row["bin"] == ("early" if slot % 2 == 0 else "late")

    def test_preset_pattern_bytes_are_pinned(self, runner, tmp_path):
        # 3 bursts of 20 slots at 684 MHz, a cycle that straddles bursts
        args = ["pattern", "--preset", "link-7db", "--bursts", "3"]
        args += ["--states", "Z0,Z1,XPlus,XPlus", "--out", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "90 pulses" in result.output
        digest = hashlib.sha256((tmp_path / "pattern.csv").read_bytes()).hexdigest()
        assert digest == (
            "77f8313aea188a4c8f099837e887b7505a87e995e7182b04c54b81d07209bcb0"
        )

    def test_unknown_state_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["pattern", "--states", "Z0,Q7", "--out", str(tmp_path)]
        )
        message = config_error(result)
        assert "Q7" in message

    def test_bursts_must_be_positive(self, runner, tmp_path):
        result = runner.invoke(
            main, ["pattern", "--bursts", "0", "--out", str(tmp_path)]
        )
        assert "--bursts" in config_error(result)


class TestSimulate:
    def test_outputs_and_healthy_exit(self, runner, cfg_path, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["simulate", "--config", cfg_path, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "symbols_sent=" in result.output

        payload = json.loads((out / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert set(payload["report"]) == REPORT_KEYS
        meta = payload["meta"]
        assert meta["seed"] == 11
        assert meta["duration_s"] == 2.0
        assert meta["degenerate"] is False
        assert meta["symbols_sent"] > 0
        assert meta["yield_per_clock_slot"] == payload["report"]["skr"] / 200e6
        assert "duty cycle" in meta["yield_note"]
        for key in (
            "discarded_cross_basis",
            "discarded_outside",
            "discarded_sideband",
            "discarded_stabilization",
        ):
            assert meta[key] >= 0

        (tally,) = read_tally_csv(out / "tallies.csv")
        assert tally.n_z_mu1 > 0
        assert tally.elapsed_s == pytest.approx(meta["elapsed_s"])

    def test_reruns_are_byte_identical(self, runner, cfg_path, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            result = runner.invoke(
                main, ["simulate", "--config", cfg_path, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        name = "tallies.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the measured stage times are the only part of the report that
        # may differ between reruns
        reports = [json.loads((out / "report.json").read_text()) for out in outs]
        for report in reports:
            del report["meta"]["timings"]
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    def test_report_identifies_the_run(self, runner, cfg_path, tmp_path):
        digests = {}
        for name, extra in (("a", []), ("b", []), ("seed", ["--seed", "12"])):
            out = tmp_path / name
            result = runner.invoke(
                main, ["simulate", "--config", cfg_path, *extra, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            meta = json.loads((out / "report.json").read_text())["meta"]
            assert meta["version"] == __version__
            digests[name] = meta["config_sha256"]
        assert digests["a"] == digests["b"] != digests["seed"]
        # the digest of the scenario as run, recomputed from the file
        loaded = load_scenario(cfg_path)
        for name, sc in (("a", loaded), ("seed", loaded.replace(seed=12))):
            text = json.dumps(sc.to_dict(), sort_keys=True)
            assert digests[name] == hashlib.sha256(text.encode()).hexdigest()

    def test_report_times_each_stage(self, runner, cfg_path, tmp_path):
        out = tmp_path / "run"
        t0 = time.perf_counter()
        result = runner.invoke(
            main, ["simulate", "--config", cfg_path, "--out", str(out)]
        )
        wall = time.perf_counter() - t0
        assert result.exit_code == 0, result.output
        timings = json.loads((out / "report.json").read_text())["meta"]["timings"]
        assert set(timings) == {
            "link_model_s",
            "drift_walk_s",
            "uniform_fills_s",
            "candidates_s",
            "attribution_s",
            "ledger_s",
            "key_analysis_s",
        }
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= wall

    def test_seed_override_changes_the_realization(self, runner, cfg_path, tmp_path):
        tallies = {}
        for seed in (11, 12):
            out = tmp_path / f"s{seed}"
            result = runner.invoke(
                main,
                ["simulate", "--config", cfg_path, "--seed", str(seed),
                 "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            tallies[seed] = read_tally_csv(out / "tallies.csv")[0]
        assert tallies[11] != tallies[12]

    def test_loss_override_suppresses_counts(self, runner, cfg_path, tmp_path):
        counts = {}
        for loss in (3.0, 20.0):
            out = tmp_path / f"l{loss:g}"
            result = runner.invoke(
                main,
                ["simulate", "--config", cfg_path, "--loss-db", str(loss),
                 "--out", str(out)],
            )
            # The 20 dB point has too few X clicks for a positive decoy
            # bound, so exit 3 is legitimate; tallies are written anyway.
            assert result.exit_code in (0, 3), result.output
            tally = read_tally_csv(out / "tallies.csv")[0]
            counts[loss] = tally.n_z_mu1 + tally.n_z_mu2
        assert counts[20.0] < counts[3.0] / 10

    def test_config_and_preset_conflict(self, runner, cfg_path):
        result = runner.invoke(
            main, ["simulate", "--config", cfg_path, "--preset", "link-7db"]
        )
        assert "not both" in config_error(result)

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--config", str(tmp_path / "nope.yaml")]
        )
        config_error(result)

    def test_unknown_config_section(self, runner, cfg_path, tmp_path):
        doc = yaml.safe_load(Path(cfg_path).read_text())
        doc["lasers"] = {}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert "lasers" in config_error(result)

    @pytest.mark.parametrize("engine", ["batch", "reference"])
    def test_short_dead_time_is_a_config_error(self, runner, tmp_path, engine):
        # 1 us of dead time cannot blanket a 4 us burst: refused at load,
        # whichever engine was asked for
        doc = cli_scenario().to_dict()
        doc["detector"]["dead_time"] = 1e-6
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--engine", engine]
        )
        assert "dead time" in config_error(result)
        assert len(result.stderr.splitlines()) == 1
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("detector", "tdc_resolution"),
            ("detector", "gate_width"),
            ("detector", "dead_time"),
            ("detector", "jitter_sigma"),
            ("detector", "dark_prob_per_ns"),
            ("interferometer", "delay"),
            ("interferometer", "drift_sigma"),
            ("interferometer", "stabilization_interval"),
            ("protocol", "burst_period"),
            ("run", "duration"),
        ],
    )
    def test_infinite_value_is_a_config_error(self, runner, tmp_path, section, key):
        # an infinite time has no picosecond count, and an infinite rate
        # no probability: refused at load, where perfect carving
        # (extinction_ratio_db: inf) is accepted
        doc = cli_scenario().to_dict()
        doc["source"]["extinction_ratio_db"] = math.inf
        doc[section][key] = math.inf
        path = tmp_path / "inf.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert key in config_error(result)
        assert isinstance(result.exception, SystemExit)

    def test_non_finite_integer_is_a_config_error(self, runner, tmp_path):
        # a NaN shift has no bit position: refused at load, not mid-run
        doc = cli_scenario().to_dict()
        doc["run"]["shift"] = math.nan
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert "shift" in config_error(result)

    def test_degenerate_run_exits_3_with_outputs(self, runner, tmp_path):
        # A blind, dark-free receiver clicks on nothing: empty tallies are
        # flagged degenerate, but the artifacts must still land on disk.
        cfg = small_scenario(
            detector=DetectorModel(efficiency=0.0, dark_prob_per_ns=0.0),
            duration=0.05,
        )
        path = tmp_path / "blind.yaml"
        save_scenario(cfg, path)
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--out", str(out)]
        )
        assert result.exit_code == 3
        assert "degenerate" in result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["skl"] == 0
        assert payload["meta"]["degenerate"] is True
        (tally,) = read_tally_csv(out / "tallies.csv")
        assert tally.n_z_mu1 == 0

    def test_unknown_engine_is_a_usage_error(self, runner, cfg_path):
        result = runner.invoke(
            main, ["simulate", "--config", cfg_path, "--engine", "turbo"]
        )
        assert result.exit_code == 2


class TestSweep:
    def test_rows_sorted_by_loss(self, runner, cfg_path, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            ["sweep", "--config", cfg_path, "--loss-db", "5,3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "sweep.csv")
        assert list(rows[0]) == ["loss_db", "q_z", "phi_z", "skr", "yield"]
        assert [float(r["loss_db"]) for r in rows] == [3.0, 5.0]
        for row in rows:
            assert 0.0 <= float(row["q_z"]) <= 1.0
            assert float(row["skr"]) >= 0.0
        assert result.output.count("loss_db=") == 2

    def test_malformed_loss_list(self, runner, cfg_path):
        result = runner.invoke(
            main, ["sweep", "--config", cfg_path, "--loss-db", "a,b"]
        )
        assert "--loss-db" in config_error(result)

    def test_empty_loss_list(self, runner, cfg_path):
        result = runner.invoke(
            main, ["sweep", "--config", cfg_path, "--loss-db", ","]
        )
        assert "empty" in config_error(result)


class TestOptimize:
    def test_grid_csv_and_best_json(self, runner, cfg_path, tmp_path):
        out = tmp_path / "opt"
        result = runner.invoke(
            main,
            ["optimize", "--config", cfg_path, "--mu2", "0.15,0.19",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "best mu1=" in result.output

        rows = read_rows(out / "grid.csv")
        assert list(rows[0]) == ["mu1", "mu2", "p_mu1", "p_z", "skl"]
        assert sorted(float(r["mu2"]) for r in rows) == [0.15, 0.19]

        best = json.loads((out / "best.json").read_text())
        assert best["schema_version"] == 1
        assert set(best["report"]) == REPORT_KEYS
        assert best["best"]["mu1"] == 0.5
        assert best["best"]["mu2"] in (0.15, 0.19)
        assert best["best"]["skl"] == max(int(float(r["skl"])) for r in rows)

    def test_axes_default_to_the_config_point(self, runner, cfg_path, tmp_path):
        out = tmp_path / "opt"
        result = runner.invoke(
            main, ["optimize", "--config", cfg_path, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out / "grid.csv")
        assert (float(row["mu1"]), float(row["mu2"])) == (0.5, 0.19)
        assert (float(row["p_mu1"]), float(row["p_z"])) == (0.63, 0.5)

    def test_malformed_axis(self, runner, cfg_path):
        result = runner.invoke(
            main, ["optimize", "--config", cfg_path, "--mu1", "x"]
        )
        assert "--mu1" in config_error(result)
