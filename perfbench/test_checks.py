"""Self-test of the benchmark: every workload passes at toy size, and
every correctness check fails on a deliberately corrupted tally, ledger
or grid.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, import_program, per_layer_units  # noqa: E402

import_program()

import checks  # noqa: E402
from tbqkd.config import load_preset  # noqa: E402
from tbqkd.pipeline import run_simulation  # noqa: E402
from tbqkd.slotmodel import analytic_expected_tallies  # noqa: E402
from workloads import CROSS_PER_GRID, small_scenario  # noqa: E402


def corrupt(rec: dict, **tallies) -> dict:
    """Copy of a run record with some tally keys overwritten."""
    out = dict(rec, tallies=dict(rec["tallies"], **tallies))
    out["sent"] = [list(r) for r in rec["sent"]]
    return out


def run_toy(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["simulate-sweep", "optimize-crosscheck"])
def test_toy_workload_passes(workload, trace):
    result = run_toy(workload, trace)
    assert result["correct"]
    want = END_TO_END if trace == 0 else per_layer_units()
    assert set(result["metrics"]) == set(want)
    if workload == "optimize-crosscheck":
        # the framing case fails in its reference run, once per pass of
        # the cross-check; the traced run calls every operation twice
        per_round = 2 + 6 * CROSS_PER_GRID
        assert result["attempted"] == per_round * (1 + trace)
        assert result["failed"] == CROSS_PER_GRID * (1 + trace)
    else:
        assert result["failed"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


@pytest.fixture(scope="module")
def small():
    sc = small_scenario(duration=0.01, seed=5)
    return sc, checks.run_record(run_simulation(sc)), checks.oracle_record(
        analytic_expected_tallies(sc))


@pytest.fixture(scope="module")
def sweep():
    """7 dB and 14 dB presets shortened to 20 s, servo windows included."""
    out = {}
    for name in ("link-7db", "link-14db"):
        sc = load_preset(name).replace(duration=20.0)
        out[name] = sc, checks.run_record(run_simulation(sc))
    return out


def test_clean_records_pass(small, sweep):
    sc, rec, exp = small
    assert checks.check_run_identities(sc, rec) == []
    assert checks.check_sent_multinomial(sc, rec) == []
    assert checks.check_z_first_clicks(sc, rec) == []
    assert checks.check_oracle_identities(sc, exp) == []
    assert checks.check_oracle_agreement("batch", exp, rec, 4.0, 2.0, True) == []
    for sc, rec in sweep.values():
        assert checks.check_run_identities(sc, rec) == []
        assert checks.check_z_first_clicks(sc, rec) == []


def test_identities_catch_burst_and_symbol_errors(small):
    sc, rec, _ = small
    assert checks.check_run_identities(sc, dict(rec, eligible_bursts=rec["eligible_bursts"] - 1))
    assert checks.check_run_identities(sc, dict(rec, symbols_sent=rec["symbols_sent"] + 20))
    assert checks.check_run_identities(sc, dict(rec, elapsed_s=rec["elapsed_s"] * 1.001))
    assert checks.check_run_identities(sc, dict(rec, total_bursts=rec["total_bursts"] + 1))


def test_identities_catch_servo_window_errors(sweep):
    sc, rec = sweep["link-7db"]
    # a run that forgot the stabilization windows
    wrong = dict(rec, eligible_bursts=rec["total_bursts"],
                 symbols_sent=rec["total_bursts"] * 20)
    assert checks.check_run_identities(sc, wrong)


def test_ledger_errors_are_caught(small):
    sc, rec, _ = small
    bad = corrupt(rec)
    bad["sent"][2][1] += 1
    assert any("ledger" in p for p in checks.check_run_identities(sc, bad))


def test_m_above_n_is_caught(small):
    sc, rec, _ = small
    t = rec["tallies"]
    bad = corrupt(rec, m_x_mu2=t["n_x_mu2"] + 1)
    assert any("m_x_mu2" in p for p in checks.check_run_identities(sc, bad))


def test_sent_cells_off_their_multinomial_mean_are_caught(small):
    sc, rec, _ = small
    bad = corrupt(rec)
    shift = int(10 * (rec["symbols_sent"] * 0.45 * 0.63) ** 0.5)
    bad["sent"][0][0] -= shift
    bad["sent"][1][0] += shift  # the ledger still sums
    assert checks.check_run_identities(sc, bad) == []
    assert checks.check_sent_multinomial(sc, bad)


def test_z_tallies_off_the_first_click_estimate_are_caught(sweep):
    sc, rec = sweep["link-7db"]
    t = rec["tallies"]
    assert checks.check_z_first_clicks(sc, corrupt(rec, n_z_mu1=int(t["n_z_mu1"] * 1.05)))
    assert checks.check_z_first_clicks(sc, corrupt(rec, n_z_mu1=int(t["n_z_mu1"] * 0.95)))


def test_block_limit_rate_bands_and_order(sweep):
    sc7, rec7 = sweep["link-7db"]
    sc14, rec14 = sweep["link-14db"]

    def rate(sc, rec):
        return checks.block_limit_rate(sc, rec["tallies"], rec["elapsed_s"],
                                       rec["symbols_sent"])

    r7, r14 = rate(sc7, rec7), rate(sc14, rec14)
    assert checks.check_strictly_decreasing([("7db", r7), ("14db", r14)]) == []
    assert checks.check_band("7db", r7, checks.PAPER_BANDS[7.0]) == []
    # doubling the Z errors drives the rate below the band
    t = rec7["tallies"]
    noisy = corrupt(rec7, m_z_mu1=2 * t["m_z_mu1"], m_z_mu2=2 * t["m_z_mu2"])
    assert checks.check_band("7db", rate(sc7, noisy), checks.PAPER_BANDS[7.0])
    # 14 dB tallies reported for the 7 dB point break the ordering
    assert checks.check_strictly_decreasing([("7db", r14), ("14db", r7)])


def test_oracle_disagreement_is_caught(small):
    sc, rec, exp = small
    for key in ("n_z_mu1", "m_z_mu2", "n_x_mu1", "m_x_mu2"):
        sd = (exp["variances"][key] + exp["drift_variances"][key]) ** 0.5
        bad = corrupt(rec, **{key: round(exp["means"][key] + 5 * sd + 3)})
        problems = checks.check_oracle_agreement("batch", exp, bad, 4.0, 2.0, True)
        assert any(key in p for p in problems), key


def test_oracle_identities_catch_wrong_counts(small):
    sc, _, exp = small
    assert checks.check_oracle_identities(sc, dict(exp, eligible_bursts=exp["eligible_bursts"] + 1))
    assert checks.check_oracle_identities(sc, dict(exp, symbols_sent=exp["symbols_sent"] - 1))


def test_lost_events_are_caught(small):
    _, rec, _ = small
    n = checks.first_clicks(rec)
    assert checks.check_events_accounted(n, rec) == []
    assert checks.check_events_accounted(n + 1, rec)
    assert checks.check_events_accounted(n, dict(rec, outside=rec["outside"] + 1))


def test_grid_checks():
    axes = ((0.5,), (0.15, 0.19), (0.63, 0.7), (0.9,))
    points = [(0.5, 0.15, 0.63, 0.9, 10), (0.5, 0.15, 0.7, 0.9, 30),
              (0.5, 0.19, 0.63, 0.9, 30), (0.5, 0.19, 0.7, 0.9, 20)]
    assert checks.check_grid(axes, points, (0.5, 0.15, 0.7, 0.9), 30) == []
    # not the highest skl
    assert checks.check_grid(axes, points, (0.5, 0.19, 0.7, 0.9), 20)
    # a tie resolved to the larger parameter tuple
    assert checks.check_grid(axes, points, (0.5, 0.19, 0.63, 0.9), 30)
    # a grid point skipped
    assert checks.check_grid(axes, points[1:], (0.5, 0.15, 0.7, 0.9), 30)


def test_repeated_runs_must_match(small):
    _, rec, _ = small
    assert checks.check_same("x", rec, corrupt(rec)) == []
    assert checks.check_same("x", rec, corrupt(rec, n_z_mu1=rec["tallies"]["n_z_mu1"] + 1))
