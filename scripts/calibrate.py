#!/usr/bin/env python3
"""Receiver calibration scan behind the shipped presets.

The two bundled scenarios share one receiver calibration, fixed once and
then frozen:

  stage A anchors the error floor and the dark-count rate against the
          14 dB link alone (the floor is loss-independent, so the
          long-link point pins it with the least photon statistics);
  stage B picks the receiver basis bias and the reconciliation
          efficiency that maximize the worst-leg margin of the 7 dB
          link against its target bands;
  stage C rechecks that the shipped presets carry exactly the winning
          values and prints the analytic predictions for both links.

Everything runs on the closed-form expectation engine (drift and servo
off), so the scan is deterministic. Pass --mc to append the two full
Monte Carlo preset runs as a cross-check.

Exits 1 if the shipped presets disagree with the scan winners.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from tbqkd import (
    InterferometerModel,
    ScenarioConfig,
    expected_keyrate,
    load_preset,
    simulate_and_analyze,
)

# Stage A: the 14 dB anchor. The floor target sits at the low edge of
# the Q_Z acceptance band because every other error mechanism only adds
# on top; the anchor cap is the highest Q_Z the 14 dB link may show
# after dark counts are included.
QZ_FLOOR_TARGET = 0.0200
QZ_ANCHOR_CAP = 0.0205
ER_GRID_DB = [16.0 + 0.2 * i for i in range(11)]
DARK_GRID = [1e-8, 3e-8, 1e-7, 3e-7, 1e-6]

# Stage B: the 7 dB margin. Bands mirror the acceptance gate: Q_Z in
# [0.02, 0.04], phi_Z in [0.04, 0.08], skr at least half of 3.0 kb/s.
P_ZR_GRID = [0.30, 0.35, 0.40, 0.45]
F_EC_GRID = [1.02, 1.06, 1.10]


def quiet(cfg: ScenarioConfig, duration: float) -> ScenarioConfig:
    """Strip drift and servo so expected_keyrate is closed form."""
    return cfg.replace(
        duration=duration,
        servo_bursts_per_event=0,
        interferometer=InterferometerModel(
            delay=cfg.interferometer.delay,
            visibility=cfg.interferometer.visibility,
            drift_sigma=0.0,
            stabilization_interval=cfg.interferometer.stabilization_interval,
        ),
    )


def with_receiver(
    cfg: ScenarioConfig,
    er_db: float | None = None,
    dark: float | None = None,
    p_zr: float | None = None,
    f_ec: float | None = None,
) -> ScenarioConfig:
    out = cfg
    if er_db is not None:
        out = out.replace(
            source=dataclasses.replace(out.source, extinction_ratio_db=er_db)
        )
    if dark is not None:
        out = out.replace(
            detector=dataclasses.replace(out.detector, dark_prob_per_ns=dark)
        )
    if p_zr is not None:
        out = out.replace(p_z_receiver=p_zr)
    if f_ec is not None:
        out = out.replace(
            security=dataclasses.replace(out.security, f_ec=f_ec)
        )
    return out


def joint_margin(q_z: float, phi_z: float, skr: float) -> float:
    """Worst normalized slack of the 7 dB link against its bands."""
    legs = (
        (q_z - 0.02) / 0.02,
        (0.04 - q_z) / 0.02,
        (phi_z - 0.04) / 0.04,
        (0.08 - phi_z) / 0.04,
        (skr - 1500.0) / 1500.0,
    )
    return min(legs)


def stage_a(base14: ScenarioConfig) -> tuple[float, float]:
    short = quiet(base14, duration=10.0)

    print("stage A: error floor at 14 dB (dark counts off)")
    best_er = None
    best_gap = None
    for er in ER_GRID_DB:
        rep = expected_keyrate(with_receiver(short, er_db=er, dark=0.0))
        gap = abs(rep.q_z - QZ_FLOOR_TARGET)
        mark = ""
        if best_gap is None or gap < best_gap:
            best_er, best_gap, mark = er, gap, "  <-"
        print(f"  er={er:4.1f} dB  q_z_floor={rep.q_z:.5f}{mark}")

    print(f"stage A: dark rate, largest with Q_Z(14 dB) <= {QZ_ANCHOR_CAP}")
    best_dark = 0.0
    for dark in DARK_GRID:
        rep = expected_keyrate(with_receiver(short, er_db=best_er, dark=dark))
        ok = rep.q_z <= QZ_ANCHOR_CAP
        if ok:
            best_dark = dark
        print(f"  dark={dark:.0e} /ns  q_z={rep.q_z:.5f}  "
              f"{'fits' if ok else 'over cap'}")
    print(f"stage A winners: er={best_er:.1f} dB, dark={best_dark:.0e} /ns")
    return best_er, best_dark


def stage_b(base7: ScenarioConfig, er: float, dark: float) -> tuple[float, float]:
    duration = base7.duration
    print(f"stage B: 7 dB joint margin at {duration:.0f} s per point")
    best = None
    for p_zr in P_ZR_GRID:
        for f_ec in F_EC_GRID:
            cfg = with_receiver(
                quiet(base7, duration), er_db=er, dark=dark,
                p_zr=p_zr, f_ec=f_ec,
            )
            t0 = time.perf_counter()
            rep = expected_keyrate(cfg)
            margin = joint_margin(rep.q_z, rep.phi_z_upper, rep.skr)
            mark = ""
            if best is None or margin > best[0]:
                best = (margin, p_zr, f_ec)
                mark = "  <-"
            print(
                f"  p_zr={p_zr:.2f} f_ec={f_ec:.2f}  q_z={rep.q_z:.5f} "
                f"phi_z={rep.phi_z_upper:.5f} skr={rep.skr:7.1f}  "
                f"margin={margin:+.3f}  ({time.perf_counter() - t0:.0f}s){mark}"
            )
    _, p_zr, f_ec = best
    print(f"stage B winners: p_zr={p_zr:.2f}, f_ec={f_ec:.2f}")
    return p_zr, f_ec


def stage_c(
    er: float, dark: float, p_zr: float, f_ec: float, run_mc: bool
) -> int:
    shipped7 = load_preset("link-7db")
    shipped14 = load_preset("link-14db")
    expected = {
        "extinction_ratio_db": er,
        "dark_prob_per_ns": dark,
        "p_z_receiver": p_zr,
        "f_ec": f_ec,
    }
    actual = {
        "extinction_ratio_db": shipped7.source.extinction_ratio_db,
        "dark_prob_per_ns": shipped7.detector.dark_prob_per_ns,
        "p_z_receiver": shipped7.p_z_receiver,
        "f_ec": shipped7.security.f_ec,
    }
    print("stage C: shipped presets vs scan winners")
    mismatches = []
    for key, want in expected.items():
        got = actual[key]
        same = abs(got - want) <= 1e-12 * max(1.0, abs(want))
        if not same:
            mismatches.append(key)
        print(f"  {key}: shipped={got} scan={want} {'ok' if same else 'MISMATCH'}")

    for name, cfg in (("link-7db", shipped7), ("link-14db", shipped14)):
        rep = expected_keyrate(quiet(cfg, cfg.duration))
        print(
            f"  {name} analytic: q_z={rep.q_z:.5f} phi_z={rep.phi_z_upper:.5f} "
            f"skl={rep.skl} skr={rep.skr:.1f} b/s"
        )
        if run_mc:
            t0 = time.perf_counter()
            _, mc = simulate_and_analyze(cfg)
            print(
                f"  {name} MC seed {cfg.seed}: q_z={mc.q_z:.5f} "
                f"phi_z={mc.phi_z_upper:.5f} skl={mc.skl} skr={mc.skr:.1f} b/s "
                f"({time.perf_counter() - t0:.0f}s)"
            )

    if mismatches:
        print(f"MISMATCH: presets disagree with the scan on {mismatches}")
        return 1
    print("presets match the scan winners")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mc", action="store_true",
        help="append full Monte Carlo runs of both presets",
    )
    args = parser.parse_args()

    base7 = load_preset("link-7db")
    base14 = load_preset("link-14db")

    er, dark = stage_a(base14)
    p_zr, f_ec = stage_b(base7, er, dark)
    return stage_c(er, dark, p_zr, f_ec, run_mc=args.mc)


if __name__ == "__main__":
    sys.exit(main())
