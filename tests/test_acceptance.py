"""Acceptance gate: one test per release criterion.

Each test computes everything it needs, appends exactly one verdict line
to conftest.ACCEPTANCE_LINES (echoed in a section after the test run),
and only then asserts. A red criterion therefore still reports the
numbers it measured instead of dying at the first comparison.

The full-length scenario runs are shared through module-scoped fixtures;
the whole module takes around six minutes.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from click.testing import CliRunner

from tbqkd import (
    ChannelModel,
    DetectorModel,
    Framing,
    InterferometerModel,
    ProtocolParams,
    ScenarioConfig,
    SecurityParams,
    SourceConfig,
    State,
    TallyCounts,
    analytic_expected_tallies,
    decode_word,
    decoy_bounds,
    encode_state,
    expected_keyrate,
    gamma_penalty,
    keyrate,
    load_preset,
    simulate_and_analyze,
    stabilize,
)
from tbqkd.cli import main as cli_main
from tbqkd.keyrate import KeyRateReport
from tbqkd.pipeline import RunOutcome
from tbqkd.sift import TALLY_KEYS

from conftest import ACCEPTANCE_LINES, small_scenario

# full-length scenario runs: left out of the quick `-m "not slow"` run
pytestmark = pytest.mark.slow

#: Master seed for the randomized-configuration sweep. Fixed so the
#: twenty configurations (and their Monte Carlo realizations) are the
#: same vectors on every run.
CONFIG_SWEEP_SEED = 20260821


def verdict(index: int, name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"[{index}] {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    )
    assert ok, f"{name}: {detail}"


@dataclass(frozen=True)
class RunCase:
    cfg: ScenarioConfig
    outcome: RunOutcome
    report: KeyRateReport
    wall_s: float


def _run(cfg: ScenarioConfig) -> RunCase:
    t0 = time.perf_counter()
    outcome, report = simulate_and_analyze(cfg)
    return RunCase(cfg, outcome, report, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def run_7db() -> RunCase:
    return _run(load_preset("link-7db"))


@pytest.fixture(scope="module")
def run_14db() -> RunCase:
    return _run(load_preset("link-14db"))


@pytest.fixture(scope="module")
def qber_runs(run_7db) -> dict[int, RunCase]:
    runs = {}
    for seed in range(1, 11):
        if seed == run_7db.cfg.seed:
            runs[seed] = run_7db
        else:
            runs[seed] = _run(run_7db.cfg.replace(seed=seed))
    return runs


@pytest.fixture(scope="module")
def analytic_7db():
    return analytic_expected_tallies(load_preset("link-7db"))


@pytest.fixture(scope="module")
def analytic_14db():
    return analytic_expected_tallies(load_preset("link-14db"))


def test_pattern_fidelity(tmp_path):
    t0 = time.perf_counter()

    words = {
        State.Z0: 0b10000000,
        State.Z1: 0b00100000,
        State.XPlus: 0b10100000,
    }
    words_ok = all(encode_state(s) == w for s, w in words.items())
    roundtrip_ok = all(
        decode_word(encode_state(state, framing), framing) == state
        for state in words
        for framing in (Framing(shift=shift) for shift in range(6))
    )

    # The serialized timeline at the 800 MHz default output clock: one
    # bit is 625 ps, and the two XPlus pulses sit two bits apart.
    result = CliRunner().invoke(
        cli_main,
        ["pattern", "--states", "XPlus", "--out", str(tmp_path)],
    )
    with open(tmp_path / "pattern.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    widths = {int(r["width_ps"]) for r in rows}
    starts = [int(r["start_ps"]) for r in rows]
    gaps = {late - early for early, late in zip(starts[0::2], starts[1::2])}
    timeline_ok = (
        result.exit_code == 0
        and len(rows) == 40
        and widths == {625}
        and gaps == {1250}
    )

    elapsed = time.perf_counter() - t0
    ok = words_ok and roundtrip_ok and timeline_ok and elapsed < 1.0
    verdict(
        1,
        "pattern fidelity",
        ok,
        f"word set {{10000000, 00100000, 10100000}} exact, decode inverts "
        f"encode for shifts 0..5, 625 ps pulses 1250 ps apart at 800 MHz, "
        f"{elapsed:.2f} s",
    )


def test_throughput_accounting(run_7db):
    sent = run_7db.outcome.symbols_sent
    target = 2.5e8
    deviation = sent / target - 1.0
    ok = abs(deviation) <= 0.15 and run_7db.wall_s < 300.0
    verdict(
        2,
        "throughput accounting",
        ok,
        f"symbols_sent={sent} vs {target:.2e} ({deviation:+.2%}, budget 15%), "
        f"300 s scenario simulated in {run_7db.wall_s:.0f} s",
    )


def test_qber_reproduction(qber_runs):
    q = {seed: case.report.q_z for seed, case in qber_runs.items()}
    phi = {seed: case.report.phi_z_upper for seed, case in qber_runs.items()}
    in_band = [
        seed
        for seed in sorted(qber_runs)
        if 0.02 <= q[seed] <= 0.04 and 0.04 <= phi[seed] <= 0.08
    ]
    enough_symbols = all(
        case.outcome.symbols_sent >= 10**7 for case in qber_runs.values()
    )
    ok = len(in_band) >= 8 and enough_symbols
    verdict(
        3,
        "qber reproduction",
        ok,
        f"{len(in_band)}/10 seeds with Q_Z in [0.02, 0.04] and phi_Z in "
        f"[0.04, 0.08] (need 8); Q_Z spans [{min(q.values()):.4f}, "
        f"{max(q.values()):.4f}], phi_Z spans [{min(phi.values()):.4f}, "
        f"{max(phi.values()):.4f}]; every run >= 1e7 symbols: "
        f"{enough_symbols}",
    )


#: Block-length multiplier for criterion [4]. Scaling a run's tallies by
#: an integer K is the same as analysing K back-to-back copies of the run
#: as one block; at K = 1e9 the rate is within 0.1% of its K = 1e6 value.
LIMIT_BLOCKS = 10**9


def _block_limit_report(case: RunCase) -> KeyRateReport:
    """The unchanged key analysis of LIMIT_BLOCKS copies of the run's own
    tallies."""
    k = LIMIT_BLOCKS
    t = case.outcome.tallies
    scaled = replace(
        t,
        sent_counts=tuple(tuple(k * v for v in row) for row in t.sent_counts),
        elapsed_s=k * t.elapsed_s,
        **{key: k * getattr(t, key) for key in TALLY_KEYS},
    )
    return keyrate(
        scaled,
        case.cfg.params,
        case.cfg.security,
        symbols_sent=k * case.outcome.symbols_sent,
    )


def _finite_key_summary(case: RunCase) -> str:
    r = case.report
    return (
        f"one {case.cfg.duration:.0f} s block skr={r.skr:.0f} b/s, "
        f"skl={r.skl}, phi_Z={r.phi_z_upper:.3f}, "
        f"n_x={case.outcome.tallies.n_x}, s_x1_lower={r.s_x1_lower:.0f}, "
        f"v_x1_upper={r.v_x1_upper:.0f}"
    )


def test_skr_reproduction(run_7db, run_14db):
    """The paper's *maximum extractable* key rates, 3.0 and 0.57 kb/s.

    PAPER.md holds only the abstract, which names no block length. The
    gate reads "maximum extractable" as the block-length limit of each
    run's measured rates. The finite-key values of the run's own block
    are reported, not asserted.
    """
    limit7 = _block_limit_report(run_7db)
    limit14 = _block_limit_report(run_14db)
    skr7 = limit7.skr
    skr14 = limit14.skr
    slot_yield7 = skr7 / 200e6
    slot_yield14 = skr14 / 200e6
    legs = {
        "skr 7dB": 1500.0 <= skr7 <= 6000.0,
        "skr 14dB": 285.0 <= skr14 <= 1140.0,
        "yield 7dB": 0.55e-5 <= slot_yield7 <= 2.2e-5,
        "yield 14dB": 1.05e-6 <= slot_yield14 <= 4.2e-6,
    }
    failed = [name for name, passed in legs.items() if not passed]
    verdict(
        4,
        "skr reproduction",
        not failed,
        f"maximum extractable (block of {LIMIT_BLOCKS:.0e} runs) "
        f"skr 7dB={skr7:.0f} b/s (band 1500..6000), "
        f"14dB={skr14:.0f} b/s (band 285..1140); per-200MHz-slot yield "
        f"7dB={slot_yield7:.2e} (band 5.5e-6..2.2e-5), "
        f"14dB={slot_yield14:.2e} (band 1.05e-6..4.2e-6); "
        f"per-sent-symbol yield 7dB={limit7.yield_:.2e}, "
        f"14dB={limit14.yield_:.2e} (both denominators reported); "
        f"7dB {_finite_key_summary(run_7db)}; "
        f"14dB {_finite_key_summary(run_14db)}; "
        + (
            f"failing legs: {', '.join(failed)}"
            if failed
            else "all four legs inside the factor-2 bands"
        ),
    )


def _random_scenario(rng: np.random.Generator) -> ScenarioConfig:
    """One draw of the randomized oracle-equivalence sweep.

    Drift and servo are off so the analytic expectation is exact; the
    other knobs cover intensity, basis bias, loss, detector, and
    interferometer ranges far outside the presets.
    """
    mu1 = rng.uniform(0.3, 0.7)
    mu2 = rng.uniform(0.05, min(0.25, 0.8 * mu1))
    p_mu1 = rng.uniform(0.4, 0.8)
    p_z = rng.uniform(0.3, 0.9)
    loss_db = rng.uniform(0.0, 10.0)
    efficiency = rng.uniform(0.05, 0.5)
    dark = 10 ** rng.uniform(-7.5, -5.5)
    visibility = rng.uniform(0.5, 0.95)
    p_zr = rng.uniform(0.2, 0.8)
    duration = rng.uniform(0.6, 1.2)
    seed = int(rng.integers(0, 2**63))
    return small_scenario(
        params=ProtocolParams(mu1=mu1, mu2=mu2, p_mu1=p_mu1, p_z=p_z),
        channel=ChannelModel(loss_db=loss_db),
        detector=DetectorModel(efficiency=efficiency, dark_prob_per_ns=dark),
        interferometer=InterferometerModel(
            delay=1.462e-9, visibility=visibility, drift_sigma=0.0
        ),
        p_z_receiver=p_zr,
        duration=duration,
        seed=seed,
    )


def test_oracle_equivalence(run_7db, run_14db, analytic_7db, analytic_14db):
    # Presets: coherent drift is live, so its variance bound joins the
    # statistical variance.
    worst_preset = 0.0
    for case, exp in ((run_7db, analytic_7db), (run_14db, analytic_14db)):
        for key in TALLY_KEYS:
            sigma = math.sqrt(exp.variances[key] + exp.drift_variances[key])
            z = abs(getattr(case.outcome.tallies, key) - exp.means[key]) / sigma
            worst_preset = max(worst_preset, z)

    # Twenty randomized configurations. Configurations whose smallest
    # expected tally is under 10 are redrawn: a 3 sigma gate presumes
    # roughly Gaussian counts, which single-digit means do not give.
    rng = np.random.default_rng(CONFIG_SWEEP_SEED)
    worst_random = 0.0
    accepted = 0
    tries = 0
    while accepted < 20:
        tries += 1
        assert tries < 200, "randomized configuration sweep failed to fill"
        cfg = _random_scenario(rng)
        exp = analytic_expected_tallies(cfg)
        if min(exp.means[key] for key in TALLY_KEYS) < 10.0:
            continue
        accepted += 1
        outcome, _ = simulate_and_analyze(cfg)
        for key in TALLY_KEYS:
            z = abs(
                getattr(outcome.tallies, key) - exp.means[key]
            ) / math.sqrt(exp.variances[key])
            worst_random = max(worst_random, z)

    ok = worst_preset <= 3.0 and worst_random <= 3.0
    verdict(
        5,
        "oracle equivalence",
        ok,
        f"both presets within 3 sigma of the analytic expectation on every "
        f"tally key (worst {worst_preset:.2f} sigma); 20 randomized "
        f"configurations within 3 sigma (worst {worst_random:.2f} sigma)",
    )


def _random_tally(rng: np.random.Generator) -> TallyCounts:
    n_z1 = int(rng.integers(0, 10_000_000))
    n_z2 = int(rng.integers(0, 1_000_000))
    n_x1 = int(rng.integers(0, 1_000_000))
    n_x2 = int(rng.integers(0, 200_000))
    return TallyCounts(
        n_z_mu1=n_z1,
        n_z_mu2=n_z2,
        m_z_mu1=int(rng.binomial(n_z1, rng.uniform(0.0, 0.5))),
        m_z_mu2=int(rng.binomial(n_z2, rng.uniform(0.0, 0.5))),
        n_x_mu1=n_x1,
        n_x_mu2=n_x2,
        m_x_mu1=int(rng.binomial(n_x1, rng.uniform(0.0, 0.5))),
        m_x_mu2=int(rng.binomial(n_x2, rng.uniform(0.0, 0.5))),
        elapsed_s=1.0,
    )


def test_bound_properties():
    params = ProtocolParams()
    sec = SecurityParams(eps_sec=1e-9, eps_cor=1e-9, f_ec=1.02)
    rng = np.random.default_rng(6)
    checked = 0
    violations = 0
    for _ in range(10_000):
        t = _random_tally(rng)
        b = decoy_bounds(t, params, sec)
        rep = keyrate(t, params, sec)
        ok = (
            0.0 <= b.s_z0_lower <= b.s_z0_upper <= t.n_z
            and 0.0 <= b.s_z1_lower <= t.n_z
            and 0.0 <= b.s_x0_upper <= t.n_x
            and 0.0 <= b.s_x1_lower <= t.n_x
            and 0.0 <= b.v_x1_upper <= t.n_x
            and rep.skl >= 0
        )
        if ok and b.s_x1_lower > 0.0 and b.s_z1_lower > 0.0:
            ratio = b.v_x1_upper / b.s_x1_lower
            g1 = gamma_penalty(sec.eps_sec, ratio, b.s_x1_lower, b.s_z1_lower)
            g10 = gamma_penalty(
                sec.eps_sec, ratio, 10.0 * b.s_x1_lower, 10.0 * b.s_z1_lower
            )
            ok = g10 <= g1 + 1e-12
        checked += 1
        violations += not ok

    # Injected-loss monotonicity on the analytic model, drift and servo
    # off so each point is a closed-form evaluation.
    quiet = load_preset("link-7db").replace(
        duration=120.0,
        servo_bursts_per_event=0,
        interferometer=InterferometerModel(
            delay=1.462e-9,
            visibility=0.98,
            drift_sigma=0.0,
            stabilization_interval=100.0,
        ),
    )
    losses = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
    skls = [expected_keyrate(quiet.with_loss(loss)).skl for loss in losses]
    monotone = all(a >= b for a, b in zip(skls, skls[1:]))

    ok = violations == 0 and monotone
    verdict(
        6,
        "bound properties",
        ok,
        f"{checked - violations}/{checked} random tallies satisfy clamping, "
        f"ordering, skl >= 0, and the tenfold-samples penalty shrink; "
        f"skl over 0..20 dB = {skls} "
        f"{'non-increasing' if monotone else 'NOT monotone'}",
    )


def test_noiseless_limits():
    noiseless = small_scenario(
        source=SourceConfig(extinction_ratio_db=math.inf, im1_transmission_x=0.5),
        detector=DetectorModel(efficiency=0.10, dark_prob_per_ns=0.0),
        interferometer=InterferometerModel(
            delay=1.462e-9, visibility=1.0, drift_sigma=0.0
        ),
        duration=2.0,
        seed=77,
    )
    outcome, report = simulate_and_analyze(noiseless)
    t = outcome.tallies
    clean_ok = (
        t.n_z > 0
        and t.n_x > 0
        and t.m_x == 0
        and report.q_z == 0.0
        and report.q_x == 0.0
    )

    blind_outcome, _ = simulate_and_analyze(
        noiseless.replace(
            detector=DetectorModel(efficiency=0.0, dark_prob_per_ns=0.0)
        )
    )
    blind_ok = all(
        getattr(blind_outcome.tallies, key) == 0 for key in TALLY_KEYS
    )

    # Efficiency 0 with dark counts alive: expectations must not depend
    # on anything the photons do, so channel loss cannot move them.
    dark_only = noiseless.replace(
        detector=DetectorModel(efficiency=0.0, dark_prob_per_ns=1e-6)
    )
    exp_near = analytic_expected_tallies(dark_only.with_loss(0.0))
    exp_far = analytic_expected_tallies(dark_only.with_loss(20.0))
    dark_ok = all(
        math.isclose(exp_near.means[k], exp_far.means[k], rel_tol=1e-12)
        for k in TALLY_KEYS
    )

    ok = clean_ok and blind_ok and dark_ok
    verdict(
        7,
        "noiseless limits",
        ok,
        f"dark=0, infinite extinction, V=1: Q_Z=0 and Q_X=0 exactly over "
        f"n_z={t.n_z}, n_x={t.n_x} clicks; efficiency 0 and dark 0 gives "
        f"zero events; dark-only expectations invariant to 0 vs 20 dB loss",
    )


def test_stabilization():
    ifm = InterferometerModel(delay=1.462e-9, visibility=0.98, drift_sigma=0.0)
    rng = np.random.default_rng(8)
    amplitude = 2000.0
    max_evals = 64
    worst_fraction = 1.0
    most_evals = 0
    for k in range(16):
        theta0 = 2.0 * math.pi * k / 16.0

        def probe(offset: float, locked: float = theta0) -> float:
            mean = amplitude * (1.0 + ifm.visibility * math.cos(locked + offset)) / 2.0
            return float(rng.poisson(mean))

        res = stabilize(probe, max_evals=max_evals)
        recovered = (
            1.0 + ifm.visibility * math.cos(theta0 + res.correction)
        ) / (1.0 + ifm.visibility)
        worst_fraction = min(worst_fraction, recovered)
        most_evals = max(most_evals, res.evaluations)

    ok = worst_fraction >= 0.98 and most_evals <= max_evals + 1
    verdict(
        8,
        "stabilization",
        ok,
        f"16 starting phases recover >= {worst_fraction:.4f} of the fringe "
        f"maximum (threshold 0.98) using at most {most_evals} noisy probes "
        f"(cap {max_evals} + final check)",
    )
