"""Closed-form slot statistics against hand-derived race formulas.

The gate tables are validated piecewise: single-component and
two-component photon races have elementary closed forms, dark-only
gates reduce to an exponential times the window geometry, and the
no-click column must factor exactly as K * exp(-B cos theta). Burst
bookkeeping (fringe parity, servo windows, drift damping) is checked
against independent python reimplementations.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from tbqkd import (
    Basis,
    Bin,
    DetectorModel,
    IntensityClass,
    State,
    analytic_expected_tallies,
    build_link_model,
    load_preset,
)
from tbqkd.sift import TALLY_KEYS
from tbqkd.slotmodel import (
    CLASS_INTENSITY,
    CLASS_ROUTE,
    CLASS_STATE,
    COL_CENTRAL,
    COL_EARLY,
    COL_LATE,
    COL_NONE,
    COL_OUTSIDE,
    N_CLASSES,
    GateTable,
    burst_parity,
    class_index,
    duty_factor,
    expected_cos_theta,
    fringe_block_bursts,
    lock_elapsed_s,
    outcome_probs,
    servo_excluded,
    servo_starts,
    static_outcome,
    x_none_terms,
    x_segments,
)
from tbqkd import pipeline, slotmodel
from tbqkd.pipeline import CHUNK_BURSTS
from tbqkd.slotmodel import _acceptance_region, _x_key_probs

from conftest import row_major_outcome_probs, scalar_link_model, small_scenario
from test_pipeline import IDENTITY_SCENARIOS


def ideal_source() -> "SourceConfig":
    from tbqkd import SourceConfig

    return SourceConfig(extinction_ratio_db=math.inf, im1_transmission_x=0.5)


def ifm(**overrides) -> "InterferometerModel":
    from tbqkd import InterferometerModel

    base = dict(delay=1.462e-9, visibility=0.98, drift_sigma=0.0)
    base.update(overrides)
    return InterferometerModel(**base)


def clean_detector(**overrides) -> DetectorModel:
    """Jitter-free, dark-free detector so races have exact closed forms."""
    base = dict(
        efficiency=0.10,
        dead_time=20e-6,
        dark_prob_per_ns=0.0,
        jitter_sigma=0.0,
        gate_width=20e-9,
        bin_window=0.8e-9,
        tdc_resolution=42e-12,
    )
    base.update(overrides)
    return DetectorModel(**base)


class TestClassIndex:
    def test_bijection_over_twelve_classes(self):
        seen = set()
        for state in State:
            for k in IntensityClass:
                for route in Basis:
                    seen.add(class_index(state, k, route))
        assert seen == set(range(N_CLASSES))

    def test_axis_arrays_invert_the_index(self):
        c = class_index(State.Z1, IntensityClass.Decoy, Basis.X)
        assert CLASS_STATE[c] == int(State.Z1)
        assert CLASS_INTENSITY[c] == int(IntensityClass.Decoy)
        assert CLASS_ROUTE[c] == int(Basis.X)


class TestDutyFactor:
    def test_matches_explicit_geometric_sum(self):
        for q in (0.3, 0.05, 0.999):
            want = sum((1 - q) ** s for s in range(20))
            assert duty_factor(q, 20) == pytest.approx(want, rel=1e-12)

    def test_zero_click_limit_is_slot_count(self):
        assert duty_factor(0.0, 20) == 20.0
        assert duty_factor(1e-15, 20) == pytest.approx(20.0, rel=1e-9)

    def test_certain_click_gives_one_opportunity(self):
        assert duty_factor(1.0, 20) == pytest.approx(1.0)

    def test_vectorized(self):
        q = np.array([0.0, 0.2, 1.0])
        out = duty_factor(q, 10)
        assert out.shape == (3,)
        assert out[0] == 10.0
        assert out[1] == pytest.approx(sum(0.8**s for s in range(10)))


def phase_grid(n_random: int, seed: int) -> np.ndarray:
    """cos(theta) at the fringe extremes, at quadrature and at random
    phases."""
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_random)
    return np.concatenate([[1.0, -1.0, 0.0], np.cos(theta)])


class TestOutcomeProbs:
    @pytest.mark.parametrize("preset", ["link-7db", "link-14db"])
    @pytest.mark.parametrize("detector", [Basis.Z, Basis.X], ids=["Z", "X"])
    def test_matches_the_row_major_reference(self, preset, detector):
        # every class at every phase, bit for bit: the component-major
        # sums run in the reference's order
        table = build_link_model(load_preset(preset)).table(detector)
        cos_t = np.tile(phase_grid(500, seed=int(detector)), N_CLASSES)
        cls = np.repeat(np.arange(N_CLASSES), cos_t.size // N_CLASSES)
        got = outcome_probs(table, cls, cos_t)
        assert got.shape == (cls.size, COL_NONE + 1)
        np.testing.assert_array_equal(got, row_major_outcome_probs(table, cls, cos_t))

    def test_rows_are_distributions(self):
        model = build_link_model(small_scenario())
        rng = np.random.default_rng(5)
        cls = np.arange(N_CLASSES)
        for table in (model.z_table, model.x_table):
            probs = outcome_probs(table, cls, rng.uniform(-1, 1, N_CLASSES))
            assert np.all(probs >= -1e-15)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_component_race_closed_form(self):
        # perfect extinction: a Z0 signal slot on the Z detector is one
        # pulse of mean mu1 * t_ch; click prob 1 - exp(-eta mu t), all
        # classified early at zero jitter
        sc = small_scenario(
            source=ideal_source(),
            detector=clean_detector(),
        )
        model = build_link_model(sc)
        c = class_index(State.Z0, IntensityClass.Signal, Basis.Z)
        probs = static_outcome(model.z_table)[c]
        mu = sc.params.mu1 * sc.channel.transmission
        q = -math.expm1(-0.10 * mu)
        assert probs[COL_EARLY] == pytest.approx(q, rel=1e-12)
        assert probs[COL_NONE] == pytest.approx(1 - q, rel=1e-12)
        assert probs[COL_LATE] == 0.0 and probs[COL_CENTRAL] == 0.0

    def test_two_component_race_closed_form(self):
        # finite extinction: Z1 decoy carries an early leak that races
        # ahead of the late signal pulse
        sc = small_scenario(detector=clean_detector())
        model = build_link_model(sc)
        c = class_index(State.Z1, IntensityClass.Decoy, Basis.Z)
        probs = static_outcome(model.z_table)[c]
        eta, t = 0.10, sc.channel.transmission
        mu_late = sc.params.mu2 * t
        mu_early = mu_late * sc.source.leak_fraction
        q_early = -math.expm1(-eta * mu_early)
        q_late = math.exp(-eta * mu_early) * -math.expm1(-eta * mu_late)
        assert probs[COL_EARLY] == pytest.approx(q_early, rel=1e-12)
        assert probs[COL_LATE] == pytest.approx(q_late, rel=1e-12)
        assert probs[COL_NONE] == pytest.approx(
            math.exp(-eta * (mu_early + mu_late)), rel=1e-12
        )

    def test_interferometer_central_fringe_closed_form(self):
        sc = small_scenario(
            source=ideal_source(),
            detector=clean_detector(),
        )
        model = build_link_model(sc)
        c = class_index(State.XPlus, IntensityClass.Signal, Basis.X)
        eta, v = 0.10, 0.98
        m = sc.params.mu1 * sc.channel.transmission / 2.0  # per time bin
        for cos_t in (1.0, 0.0, -1.0):
            probs = outcome_probs(model.x_table, np.array([c]), np.array([cos_t]))[0]
            side = m / 4.0
            central = m / 2.0 + v * m / 2.0 * cos_t
            q_e = -math.expm1(-eta * side)
            q_c = math.exp(-eta * side) * -math.expm1(-eta * central)
            assert probs[COL_EARLY] == pytest.approx(q_e, rel=1e-12)
            assert probs[COL_CENTRAL] == pytest.approx(q_c, rel=1e-12, abs=1e-15)

    def test_dark_only_gate(self):
        sc = small_scenario(
            detector=clean_detector(efficiency=0.0, dark_prob_per_ns=1e-3),
        )
        model = build_link_model(sc)
        lam = 1e-3 * 20e-9 / 1e-9  # per-gate expectation
        probs = static_outcome(model.z_table)
        np.testing.assert_allclose(probs[:, COL_NONE], math.exp(-lam), rtol=1e-12)
        # with no photons the classes agree up to the uniform-per-interval
        # dark approximation, whose tilt is of order lam per gate
        np.testing.assert_allclose(
            probs, np.tile(probs[0], (N_CLASSES, 1)), rtol=3 * lam
        )
        clicked = 1 - math.exp(-lam)
        # most of a 20 ns gate lies outside the two 0.8 ns windows
        assert probs[0, COL_OUTSIDE] > 0.8 * clicked
        assert probs[0, COL_EARLY] > 0.0 and probs[0, COL_LATE] > 0.0

    def test_blind_detector_never_clicks(self):
        sc = small_scenario(detector=clean_detector(efficiency=0.0))
        model = build_link_model(sc)
        probs = static_outcome(model.x_table)
        np.testing.assert_allclose(probs[:, COL_NONE], 1.0, atol=1e-15)


def tdc_free_window_scenario():
    """58.7 ps bin windows on a 192 ps TDC grid: the central window
    holds no TDC value."""
    return small_scenario(
        detector=DetectorModel(
            efficiency=0.10,
            dark_prob_per_ns=1e-6,
            bin_window=58.7e-12,
            tdc_resolution=192e-12,
        )
    )


GATE_TABLE_SCENARIOS = {
    "link-7db": lambda: load_preset("link-7db"),
    "link-14db": lambda: load_preset("link-14db"),
    **{f"identity-{name}": make for name, make in IDENTITY_SCENARIOS.items()},
    "jitter0": lambda: small_scenario(
        detector=clean_detector(dark_prob_per_ns=1e-6)
    ),
    "infinite-extinction": lambda: small_scenario(source=ideal_source()),
    "tdc-free-window": tdc_free_window_scenario,
    # the arm delay one 42 ps TDC step longer than the 1462 ps separation
    "delay-off-by-a-tdc-step": lambda: small_scenario(
        interferometer=ifm(delay=1.504e-9)
    ),
}


class TestGateTables:
    @pytest.mark.parametrize("name", list(GATE_TABLE_SCENARIOS))
    def test_equal_the_scalar_reference(self, name):
        # every field bit for bit and of the same dtype: the batch engine
        # and the oracle read these tables
        sc = GATE_TABLE_SCENARIOS[name]()
        got, want = build_link_model(sc), scalar_link_model(sc)
        assert got.priors.dtype == want.priors.dtype
        np.testing.assert_array_equal(got.priors, want.priors)
        for detector in (Basis.Z, Basis.X):
            for field in dataclasses.fields(GateTable):
                a = getattr(got.table(detector), field.name)
                b = getattr(want.table(detector), field.name)
                assert type(a) is type(b), field.name
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape, field.name
                    np.testing.assert_array_equal(a, b, err_msg=field.name)
                else:
                    assert a == b, field.name

    def test_edge_cases_reach_their_edges(self):
        ideal = build_link_model(GATE_TABLE_SCENARIOS["infinite-extinction"]())
        # a zero leak component drops out and the components shift
        assert ideal.z_table.n_comp.max() == 2 and ideal.z_table.n_comp.min() == 0
        assert (ideal.z_table.n_comp == 1).any()
        assert (ideal.x_table.n_comp == 2).any()
        sc = tdc_free_window_scenario()
        regions = [
            _acceptance_region(c, sc.detector)
            for c in sc.framing.x_offsets.values()
        ]
        assert any(lo >= hi for lo, hi in regions)
        assert GATE_TABLE_SCENARIOS["jitter0"]().detector.jitter_sigma_ps == 0.0
        sc = GATE_TABLE_SCENARIOS["delay-off-by-a-tdc-step"]()
        assert (
            sc.interferometer.delay_ps - sc.framing.separation_ps
            == sc.detector.tdc_resolution_ps
        )


class TestNoClickFactorization:
    def test_matches_outcome_probs_for_every_class(self):
        model = build_link_model(small_scenario())
        k_fac, eta_b = x_none_terms(model.x_table)
        rng = np.random.default_rng(9)
        cos_t = rng.uniform(-1, 1, N_CLASSES)
        probs = outcome_probs(model.x_table, np.arange(N_CLASSES), cos_t)
        want = k_fac * np.exp(-eta_b * cos_t)
        np.testing.assert_allclose(probs[:, COL_NONE], want, rtol=1e-12)

    def test_direct_path_has_no_fringe_dependence(self):
        model = build_link_model(small_scenario())
        _, eta_b = x_none_terms(model.z_table)
        np.testing.assert_allclose(eta_b, 0.0, atol=1e-15)


# scenarios whose servo starts the oracle must take as its locks: the
# presets, whose 100 s interval is not a whole number of bursts; an
# interval of 1000.3 bursts, where rounding the starts matters, with no
# servo windows; and a 10 us interval, shorter than a burst period
LOCK_SCENARIOS = {
    "link-7db": lambda: load_preset("link-7db"),
    "link-14db": lambda: load_preset("link-14db"),
    "interval-1000.3": lambda: small_scenario(
        duration=0.1,
        interferometer=ifm(drift_sigma=0.5, stabilization_interval=1000.3 * 24e-6),
    ),
    "interval-10us": lambda: small_scenario(
        duration=0.01,
        interferometer=ifm(drift_sigma=0.5, stabilization_interval=1e-5),
    ),
}


class TestBurstBookkeeping:
    def test_fringe_block_size(self):
        # 20 symbols per burst, p_z = 0.5 -> 10 X symbols per burst
        from tbqkd import ProtocolParams
        sc = small_scenario(params=ProtocolParams(p_z=0.5), fringe_block_x_symbols=2000)
        assert fringe_block_bursts(sc) == 200

    def test_parity_alternates_per_block(self):
        idx = np.arange(400)
        par = burst_parity(idx, 100)
        assert par[:100].sum() == 0
        assert par[100:200].sum() == 100
        assert par[200:300].sum() == 0

    def test_servo_starts_begin_at_zero(self):
        sc = small_scenario(
            duration=0.5, interferometer=ifm(stabilization_interval=0.1)
        )
        starts = servo_starts(sc)
        assert starts[0] == 0
        assert len(starts) == 5
        period = sc.params.burst_period
        np.testing.assert_allclose(np.diff(starts), round(0.1 / period), atol=1)

    def test_servo_excluded_matches_reimplementation(self):
        sc = small_scenario(
            duration=0.5,
            interferometer=ifm(stabilization_interval=0.1),
            servo_bursts_per_event=3,
        )
        idx = np.arange(sc.n_bursts)
        got = servo_excluded(sc, idx)
        starts = set(servo_starts(sc).tolist())
        want = np.array(
            [any(s <= b < s + 3 for s in starts) for b in idx], dtype=bool
        )
        np.testing.assert_array_equal(got, want)
        assert got.sum() == 3 * len(starts)

    def test_servo_width_zero_excludes_nothing(self):
        sc = small_scenario(servo_bursts_per_event=0)
        assert not servo_excluded(sc, np.arange(100)).any()

    def test_lock_elapsed_resets_each_interval(self):
        # 0.096 s is exactly 4000 burst periods, so the reset lands on a
        # burst boundary
        sc = small_scenario(interferometer=ifm(stabilization_interval=0.096))
        period = sc.params.burst_period
        tau = lock_elapsed_s(sc, np.array([0, 1, 4000, 4001]))
        assert tau[0] == 0.0
        assert tau[1] == pytest.approx(period)
        assert tau[2] == pytest.approx(0.0, abs=1e-9)
        assert tau[3] == pytest.approx(period, rel=1e-6)


    def test_lock_elapsed_never_negative(self):
        # a 10 us interval is shorter than the 24 us burst period, so
        # every burst is a servo start and the drift time stays 0
        sc = LOCK_SCENARIOS["interval-10us"]()
        assert lock_elapsed_s(sc, np.arange(sc.n_bursts)).min() == 0.0
        exp = analytic_expected_tallies(sc)
        assert all(math.isfinite(v) for v in exp.drift_variances.values())

    @pytest.mark.parametrize("case", sorted(LOCK_SCENARIOS))
    def test_lock_elapsed_counts_from_the_latest_servo_start(self, case):
        # the oracle's drift clock restarts exactly where the engines'
        # walk resets to 0, chunk by chunk as _theta_walk yields it
        sc = LOCK_SCENARIOS[case]()
        starts = servo_starts(sc)
        period = sc.params.burst_period
        last = 0
        walks = pipeline._theta_walk(sc, np.random.default_rng(3))
        for lo, walk in zip(range(0, sc.n_bursts, CHUNK_BURSTS), walks):
            idx = np.arange(lo, lo + walk.size)
            marks = np.where(np.isin(idx, starts), idx, last)
            latest = np.maximum.accumulate(marks)
            last = latest[-1]
            tau = lock_elapsed_s(sc, idx)
            np.testing.assert_array_equal(tau, (idx - latest) * period)
            np.testing.assert_array_equal(tau == 0.0, walk == 0.0)


class TestExpectedCosTheta:
    def test_driftless_gives_pure_parity_signs(self):
        sc = small_scenario()
        block = fringe_block_bursts(sc)
        idx = np.array([0, block - 1, block, 2 * block])
        np.testing.assert_allclose(
            expected_cos_theta(sc, idx), [1.0, 1.0, -1.0, 1.0], atol=1e-15
        )

    def test_brownian_damping_since_lock(self):
        # burst 500 sits in the first fringe block (sign +1)
        sc = small_scenario(interferometer=ifm(drift_sigma=0.5))
        period = sc.params.burst_period
        got = expected_cos_theta(sc, np.array([0, 500]))
        assert got[0] == pytest.approx(1.0)
        tau = 500 * period
        assert got[1] == pytest.approx(math.exp(-0.5 * 0.25 * tau), rel=1e-12)

    def test_sign_flips_with_fringe_parity(self):
        sc = small_scenario(interferometer=ifm(drift_sigma=0.5))
        block = fringe_block_bursts(sc)
        got = expected_cos_theta(sc, np.array([block - 1, block]))
        assert got[0] > 0.0 > got[1]

    def test_spread_displaces_against_the_lock_sign(self):
        sc = small_scenario(interferometer=ifm(drift_sigma=0.5))
        idx = np.arange(1, 2500)
        sign = 1.0 - 2.0 * burst_parity(idx, fringe_block_bursts(sc))
        base = expected_cos_theta(sc, idx)
        lo = expected_cos_theta(sc, idx, spread=1.0)
        hi = expected_cos_theta(sc, idx, spread=-1.0)
        assert np.all(sign * (base - lo) >= -1e-15)
        assert np.all(sign * (hi - base) >= -1e-15)
        assert np.all(np.abs(lo) <= 1.0) and np.all(np.abs(hi) <= 1.0)


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(duration=0.1)


@pytest.fixture(scope="module")
def expected(scenario):
    return analytic_expected_tallies(scenario)


class TestAnalyticTallies:
    def test_burst_accounting(self, scenario, expected):
        assert expected.eligible_bursts == scenario.n_bursts
        assert expected.symbols_sent == scenario.n_bursts * 20
        assert expected.elapsed_s == pytest.approx(
            expected.symbols_sent * scenario.params.symbol_period
        )

    def test_servo_windows_reduce_eligibility(self, scenario):
        sc = scenario.replace(
            servo_bursts_per_event=5,
            interferometer=ifm(stabilization_interval=0.02),
        )
        exp = analytic_expected_tallies(sc)
        assert exp.eligible_bursts == sc.n_bursts - 5 * len(servo_starts(sc))

    def test_means_positive_and_variances_binomial(self, expected):
        for key, mean in expected.means.items():
            assert mean > 0.0, key
            assert 0.0 <= expected.variances[key] <= mean

    def test_errors_never_exceed_counts(self, expected):
        m = expected.means
        assert m["m_z_mu1"] < m["n_z_mu1"]
        assert m["m_z_mu2"] < m["n_z_mu2"]
        assert m["m_x_mu1"] < m["n_x_mu1"]

    def test_driftless_scenario_has_zero_drift_variance(self, expected):
        assert all(v == 0.0 for v in expected.drift_variances.values())

    def test_drift_variance_appears_with_sigma(self, scenario):
        sc = scenario.replace(interferometer=ifm(drift_sigma=0.05))
        exp = analytic_expected_tallies(sc)
        assert exp.drift_variances["n_x_mu1"] > 0.0
        assert exp.drift_variances["n_z_mu1"] == 0.0

    def test_z_means_recompose_from_class_tables(self, scenario, expected):
        # independent recomposition: priors x outcome columns x duty
        model = build_link_model(scenario)
        static_z = static_outcome(model.z_table)
        q_any = float(np.dot(model.priors, 1.0 - static_z[:, COL_NONE]))
        duty = duty_factor(q_any, 20)
        # every Z-state signal class contributes: the routed ones through
        # their photon race, the X-routed ones through Z-detector darks
        p = 0.0
        for state in (State.Z0, State.Z1):
            for route in Basis:
                c = class_index(state, IntensityClass.Signal, route)
                p += model.priors[c] * (
                    static_z[c, COL_EARLY] + static_z[c, COL_LATE]
                )
        want = expected.eligible_bursts * p * duty
        assert expected.means["n_z_mu1"] == pytest.approx(want, rel=1e-12)

    def test_fringe_blocks_split_x_counts(self, expected):
        # parity blocks alternate max and min; driftless lock at cos = +1
        # puts far more clicks in even blocks, so m_x is well under half
        assert expected.means["m_x_mu1"] < 0.25 * expected.means["n_x_mu1"]


def per_burst_sums(scenario):
    """The X-path sums of analytic_expected_tallies taken burst by burst:
    means, binomial variances and drift variances of the four X keys,
    and the number of eligible bursts."""
    model = build_link_model(scenario)
    slots = scenario.params.symbols_per_burst
    idx = np.arange(scenario.n_bursts)
    idx = idx[~servo_excluded(scenario, idx)]
    parity = burst_parity(idx, fringe_block_bursts(scenario))
    keys = ("n_x_mu1", "m_x_mu1", "n_x_mu2", "m_x_mu2")
    sums = {}
    key_probs = _x_key_probs(model)
    for spread in (0.0, 1.0, -1.0):
        p_slot, q_any = key_probs(expected_cos_theta(scenario, idx, spread))
        p = p_slot[parity, np.arange(idx.size)] * duty_factor(q_any, slots)[:, None]
        for key in keys:
            rows = p[:, TALLY_KEYS.index(key)]
            sums[key, spread] = math.fsum(rows)
            if spread == 0.0:
                sums[key, "sq"] = math.fsum(rows * rows)
    means = {k: sums[k, 0.0] for k in keys}
    variances = {k: sums[k, 0.0] - sums[k, "sq"] for k in keys}
    drift = {k: ((sums[k, 1.0] - sums[k, -1.0]) / 2.0) ** 2 for k in keys}
    return means, variances, drift, idx.size


def segment_scenario(drift_sigma: float, servo: int, **overrides):
    """Locks every 997.9 burst periods (not a whole number), so the
    1000-burst parity blocks straddle lock boundaries and a 5-burst servo
    window starting at burst 998 straddles the parity boundary at 1000;
    the 4167 bursts of 0.1 s span five lock intervals."""
    return small_scenario(
        duration=0.1,
        interferometer=ifm(
            drift_sigma=drift_sigma, stabilization_interval=997.9 * 24e-6
        ),
        servo_bursts_per_event=servo,
        **overrides,
    )


class TestSegmentQuadrature:
    def test_scenario_geometry(self):
        sc = segment_scenario(0.5, 5)
        assert fringe_block_bursts(sc) == 1000
        starts = servo_starts(sc)
        assert len(starts) >= 4 and starts[1] == 998
        assert servo_excluded(sc, np.array([997, 998, 1000, 1002, 1003])).tolist() == [
            False, True, True, True, False
        ]

    @pytest.mark.parametrize("drift_sigma", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("servo", [0, 5])
    def test_segments_partition_the_eligible_bursts(self, drift_sigma, servo):
        sc = segment_scenario(drift_sigma, servo)
        lo, hi = x_segments(sc)
        assert np.all(lo < hi) and np.all(hi[:-1] <= lo[1:])
        covered = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        idx = np.arange(sc.n_bursts)
        np.testing.assert_array_equal(covered, idx[~servo_excluded(sc, idx)])
        block = fringe_block_bursts(sc)
        for a, b in zip(lo, hi):
            run = np.arange(a, b)
            assert np.ptp(burst_parity(run, block)) == 0
            # the lock time never wraps inside a segment
            assert np.all(np.diff(lock_elapsed_s(sc, run)) > 0.0)

    @pytest.mark.parametrize(
        "drift_sigma", [0.0, 0.5, 5.0], ids=["driftless", "drift", "fast-drift"]
    )
    @pytest.mark.parametrize("servo", [0, 5], ids=["no-servo", "servo"])
    def test_matches_per_burst_sum(self, drift_sigma, servo):
        self.check_per_burst_sum(segment_scenario(drift_sigma, servo))

    @pytest.mark.parametrize("drift_sigma", [0.5, 5.0], ids=["drift", "fast-drift"])
    @pytest.mark.parametrize("servo", [0, 5], ids=["no-servo", "servo"])
    def test_matches_per_burst_sum_across_node_batches(
        self, drift_sigma, servo, monkeypatch
    ):
        # every node set spans several batches, which several sets share
        monkeypatch.setattr(slotmodel, "NODE_BATCH", 64)
        sc = segment_scenario(drift_sigma, servo)
        nodes = slotmodel._quadrature_nodes(sc, *x_segments(sc), drift=True)
        assert len(nodes) == 2 and min(pos.size for pos, _, _ in nodes) > 2 * 64
        self.check_per_burst_sum(sc)

    @staticmethod
    def check_per_burst_sum(sc):
        means, variances, drift, eligible = per_burst_sums(sc)
        got = analytic_expected_tallies(sc)
        assert got.eligible_bursts == eligible
        for key in means:
            assert got.means[key] == pytest.approx(means[key], rel=1e-12, abs=0.0)
            assert got.variances[key] == pytest.approx(
                variances[key], rel=1e-12, abs=0.0
            )
            assert got.drift_variances[key] == pytest.approx(
                drift[key], rel=1e-6, abs=0.0
            )

    def test_one_burst_parity_blocks(self):
        # every segment is a single burst and is summed exactly
        sc = small_scenario(duration=0.02, fringe_block_x_symbols=1)
        means, variances, _, eligible = per_burst_sums(sc)
        got = analytic_expected_tallies(sc)
        assert got.eligible_bursts == eligible == len(x_segments(sc)[0])
        for key in means:
            assert got.means[key] == pytest.approx(means[key], rel=1e-12, abs=0.0)


class TestAnalyticScalingExamples:
    def test_blind_detector_counts_ignore_loss(self):
        # with zero efficiency only dark-driven terms remain, so the
        # channel cannot matter
        det = clean_detector(efficiency=0.0, dark_prob_per_ns=1e-5)
        a = analytic_expected_tallies(
            small_scenario(duration=0.1, detector=det)
        )
        b = analytic_expected_tallies(
            small_scenario(duration=0.1, detector=det).with_loss(17.0)
        )
        for key, val in a.means.items():
            assert val > 0.0
            assert b.means[key] == pytest.approx(val, rel=1e-12)

    def test_doubling_loss_halves_photon_rate_in_log(self):
        # per-slot Z click probability, dark baseline removed, must scale
        # by exactly the channel transmission ratio (7 dB here)
        from tbqkd import load_preset

        base = load_preset("link-7db")
        quiet = ifm(drift_sigma=0.0, stabilization_interval=100.0)

        def photon_slot_prob(loss_db: float, k: IntensityClass) -> float:
            sc = base.with_loss(loss_db).replace(interferometer=quiet)
            dark = sc.replace(
                detector=clean_detector(
                    efficiency=0.0,
                    dark_prob_per_ns=sc.detector.dark_prob_per_ns,
                    jitter_sigma=sc.detector.jitter_sigma,
                )
            )
            out = []
            for s in (sc, dark):
                model = build_link_model(s)
                st = static_outcome(model.z_table)
                p = 0.0
                for state in (State.Z0, State.Z1):
                    for route in Basis:
                        c = class_index(state, k, route)
                        p += model.priors[c] * (
                            st[c, COL_EARLY] + st[c, COL_LATE]
                        )
                out.append(p)
            return out[0] - out[1]

        for k in (IntensityClass.Signal, IntensityClass.Decoy):
            ratio = photon_slot_prob(14.0, k) / photon_slot_prob(7.0, k)
            assert ratio == pytest.approx(10 ** -0.7, rel=0.01)
