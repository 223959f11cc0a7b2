"""Channel, receiver, interferometer, and servo behavior."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tbqkd import (
    Basis,
    Bin,
    ChannelModel,
    ClockConfig,
    DetectorModel,
    Framing,
    InterferometerModel,
    OpticalPulse,
    detect_z,
    interfere,
    receiver_basis,
    stabilize,
    transmit,
)
from tbqkd.errors import DelayMismatchError, DomainError
from tbqkd.link import bin_regions

CLOCK = ClockConfig(f_ref=100e6, f_out=800e6)
FRAMING = Framing(CLOCK)


def pulse(start_ps, mean, bin_label=Bin.EARLY, b=0, s=0, width=625):
    return OpticalPulse(
        start_ps=start_ps,
        width_ps=width,
        mean_photons=mean,
        phase=0.0,
        bin_label=bin_label,
        burst_index=b,
        slot_index=s,
    )


def slot_gates(n_slots, symbol_ps=200_000, per_burst=1000):
    """(burst, slot, gate_start_ps) of n_slots back-to-back slots,
    per_burst of them to a burst."""
    return [(i // per_burst, i % per_burst, i * symbol_ps) for i in range(n_slots)]


class TestTransmit:
    def test_seven_db(self):
        out = transmit([pulse(0, 0.5)], ChannelModel(loss_db=7.0))
        assert out[0].mean_photons == pytest.approx(0.09977, abs=1e-5)

    def test_zero_db_identity(self):
        out = transmit([pulse(0, 0.5)], ChannelModel(loss_db=0.0))
        assert out[0].mean_photons == 0.5

    def test_length_derives_loss(self):
        chan = ChannelModel(length_km=35.0)
        assert chan.total_loss_db == pytest.approx(7.0)
        assert chan.transmission == pytest.approx(10 ** -0.7)

    def test_timestamps_unchanged(self):
        out = transmit([pulse(1234, 0.5)], ChannelModel(loss_db=7.0))
        assert (out[0].start_ps, out[0].width_ps) == (1234, 625)

    def test_channel_needs_a_loss(self):
        with pytest.raises(DomainError):
            ChannelModel()


# one TDC step, the delay tolerance a scenario is loaded with
TOL_PS = 42


class TestInterfere:
    def make_xplus(self, mu_each=0.25):
        return [
            pulse(0, mu_each, Bin.EARLY),
            pulse(1250, mu_each, Bin.LATE),
        ]

    def test_xplus_constructive(self):
        ifm = InterferometerModel(delay=1.25e-9, visibility=0.98)
        out = interfere(self.make_xplus(), ifm, 0.0, TOL_PS)
        means = [p.mean_photons for p in out]
        assert means == pytest.approx([0.0625, 0.2475, 0.0625], abs=1e-12)
        assert [p.bin_label for p in out] == [Bin.EARLY, Bin.CENTRAL, Bin.LATE]

    def test_xplus_destructive_null(self):
        ifm = InterferometerModel(delay=1.25e-9, visibility=1.0)
        out = interfere(self.make_xplus(), ifm, math.pi, TOL_PS)
        central = out[1].mean_photons
        assert central == pytest.approx(0.0, abs=1e-15)

    def test_z0_no_cross_term(self):
        ifm = InterferometerModel(delay=1.25e-9, visibility=0.98)
        out = interfere([pulse(0, 0.5, Bin.EARLY)], ifm, 0.3, TOL_PS)
        means = [p.mean_photons for p in out]
        assert means == pytest.approx([0.125, 0.125, 0.0], abs=1e-15)

    def test_delay_mismatch_rejected(self):
        ifm = InterferometerModel(delay=1.25e-9)
        bad = [pulse(0, 0.25, Bin.EARLY), pulse(2500, 0.25, Bin.LATE)]
        with pytest.raises(DelayMismatchError):
            interfere(bad, ifm, 0.0, TOL_PS)

    def test_zero_visibility_conserves_half(self):
        ifm = InterferometerModel(delay=1.25e-9, visibility=0.0)
        out = interfere(self.make_xplus(0.3), ifm, 1.0, TOL_PS)
        assert sum(p.mean_photons for p in out) == pytest.approx(0.3, rel=1e-12)

    def test_output_never_negative(self):
        # destructive interference at V=1 bottoms out at exactly zero
        ifm = InterferometerModel(delay=1.25e-9, visibility=1.0)
        for mu in (0.01, 0.2, 0.5):
            out = interfere(self.make_xplus(mu), ifm, math.pi, TOL_PS)
            assert all(p.mean_photons >= 0.0 for p in out)


# one value outside each DetectorModel field's domain
OUT_OF_DOMAIN = {
    "efficiency": 1.5,
    "dead_time": -1e-6,
    "dark_prob_per_ns": -1e-9,
    "jitter_sigma": -1e-12,
    "gate_width": 0.0,
    "bin_window": 30e-9,
    "tdc_resolution": 0.0,
}


class TestDetect:
    def test_click_probability_formula(self):
        # 0.5 through 7 dB seen by a 10% detector
        mu_link = 0.5 * 10 ** -0.7
        assert 1 - math.exp(-mu_link * 0.1) == pytest.approx(9.93e-3, abs=1e-5)

    @pytest.mark.slow
    @pytest.mark.parametrize("mu,seed", [(0.01, 3), (0.1, 4), (0.5, 5)])
    def test_click_rate_converges(self, mu, seed):
        # 1e6 gated trials per intensity, 3 binomial sigma
        n = 1_000_000
        det = DetectorModel(dead_time=0.0, dark_prob_per_ns=0.0, jitter_sigma=0.0)
        gates = slot_gates(n)
        pulses = [pulse(t, mu, b=b, s=s) for b, s, t in gates]
        events = detect_z(pulses, det, gates, np.random.default_rng(seed), FRAMING)
        p = 1 - math.exp(-mu * det.efficiency)
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(events) / n == pytest.approx(p, abs=3 * sigma)

    def test_dead_time_suppression(self):
        det = DetectorModel(dead_time=20e-6, dark_prob_per_ns=0.0, jitter_sigma=0.0)
        gates = slot_gates(2, symbol_ps=1_000_000)
        certain = 1e9  # click probability is 1 up to rounding
        pulses = [pulse(t, certain, s=s) for _, s, t in gates]
        events = detect_z(pulses, det, gates, np.random.default_rng(0), FRAMING)
        assert len(events) == 1

    def test_blind_detector_sees_nothing(self):
        det = DetectorModel(efficiency=0.0, dark_prob_per_ns=0.0)
        gates = slot_gates(100)
        pulses = [pulse(t, 0.5, s=s) for _, s, t in gates]
        assert detect_z(pulses, det, gates, np.random.default_rng(1), FRAMING) == []

    def test_pulse_without_a_gate_is_refused(self):
        det = DetectorModel()
        # slot 1 has light but no gate
        pulses = [pulse(0, 0.5, s=0), pulse(200_000, 0.5, s=1)]
        with pytest.raises(DomainError, match="no gate"):
            detect_z(pulses, det, slot_gates(1), np.random.default_rng(3), FRAMING)

    def test_dark_rate_and_flagging(self):
        n = 50_000
        det = DetectorModel(
            efficiency=0.0, dead_time=0.0, dark_prob_per_ns=1e-3, jitter_sigma=0.0
        )
        events = detect_z([], det, slot_gates(n), np.random.default_rng(8), FRAMING)
        assert all(ev.is_dark for ev in events)
        p = 1 - math.exp(-1e-3 * 20.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert len(events) / n == pytest.approx(p, abs=4 * sigma)

    def test_timestamps_on_tdc_grid(self):
        # the TDC counts from each gate start: 200 ns slots are not whole
        # 42 ps steps, so the grid moves from gate to gate
        det = DetectorModel(dark_prob_per_ns=1e-4)
        gates = slot_gates(5000)
        pulses = [pulse(t, 0.5, b=b, s=s) for b, s, t in gates]
        events = detect_z(pulses, det, gates, np.random.default_rng(2), FRAMING)
        starts = {(b, s): t for b, s, t in gates}
        gate_of = [starts[ev.burst_index, ev.slot_index] for ev in events]
        assert events
        assert any(t % 42 for t in gate_of)
        assert all((ev.timestamp_ps - t) % 42 == 0 for ev, t in zip(events, gate_of))

    @pytest.mark.parametrize("label", [Bin.EARLY, Bin.LATE], ids=["early", "late"])
    @pytest.mark.parametrize("edge", [0, 1], ids=["lo", "hi"])
    @pytest.mark.parametrize("gate_start", [0, 1037])
    def test_click_on_a_region_edge(self, label, edge, gate_start):
        # a jitter-free click exactly on an edge of a bin's half-open
        # region [lo, hi) counts into the bin at lo and into none at hi.
        # lo = 250 ps lies halfway between two 100 ps TDC steps and reads
        # as the later one, on and off the absolute 100 ps grid.
        det = DetectorModel(
            dark_prob_per_ns=0.0,
            jitter_sigma=0.0,
            bin_window=100e-12,
            tdc_resolution=100e-12,
        )
        regions = bin_regions(FRAMING.z_offsets, det)
        assert regions == {Bin.EARLY: (250.0, 350.0), Bin.LATE: (1550.0, 1650.0)}
        x = int(regions[label][edge])
        click = pulse(gate_start + x - 50, 1e9, width=100)
        gates = [(0, 0, gate_start)]
        (ev,) = detect_z([click], det, gates, np.random.default_rng(4), FRAMING)
        assert ev.bin == (label if edge == 0 else Bin.OUTSIDE)
        assert ev.timestamp_ps == gate_start + x + 50

    def test_dead_time_invariant_under_noise(self):
        det = DetectorModel(dead_time=2e-6, dark_prob_per_ns=5e-4)
        gates = slot_gates(20_000)
        events = detect_z([], det, gates, np.random.default_rng(9), FRAMING)
        assert len(events) > 50
        times = [ev.timestamp_ps for ev in events]
        assert all(b - a >= det.dead_time_ps for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("field", list(OUT_OF_DOMAIN))
    def test_out_of_domain_values_rejected(self, field):
        with pytest.raises(DomainError, match=field):
            DetectorModel(**{field: OUT_OF_DOMAIN[field]})


class TestDriftAndRouting:
    def test_receiver_split_fraction(self):
        rng = np.random.default_rng(6)
        eps = 1e-3
        n = 1_000_000
        x = sum(receiver_basis(rng, 1 - eps) == Basis.X for _ in range(n))
        sigma = math.sqrt(n * eps * (1 - eps))
        assert abs(x - n * eps) <= 4 * sigma

    def test_receiver_reproducible(self):
        seq1 = [receiver_basis(np.random.default_rng(3), 0.9) for _ in range(1)]
        a = [receiver_basis(rng, 0.9) for rng in [np.random.default_rng(3)] * 1]
        assert seq1 == a
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        assert [receiver_basis(r1, 0.35) for _ in range(100)] == [
            receiver_basis(r2, 0.35) for _ in range(100)
        ]

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_receiver_probability_domain(self, p):
        with pytest.raises(DomainError):
            receiver_basis(np.random.default_rng(0), p)


def fringe_probe(theta0, scale=10_000.0, visibility=0.98, rng=None):
    def probe(offset):
        mean = scale * (1 + visibility * math.cos(theta0 + offset)) / 2
        if rng is None:
            return mean
        return float(rng.poisson(mean))

    return probe


def wrapped(x):
    return (x + math.pi) % (2 * math.pi) - math.pi


class TestStabilize:
    def test_noiseless_from_half_radian(self):
        res = stabilize(fringe_probe(0.5))
        assert abs(wrapped(0.5 + res.correction)) < 0.05
        assert res.converged

    def test_already_at_maximum(self):
        res = stabilize(fringe_probe(0.0))
        assert abs(wrapped(res.correction)) < 0.05

    def test_escapes_fringe_minimum_with_noise(self):
        rng = np.random.default_rng(13)
        res = stabilize(fringe_probe(math.pi, rng=rng))
        assert abs(wrapped(math.pi + res.correction)) < 0.2
        assert res.evaluations <= 64

    def test_dead_probe_reports_no_convergence(self):
        res = stabilize(lambda off: 0.0)
        assert not res.converged

    def test_eval_budget_enforced(self):
        with pytest.raises(DomainError):
            stabilize(fringe_probe(0.0), max_evals=3)
