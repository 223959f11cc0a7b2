"""Modulator chain: per-bin intensities, leakage and phase."""

from __future__ import annotations

import math

import pytest

from tbqkd import (
    Bin,
    ClockConfig,
    Framing,
    IntensityClass,
    ProtocolParams,
    SourceConfig,
    State,
    Symbol,
    encode_state,
    modulate,
    serialize_word,
)
from tbqkd.errors import TimelineMismatchError

PARAMS = ProtocolParams()
FRAMING = Framing(ClockConfig(f_ref=100e6, f_out=800e6))
IDEAL = SourceConfig(extinction_ratio_db=math.inf, im1_transmission_x=0.5)


def fragment(state: State):
    return serialize_word(encode_state(state), FRAMING)


def test_z0_signal_single_pulse():
    sym = Symbol(State.Z0, IntensityClass.Signal, phase=1.0)
    pulses = modulate(sym, fragment(State.Z0), PARAMS, IDEAL, FRAMING)
    assert len(pulses) == 1
    assert pulses[0].bin_label == Bin.EARLY
    assert pulses[0].mean_photons == 0.5


def test_xplus_signal_split():
    sym = Symbol(State.XPlus, IntensityClass.Signal, phase=0.0)
    pulses = modulate(sym, fragment(State.XPlus), PARAMS, IDEAL, FRAMING)
    assert [p.mean_photons for p in pulses] == [0.25, 0.25]


def test_finite_extinction_leaks_into_empty_bin():
    cfg = SourceConfig(extinction_ratio_db=20.0, im1_transmission_x=0.5)
    sym = Symbol(State.Z0, IntensityClass.Signal, phase=0.0)
    pulses = modulate(sym, fragment(State.Z0), PARAMS, cfg, FRAMING)
    by_bin = {p.bin_label: p for p in pulses}
    assert by_bin[Bin.EARLY].mean_photons == 0.5
    assert by_bin[Bin.LATE].mean_photons == pytest.approx(0.005)
    # the ghost pulse sits one early/late separation after the real one
    assert by_bin[Bin.LATE].start_ps - by_bin[Bin.EARLY].start_ps == 1250


def test_z1_leakage_lands_early():
    cfg = SourceConfig(extinction_ratio_db=20.0, im1_transmission_x=0.5)
    sym = Symbol(State.Z1, IntensityClass.Decoy, phase=0.0)
    pulses = modulate(sym, fragment(State.Z1), PARAMS, cfg, FRAMING)
    by_bin = {p.bin_label: p for p in pulses}
    assert by_bin[Bin.LATE].mean_photons == pytest.approx(0.19)
    assert by_bin[Bin.EARLY].mean_photons == pytest.approx(0.0019)
    assert by_bin[Bin.EARLY].start_ps < by_bin[Bin.LATE].start_ps


def test_pulses_share_symbol_phase():
    sym = Symbol(State.XPlus, IntensityClass.Signal, phase=2.5)
    pulses = modulate(sym, fragment(State.XPlus), PARAMS, IDEAL, FRAMING)
    assert all(p.phase == 2.5 for p in pulses)


def test_mismatched_fragment_rejected():
    sym = Symbol(State.Z0, IntensityClass.Signal, phase=0.0)
    with pytest.raises(TimelineMismatchError):
        modulate(sym, fragment(State.XPlus), PARAMS, IDEAL, FRAMING)


def test_total_mean_photons_per_symbol():
    # uniform photon rate: each state carries exactly its class intensity
    for state in State:
        for intensity in IntensityClass:
            mu = PARAMS.mu1 if intensity == IntensityClass.Signal else PARAMS.mu2
            sym = Symbol(state, intensity, phase=0.0)
            pulses = modulate(sym, fragment(state), PARAMS, IDEAL, FRAMING)
            assert sum(p.mean_photons for p in pulses) == pytest.approx(mu, rel=1e-12)


def test_decoy_reached_through_modulator_ratio():
    sym = Symbol(State.Z0, IntensityClass.Decoy, phase=0.0)
    pulses = modulate(sym, fragment(State.Z0), PARAMS, IDEAL, FRAMING)
    assert pulses[0].mean_photons == pytest.approx(0.19, rel=1e-12)
