"""Scenario serialization, validation, and the shipped presets."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest
import yaml

from tbqkd import (
    ChannelModel,
    ClockConfig,
    Framing,
    InterferometerModel,
    ScenarioConfig,
    load_preset,
    load_scenario,
    preset_names,
    save_scenario,
)
from tbqkd.errors import ConfigError

from conftest import small_scenario


# sha256 of save_scenario's output for each preset, without and with an
# out_dir: the YAML a scenario saves to is part of the interface
SAVED_SHA256 = {
    ("link-7db", None): "205baf2e336501af951b3cf7d046cb05d4867832894385923721985375977a73",
    ("link-7db", "runs/a"): "f33ce82313aff4aee9d8bf42009664478045bac60e85de06efd6f2549afdafee",
    ("link-14db", None): "9548fd3e4a53f4ffca71369c7f4c0ba703db193bd21e4bccaea26d4e45d2c1cb",
    ("link-14db", "runs/a"): "985e8a092a9d64b4449a9de6db9d4694c3837d2a3f7e3a1f66b73aac38f96ee9",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name,out_dir", list(SAVED_SHA256))
    def test_saved_text_is_pinned(self, tmp_path, name, out_dir):
        path = tmp_path / "cfg.yaml"
        save_scenario(load_preset(name).replace(out_dir=out_dir), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SAVED_SHA256[name, out_dir]

    def test_yaml_identity_for_defaults(self, tmp_path):
        cfg = ScenarioConfig()
        path = tmp_path / "cfg.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg

    def test_yaml_identity_for_modified_scenario(self, tmp_path):
        cfg = small_scenario(duration=2.5, seed=987, out_dir="runs/a")
        path = tmp_path / "cfg.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg

    def test_infinite_extinction_survives_yaml(self, tmp_path):
        from tbqkd import SourceConfig

        cfg = small_scenario(
            source=SourceConfig(extinction_ratio_db=math.inf)
        )
        path = tmp_path / "cfg.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path).source.extinction_ratio_db == math.inf

    def test_length_specified_channel_round_trips(self, tmp_path):
        cfg = ScenarioConfig(channel=ChannelModel(length_km=35.0))
        path = tmp_path / "cfg.yaml"
        save_scenario(cfg, path)
        back = load_scenario(path)
        assert back.channel.length_km == 35.0
        assert back.channel.loss_db is None
        assert back.channel.total_loss_db == pytest.approx(7.0)

    def test_dict_inverse(self):
        cfg = small_scenario()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_extinction_accepts_inf_string(self):
        d = small_scenario().to_dict()
        d["source"]["extinction_ratio_db"] = "inf"
        assert ScenarioConfig.from_dict(d).source.extinction_ratio_db == math.inf


class TestValidation:
    def test_unknown_section_rejected(self):
        d = small_scenario().to_dict()
        d["lasers"] = {"power": 1}
        with pytest.raises(ConfigError, match="lasers"):
            ScenarioConfig.from_dict(d)

    def test_unknown_key_in_section_rejected(self):
        d = small_scenario().to_dict()
        d["detector"]["afterpulse"] = 0.01
        with pytest.raises(ConfigError, match="afterpulse"):
            ScenarioConfig.from_dict(d)

    def test_unknown_run_key_rejected(self):
        d = small_scenario().to_dict()
        d["run"]["threads"] = 4
        with pytest.raises(ConfigError, match="threads"):
            ScenarioConfig.from_dict(d)

    def test_schema_version_mismatch(self):
        d = small_scenario().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            ScenarioConfig.from_dict(d)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(["not", "a", "dict"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("channel", "loss_db"),
            ("protocol", "symbol_period"),
            ("detector", "tdc_resolution"),
            ("run", "duration"),
        ],
    )
    def test_nan_is_refused_by_name(self, tmp_path, section, key):
        doc = small_scenario().to_dict()
        doc[section][key] = math.nan
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "section,key",
        [
            ("run", "fringe_block_x_symbols"),
            ("run", "servo_bursts_per_event"),
            ("run", "shift"),
            ("run", "gap_bits"),
            ("protocol", "mu1"),
            ("security", "f_ec"),
            ("channel", "alpha_db_per_km"),
        ],
    )
    def test_non_finite_number_is_refused_by_name(self, section, key, value):
        # each of these once loaded and then crashed an engine mid-run or
        # gave NaN expectations
        d = small_scenario().to_dict()
        d[section][key] = value
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize(
        "key",
        ["seed", "shift", "gap_bits", "fringe_block_x_symbols",
         "servo_bursts_per_event"],
    )
    def test_run_counts_must_be_integers(self, key):
        # a fractional count loaded, then failed in an engine mid-run
        d = small_scenario().to_dict()
        d["run"][key] = 1.5
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("value", [20.0, True], ids=["float", "bool"])
    def test_symbols_per_burst_must_be_an_integer(self, value):
        # 20.0 loaded and then raised TypeError in both engines; True
        # raised in the batch engine
        d = small_scenario().to_dict()
        d["protocol"]["symbols_per_burst"] = value
        with pytest.raises(ConfigError, match="symbols_per_burst"):
            ScenarioConfig.from_dict(d)

    def test_bad_field_type_becomes_config_error(self):
        d = small_scenario().to_dict()
        d["run"]["duration"] = "long"
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(d)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError):
            small_scenario(duration=0.0)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            small_scenario(seed=-1)
        with pytest.raises(ConfigError):
            small_scenario(seed=2**64)

    def test_receiver_split_must_be_proper(self):
        for p in (0.0, 1.0):
            with pytest.raises(ConfigError):
                small_scenario(p_z_receiver=p)

    def test_delay_must_match_pulse_separation(self):
        # 684 MHz puts early/late 1462 ps apart; a 1.25 ns interferometer
        # cannot close that to within one TDC step
        with pytest.raises(ConfigError, match="delay"):
            small_scenario(
                interferometer=InterferometerModel(delay=1.25e-9, drift_sigma=0.0)
            )

    def test_bins_must_fit_the_word(self):
        # shift 6 with two gap bits puts the late bin at bit 9; the delay
        # matches the 2193 ps separation, so only the word refuses it
        d = small_scenario().to_dict()
        d["run"].update(shift=6, gap_bits=2)
        d["interferometer"]["delay"] = 2.193e-9
        with pytest.raises(ConfigError, match="bits 6 and 9"):
            ScenarioConfig.from_dict(d)

    def test_word_must_fit_the_symbol_period(self):
        # eight 731 ps bits last 5848 ps, longer than a 4 ns slot
        d = small_scenario().to_dict()
        d["protocol"]["symbol_period"] = 4e-9
        with pytest.raises(ConfigError, match="5848 ps"):
            ScenarioConfig.from_dict(d)

    def test_invalid_framing_is_a_config_error(self):
        with pytest.raises(ConfigError):
            small_scenario(shift=-1)

    @pytest.mark.parametrize(
        "section, key", [("run", "packed"), ("interferometer", "theta")]
    )
    def test_packed_key_is_refused(self, section, key):
        d = small_scenario().to_dict()
        d[section][key] = 0.0
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig.from_dict(d)

    def test_framing_follows_the_run_section(self):
        ifm = InterferometerModel(delay=2.193e-9, drift_sigma=0.0)
        cfg = small_scenario(shift=1, gap_bits=2, interferometer=ifm)
        assert cfg.framing == Framing(cfg.clock, shift=1, gap_bits=2)
        assert cfg.framing.separation_ps == 2193

    @pytest.mark.parametrize("bin_window", [1.462e-9, 2.5e-9])
    def test_bin_windows_must_not_overlap(self, bin_window):
        # early and late sit 1462 ps apart at 684 MHz; a window that wide
        # would put one click time in two bins, which the oracle counts
        # twice and the sampling engines once
        det = dataclasses.replace(small_scenario().detector, bin_window=bin_window)
        with pytest.raises(ConfigError, match="bin window"):
            small_scenario(detector=det)

    @pytest.mark.parametrize(
        "dead_time,loads",
        [
            pytest.param(2e-6, False, id="2us"),
            pytest.param(1e-6, False, id="1us"),
            pytest.param(50e-9, False, id="50ns"),
            pytest.param(21e-6, False, id="21us"),
            pytest.param(20e-6, True, id="gap"),
            # 19 symbol periods and one gate: the rest of a burst after a
            # click in its first slot
            pytest.param(19 * 200e-9 + 20e-9, True, id="span"),
        ],
    )
    def test_dead_time_must_blanket_the_burst_and_fit_the_gap(
        self, dead_time, loads, tmp_path
    ):
        # the small scenario's bursts: 20 slots of 200 ns every 24 us, so
        # 20 us of gap, and 20 ns gates
        base = small_scenario()
        detector = dataclasses.replace(base.detector, dead_time=dead_time)
        doc = base.to_dict()
        doc["detector"]["dead_time"] = dead_time
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        if loads:
            assert load_scenario(path) == base.replace(detector=detector)
            return
        with pytest.raises(ConfigError, match="dead time"):
            base.replace(detector=detector)
        with pytest.raises(ConfigError, match="dead time"):
            load_scenario(path)

    def test_delay_check_follows_the_clock(self):
        cfg = ScenarioConfig(
            clock=ClockConfig(f_ref=100e6, f_out=800e6),
            interferometer=InterferometerModel(delay=1.25e-9),
        )
        assert cfg.interferometer.delay == 1.25e-9


class TestDerivedQuantities:
    def test_burst_counts(self):
        cfg = load_preset("link-7db")
        assert cfg.n_bursts == 12_500_000

    def test_plan_consistency(self):
        cfg = small_scenario(duration=1.2)
        assert cfg.params.symbols_per_burst == 20
        assert cfg.params.gap_ps == 20_000_000
        longer = cfg.replace(duration=2.4)
        assert longer.n_bursts == 2 * cfg.n_bursts
        params = dataclasses.replace(
            cfg.params, symbols_per_burst=10, burst_period=48e-6
        )
        slower = cfg.replace(params=params)
        assert slower.params.burst_period_ps == 48_000_000
        assert slower.params.gap_ps == 46_000_000
        assert 2 * slower.n_bursts == cfg.n_bursts

    def test_with_loss_swaps_only_the_channel(self):
        cfg = small_scenario()
        swapped = cfg.with_loss(14.0)
        assert swapped.channel.total_loss_db == 14.0
        assert swapped.channel.alpha_db_per_km == cfg.channel.alpha_db_per_km
        assert swapped.replace(channel=cfg.channel) == cfg


class TestPresets:
    def test_names(self):
        assert preset_names() == ["link-14db", "link-7db"]

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="link-7db"):
            load_preset("link-9db")

    @pytest.mark.parametrize(
        "name,loss,seed", [("link-7db", 7.0, 7), ("link-14db", 14.0, 14)]
    )
    def test_preset_values(self, name, loss, seed):
        cfg = load_preset(name)
        assert cfg.channel.total_loss_db == loss
        assert cfg.seed == seed
        assert cfg.duration == 300.0
        assert cfg.params.mu1 == 0.5 and cfg.params.mu2 == 0.19
        assert cfg.clock.f_out == 684e6
        assert cfg.source.extinction_ratio_db == 16.8
        assert cfg.detector.dark_prob_per_ns == 1e-7
        assert cfg.interferometer.delay == 1.462e-9
        assert cfg.interferometer.drift_sigma == 0.003
        assert cfg.p_z_receiver == 0.35
        assert cfg.security.f_ec == 1.02
        assert cfg.servo_bursts_per_event == 2048
        # the dead time fills the burst gap exactly, the longest that loads
        assert cfg.detector.dead_time_ps == cfg.params.gap_ps == 20_000_000

    def test_presets_differ_only_in_channel_seed(self):
        a = load_preset("link-7db")
        b = load_preset("link-14db")
        assert a.with_loss(14.0).replace(seed=14) == b
