"""Word encoding, serialization timing, and burst scheduling."""

from __future__ import annotations

import itertools

import pytest

from tbqkd import (
    Bin,
    ClockConfig,
    DetectorModel,
    Framing,
    ProtocolParams,
    ScenarioConfig,
    State,
    decode_word,
    encode_state,
    pattern_timeline,
    serialize_word,
)
from tbqkd.errors import (
    ConfigError,
    DomainError,
    EncodingOverflowError,
    InvalidWordError,
    ScheduleViolationError,
)

CLOCK_800 = ClockConfig(f_ref=100e6, f_out=800e6)
CLOCK_684 = ClockConfig(f_ref=57e6, f_out=684e6)
FRAMING_800 = Framing(CLOCK_800)
# a dead time that loads with 4 slots in 1 us bursts
FAST_DETECTOR = DetectorModel(dead_time=0.5e-6)


def fits(shift: int, gap_bits: int) -> bool:
    return shift + gap_bits + 1 < 8


class TestEncoding:
    def test_canonical_words(self):
        assert encode_state(State.Z0) == 0b10000000
        assert encode_state(State.Z1) == 0b00100000
        assert encode_state(State.XPlus) == 0b10100000

    def test_shifted_z1(self):
        assert encode_state(State.Z1, Framing(shift=2, gap_bits=1)) == 0b00001000

    def test_decode_examples(self):
        assert decode_word(0b00100000) == State.Z1
        assert decode_word(0b10100000) == State.XPlus

    def test_three_set_bits_rejected(self):
        with pytest.raises(InvalidWordError):
            decode_word(0b11100000)

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidWordError):
            decode_word(0)

    def test_framing_mismatch_rejected(self):
        # one set bit at position 0 cannot be any state under shift=1
        with pytest.raises(InvalidWordError):
            decode_word(0b10000000, Framing(shift=1))

    def test_round_trip_all_framings(self):
        for shift, gap in itertools.product(range(8), range(1, 7)):
            if not fits(shift, gap):
                # the late bit would fall outside the word
                with pytest.raises(EncodingOverflowError):
                    Framing(shift=shift, gap_bits=gap)
                continue
            framing = Framing(shift=shift, gap_bits=gap)
            for state in State:
                word = encode_state(state, framing)
                assert decode_word(word, framing) == state

    def test_bad_framing_arguments(self):
        with pytest.raises(EncodingOverflowError):
            Framing(shift=-1)
        with pytest.raises(EncodingOverflowError):
            Framing(gap_bits=0)


class TestFraming:
    @pytest.mark.parametrize("shift,gap", [(0, 1), (0, 2), (1, 1), (2, 3)])
    def test_offsets_follow_the_separation(self, shift, gap):
        framing = Framing(CLOCK_684, shift, gap)
        bit = CLOCK_684.bit_duration_ps
        assert framing.separation_ps == (gap + 1) * bit
        early = (shift + 0.5) * bit
        assert framing.z_offsets == {
            Bin.EARLY: early, Bin.LATE: early + framing.separation_ps
        }
        assert framing.x_offsets == {
            Bin.EARLY: early,
            Bin.CENTRAL: early + framing.separation_ps,
            Bin.LATE: early + 2 * framing.separation_ps,
        }

    def test_serialized_bins_sit_at_the_direct_offsets(self):
        framing = Framing(CLOCK_684, shift=1, gap_bits=2)
        pulses = serialize_word(encode_state(State.XPlus, framing), framing, 5000)
        for p in pulses:
            center = p.start_ps + p.width_ps / 2.0
            assert center - 5000 == framing.z_offsets[p.bin_label]


class TestSerialization:
    def test_xplus_at_800mhz(self):
        pulses = serialize_word(0b10100000, FRAMING_800)
        assert [(p.start_ps, p.width_ps) for p in pulses] == [(0, 625), (1250, 625)]
        assert [p.bin_label for p in pulses] == [Bin.EARLY, Bin.LATE]

    def test_single_bit_word(self):
        pulses = serialize_word(0b10000000, FRAMING_800)
        assert len(pulses) == 1
        assert (pulses[0].start_ps, pulses[0].width_ps) == (0, 625)

    def test_xplus_at_684mhz(self):
        pulses = serialize_word(0b10100000, Framing(CLOCK_684))
        assert pulses[0].width_ps == 731
        assert pulses[1].width_ps == 731
        assert pulses[1].start_ps - pulses[0].start_ps == 1462
        # the grid width is the rounded exact bit time, within 0.1 ps
        assert abs(731 - 1e12 / (2 * 684e6)) < 0.1

    def test_t0_offsets_all_pulses(self):
        pulses = serialize_word(0b10100000, FRAMING_800, t0_ps=5000)
        assert [p.start_ps for p in pulses] == [5000, 6250]

    @pytest.mark.parametrize(
        "word,framing",
        [
            (0b11100000, FRAMING_800),
            (0, FRAMING_800),
            (256, FRAMING_800),
            (-128, FRAMING_800),
            (0b10000000, Framing(shift=1)),
        ],
    )
    def test_words_of_no_state_are_refused(self, word, framing):
        with pytest.raises(InvalidWordError):
            serialize_word(word, framing)

    def test_pulse_count_matches_set_bits(self):
        for state, shift, gap in itertools.product(State, range(6), range(1, 4)):
            if not fits(shift, gap):
                continue
            framing = Framing(CLOCK_800, shift, gap)
            word = encode_state(state, framing)
            pulses = serialize_word(word, framing)
            assert len(pulses) == bin(word).count("1")

    @pytest.mark.parametrize("f_out", [400e6, 500e6, 684e6, 800e6])
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_separation_is_gap_plus_one_bits(self, f_out, gap):
        clock = ClockConfig(f_ref=50e6, f_out=f_out)
        framing = Framing(clock, 0, gap)
        pulses = serialize_word(encode_state(State.XPlus, framing), framing)
        assert (
            pulses[1].start_ps - pulses[0].start_ps
            == (gap + 1) * clock.bit_duration_ps
            == framing.separation_ps
        )


class TestScheduling:
    def test_burst_preset_is_dead_time_safe(self):
        params = ProtocolParams(
            symbols_per_burst=20, symbol_period=200e-9, burst_period=24e-6
        )
        # 20 us of gap: room for the presets' 20 us dead time
        assert params.gap_ps == 20_000_000

    def test_max_symbol_rate_ok(self):
        # 200 MHz: the 8-bit word at 800 MHz fills the 5 ns slot exactly
        params = ProtocolParams(
            symbols_per_burst=4, symbol_period=5e-9, burst_period=1e-6
        )
        cfg = ScenarioConfig(params=params, clock=CLOCK_800, detector=FAST_DETECTOR)
        assert cfg.params.symbol_period_ps == 8 * CLOCK_800.bit_duration_ps == 5000

    def test_symbol_period_below_word_duration(self):
        params = ProtocolParams(
            symbols_per_burst=4, symbol_period=4e-9, burst_period=1e-6
        )
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(params=params, clock=CLOCK_800, detector=FAST_DETECTOR)
        assert str(exc.value) == (
            "symbol_period 4000 ps is shorter than the 8-bit word duration "
            "5000 ps at f_out=8e+08 Hz"
        )

    def test_burst_longer_than_period_rejected(self):
        with pytest.raises(DomainError, match="burst_period"):
            ProtocolParams(
                symbols_per_burst=20, symbol_period=200e-9, burst_period=3e-6
            )

    def test_slot_starts_exact_on_bit_grid(self):
        params = ProtocolParams(
            symbols_per_burst=20, symbol_period=200e-9, burst_period=24e-6
        )
        # the canonical Z0 word is one pulse at its slot start
        pulses = pattern_timeline([State.Z0], params, FRAMING_800, 2)
        starts = [p.start_ps for p in pulses]
        assert starts == [t for b in range(2) for _, _, t in params.burst_slots(b)]
        assert starts[20] == params.burst_period_ps == 24_000_000
        assert all(t % CLOCK_800.bit_duration_ps == 0 for t in starts)
        # far-slot arithmetic stays exact: integers, no accumulation error
        far = params.burst_slots(10**8)[19]
        assert far == (10**8, 19, 2_400_000_003_800_000)


class TestPatternTimeline:
    def test_cycles_states_in_order(self):
        params = ProtocolParams(
            symbols_per_burst=3, symbol_period=200e-9, burst_period=1e-6
        )
        pulses = list(
            pattern_timeline([State.Z0, State.Z1, State.XPlus], params, FRAMING_800, 2)
        )
        # 2 bursts x (1 + 1 + 2) pulses
        assert len(pulses) == 8
        starts = [p.start_ps for p in pulses]
        assert starts == sorted(starts)
        for a, b in zip(pulses, pulses[1:]):
            assert a.start_ps + a.width_ps <= b.start_ps

    def test_empty_pattern_rejected(self):
        with pytest.raises(ScheduleViolationError):
            next(pattern_timeline([], ProtocolParams(), FRAMING_800, 1))
