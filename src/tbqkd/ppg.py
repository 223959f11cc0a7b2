"""Bit-exact pulse-pattern generation.

A symbol is encoded as an 8-bit serial word (index 0 transmitted first)
whose set bits mark the occupied time bins. The serializer shifts words
out at twice the synthesizer output frequency, so each bit lasts
1/(2*f_out). All timeline arithmetic is carried in integer picoseconds;
schedules spanning 1e8+ slots stay exact.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    EncodingOverflowError,
    InvalidWordError,
    ScheduleViolationError,
)
from .protocol import Bin, ProtocolParams, State

WORD_BITS = 8


@dataclass(frozen=True)
class ClockConfig:
    """Serializer clocking: reference input f_ref, synthesized f_out, and
    the serial bit rate at twice f_out."""

    f_ref: float = 100e6
    f_out: float = 800e6

    def __post_init__(self) -> None:
        if not (10e6 <= self.f_ref <= 100e6):
            raise ScheduleViolationError(
                f"f_ref must lie in [10 MHz, 100 MHz], got {self.f_ref}"
            )
        if not (400e6 <= self.f_out <= 800e6):
            raise ScheduleViolationError(
                f"f_out must lie in [400 MHz, 800 MHz], got {self.f_out}"
            )

    @functools.cached_property
    def bit_duration_ps(self) -> int:
        """Bit duration at the serial bit rate 2*f_out, rounded to the
        picosecond grid (625 ps at 800 MHz, 731 ps at 684 MHz)."""
        return max(1, round(1e12 / (2.0 * self.f_out)))


@dataclass(frozen=True)
class Framing:
    """Where a symbol's bins sit: the early bit follows `shift` empty
    bits, and `gap_bits` empty bits (>= 1, so the two optical bins never
    touch) separate it from the late bit. The one definition of the
    early/late geometry: the encoder, the modulator's leak pulse and the
    receiver's bin windows all read it. Both bits must fit the word.
    """

    clock: ClockConfig = ClockConfig()
    shift: int = 0
    gap_bits: int = 1

    def __post_init__(self) -> None:
        if self.shift < 0 or self.gap_bits < 1 or self.late >= WORD_BITS:
            raise EncodingOverflowError(
                f"framing shift={self.shift}, gap_bits={self.gap_bits} puts "
                f"the bins at bits {self.early} and {self.late}; both must lie "
                f"in 0..{WORD_BITS - 1}, at least two bits apart"
            )

    @property
    def early(self) -> int:
        return self.shift

    @property
    def late(self) -> int:
        return self.shift + self.gap_bits + 1

    @functools.cached_property
    def bits(self) -> tuple[tuple[tuple[int, Bin], ...], ...]:
        """(bit position, bin) of each pulse of a state, in time order,
        indexed by State value."""
        early, late = (self.early, Bin.EARLY), (self.late, Bin.LATE)
        return (early,), (late,), (early, late)

    @functools.cached_property
    def labels(self) -> tuple[tuple[Bin, ...], ...]:
        """Bins of each state's pulses, in time order, indexed by State
        value."""
        return tuple(tuple(label for _, label in bits) for bits in self.bits)

    @functools.cached_property
    def words(self) -> tuple[int, ...]:
        """8-bit serial word of each state, indexed by State value; set
        bits count from the MSB so the integer's binary literal reads in
        transmission order."""
        return tuple(
            sum(1 << (WORD_BITS - 1 - pos) for pos, _ in bits) for bits in self.bits
        )

    @functools.cached_property
    def word_pulses(self) -> Mapping[int, tuple[tuple[int, Bin], ...]]:
        """(offset in ps from the word start, bin) of each pulse, keyed
        by the serial word of each state."""
        bit_ps = self.clock.bit_duration_ps
        return MappingProxyType(
            {
                word: tuple((pos * bit_ps, label) for pos, label in bits)
                for word, bits in zip(self.words, self.bits)
            }
        )

    @functools.cached_property
    def separation_ps(self) -> int:
        """Early-to-late pulse spacing on the picosecond grid."""
        return (self.gap_bits + 1) * self.clock.bit_duration_ps

    @functools.cached_property
    def z_offsets(self) -> Mapping[Bin, float]:
        """Bin-center offsets (ps) from the slot start on the direct path."""
        early = (self.shift + 0.5) * self.clock.bit_duration_ps
        return MappingProxyType(
            {Bin.EARLY: early, Bin.LATE: early + self.separation_ps}
        )

    @functools.cached_property
    def x_offsets(self) -> Mapping[Bin, float]:
        """Bin-center offsets (ps) on the interferometer path: the long
        arm delays each pulse by one separation, so the central bin
        interferes early and late and the late output lands one
        separation after the direct late bin."""
        early = (self.shift + 0.5) * self.clock.bit_duration_ps
        sep = self.separation_ps
        return MappingProxyType(
            {Bin.EARLY: early, Bin.CENTRAL: early + sep, Bin.LATE: early + 2 * sep}
        )


CANONICAL = Framing()


def encode_state(state: State, framing: Framing = CANONICAL) -> int:
    """8-bit serial word for a state under the framing (Framing.words)."""
    return framing.words[state]


def decode_word(word: int, framing: Framing = CANONICAL) -> State:
    """Inverse of encode_state under a known framing, which decoding
    needs because a single set bit is ambiguous on its own: the early
    position of one shift is the late position of another.
    """
    if not (0 <= word < (1 << WORD_BITS)):
        raise InvalidWordError(f"word {word!r} is not an {WORD_BITS}-bit value")
    if word in framing.words:
        return State(framing.words.index(word))
    raise InvalidWordError(
        f"word {word:08b} is no state under framing shift={framing.shift}, "
        f"gap_bits={framing.gap_bits}"
    )


@dataclass(frozen=True, init=False)
class Pulse:
    """One rectangular optical pulse on the integer-picosecond timeline."""

    start_ps: int
    width_ps: int
    bin_label: Bin
    burst_index: int = 0
    slot_index: int = 0

    def __init__(
        self,
        start_ps: int,
        width_ps: int,
        bin_label: Bin,
        burst_index: int = 0,
        slot_index: int = 0,
    ) -> None:
        # stored in the instance dict: the generated frozen __init__ pays
        # an object.__setattr__ per field, on every slot of the
        # reference engine
        d = self.__dict__
        d["start_ps"] = start_ps
        d["width_ps"] = width_ps
        d["bin_label"] = bin_label
        d["burst_index"] = burst_index
        d["slot_index"] = slot_index


def serialize_word(
    word: int,
    framing: Framing,
    t0_ps: int = 0,
    burst_index: int = 0,
    slot_index: int = 0,
) -> list[Pulse]:
    """Emit the optical pulses of one serial word starting at t0_ps.

    Bit i occupies [t0 + i*bit, t0 + (i+1)*bit) on the framing's clock.
    The word must decode under the framing; pulses are labeled
    early/late accordingly.
    """
    pulses = framing.word_pulses.get(word)
    if pulses is None:
        decode_word(word, framing)  # raises: the word is no state's
    bit_ps = framing.clock.bit_duration_ps
    return [
        Pulse(t0_ps + offset, bit_ps, label, burst_index, slot_index)
        for offset, label in pulses
    ]


def pattern_timeline(
    states: list[State], params: ProtocolParams, framing: Framing, n_bursts: int
) -> Iterator[Pulse]:
    """Pulses of n_bursts bursts whose slots (ProtocolParams.burst_slots)
    cycle through the given states. params and framing are those of a
    ScenarioConfig, which checks that every word fits its slot.

    Lazy: the consumer decides how much of the (possibly huge) timeline
    to realize.
    """
    if not states:
        raise ScheduleViolationError("pattern needs at least one state")
    cycle = itertools.cycle(states)
    for b in range(n_bursts):
        for _, s, start in params.burst_slots(b):
            word = encode_state(next(cycle), framing)
            yield from serialize_word(word, framing, start, b, s)
