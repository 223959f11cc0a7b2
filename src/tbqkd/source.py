"""Modulator chain: turns serialized pulse timelines into weak coherent
pulses with per-bin mean photon numbers, imperfect carving extinction,
decoy intensity selection, and the per-symbol global phase."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, TimelineMismatchError
from .ppg import Framing, Pulse
from .protocol import Bin, IntensityClass, ProtocolParams, State, Symbol

# enum members bound once: on Python 3.11 looking a member up on its
# class costs about 0.1 us, which the reference engine pays several
# times per slot
_Z0, _Z1, _XPLUS = State.Z0, State.Z1, State.XPlus
_EARLY, _LATE = Bin.EARLY, Bin.LATE
_DECOY = IntensityClass.Decoy


@dataclass(frozen=True)
class SourceConfig:
    """Hardware imperfections of the intensity-modulation chain.

    extinction_ratio_db   off-state suppression of the carving modulator;
                          a nominally empty bin leaks mu*10^(-ER/10).
                          math.inf models perfect carving.
    im1_transmission_x    transmission applied to each bin of an XPlus
                          symbol (0.5 keeps the photon rate per symbol
                          uniform across states)
    im_ratio              decoy/signal intensity ratio of the second
                          modulator; None means mu2/mu1 exactly
    """

    extinction_ratio_db: float = 30.0
    im1_transmission_x: float = 0.5
    im_ratio: float | None = None

    def __post_init__(self) -> None:
        if not self.extinction_ratio_db > 0.0:
            raise DomainError(
                f"extinction_ratio_db must be > 0, got {self.extinction_ratio_db}"
            )
        if not (0.0 < self.im1_transmission_x <= 1.0):
            raise DomainError(
                f"im1_transmission_x must lie in (0, 1], got {self.im1_transmission_x}"
            )
        if self.im_ratio is not None and not (0.0 < self.im_ratio < 1.0):
            raise DomainError(f"im_ratio must lie in (0, 1), got {self.im_ratio}")

    @functools.cached_property
    def leak_fraction(self) -> float:
        """Mean-photon fraction leaking into a nominally empty bin."""
        if math.isinf(self.extinction_ratio_db):
            return 0.0
        return 10.0 ** (-self.extinction_ratio_db / 10.0)

    def ratio(self, params: ProtocolParams) -> float:
        return self.im_ratio if self.im_ratio is not None else params.mu2 / params.mu1


@dataclass(frozen=True, init=False)
class OpticalPulse:
    """A weak coherent pulse: geometry plus mean photon number and phase."""

    start_ps: int
    width_ps: int
    mean_photons: float
    phase: float
    bin_label: Bin
    burst_index: int = 0
    slot_index: int = 0

    def __init__(
        self,
        start_ps: int,
        width_ps: int,
        mean_photons: float,
        phase: float,
        bin_label: Bin,
        burst_index: int = 0,
        slot_index: int = 0,
    ) -> None:
        if mean_photons < 0.0:
            raise DomainError(f"mean_photons must be >= 0, got {mean_photons}")
        # stored in the instance dict: the generated frozen __init__ pays
        # an object.__setattr__ per field, on every pulse of the
        # reference engine
        d = self.__dict__
        d["start_ps"] = start_ps
        d["width_ps"] = width_ps
        d["mean_photons"] = mean_photons
        d["phase"] = phase
        d["bin_label"] = bin_label
        d["burst_index"] = burst_index
        d["slot_index"] = slot_index

    @property
    def center_ps(self) -> float:
        return self.start_ps + self.width_ps / 2.0


def modulate(
    symbol: Symbol,
    fragment: list[Pulse],
    params: ProtocolParams,
    cfg: SourceConfig,
    framing: Framing,
) -> list[OpticalPulse]:
    """Apply the modulator chain to one symbol's serialized fragment.

    The fragment must carry exactly the bins the state occupies. A finite
    extinction ratio adds a leakage pulse in the nominally empty bin of a
    Z state, placed one early/late separation of the framing away from
    the real pulse. The decoy intensity is reached by scaling every pulse
    of the symbol, leakage included, by the modulator ratio; XPlus pulses
    pass the first modulator's transmission, so a non-ideal im_ratio or
    im1_transmission_x shows up faithfully.
    """
    state = symbol.state
    expected = framing.labels[state]
    got = tuple([p.bin_label for p in fragment])
    if got != expected:
        raise TimelineMismatchError(
            f"fragment bins {tuple(b.name for b in got)} do not match state "
            f"{state.name} (expected {tuple(b.name for b in expected)})"
        )

    scale = cfg.ratio(params) if symbol.intensity == _DECOY else 1.0
    mu_on = params.mu1 * scale
    mean = mu_on * cfg.im1_transmission_x if state == _XPLUS else mu_on
    phase = symbol.phase
    out = [
        OpticalPulse(
            p.start_ps,
            p.width_ps,
            mean,
            phase,
            p.bin_label,
            p.burst_index,
            p.slot_index,
        )
        for p in fragment
    ]

    leak = cfg.leak_fraction
    if leak > 0.0 and state in (_Z0, _Z1):
        # the one real pulse and its leak, in time order
        anchor = fragment[0]
        sep = framing.separation_ps
        if state == _Z0:
            leak_bin, leak_start, at = _LATE, anchor.start_ps + sep, 1
        else:
            leak_bin, leak_start, at = _EARLY, anchor.start_ps - sep, 0
        out.insert(
            at,
            OpticalPulse(
                leak_start,
                anchor.width_ps,
                mu_on * leak,
                phase,
                leak_bin,
                anchor.burst_index,
                anchor.slot_index,
            ),
        )
    return out
