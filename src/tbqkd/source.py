"""Modulator chain: turns serialized pulse timelines into weak coherent
pulses with per-bin mean photon numbers, imperfect carving extinction,
decoy intensity selection, and the per-symbol global phase."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, TimelineMismatchError
from .ppg import Framing, Pulse
from .protocol import Bin, IntensityClass, ProtocolParams, State, Symbol


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

    @property
    def leak_fraction(self) -> float:
        """Mean-photon fraction leaking into a nominally empty bin."""
        if math.isinf(self.extinction_ratio_db):
            return 0.0
        return 10.0 ** (-self.extinction_ratio_db / 10.0)

    def ratio(self, params: ProtocolParams) -> float:
        return self.im_ratio if self.im_ratio is not None else params.mu2 / params.mu1


@dataclass(frozen=True)
class OpticalPulse:
    """A weak coherent pulse: geometry plus mean photon number and phase."""

    start_ps: int
    width_ps: int
    mean_photons: float
    phase: float
    bin_label: Bin
    burst_index: int = 0
    slot_index: int = 0

    def __post_init__(self) -> None:
        if self.mean_photons < 0.0:
            raise DomainError(f"mean_photons must be >= 0, got {self.mean_photons}")

    @property
    def center_ps(self) -> float:
        return self.start_ps + self.width_ps / 2.0

    def attenuated(self, transmission: float) -> "OpticalPulse":
        # built directly: dataclasses.replace costs several times as much
        # on the reference engine's path, which copies every pulse
        return OpticalPulse(
            start_ps=self.start_ps,
            width_ps=self.width_ps,
            mean_photons=self.mean_photons * transmission,
            phase=self.phase,
            bin_label=self.bin_label,
            burst_index=self.burst_index,
            slot_index=self.slot_index,
        )


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
    expected = tuple(label for _, label in framing.bits[symbol.state])
    got = tuple(p.bin_label for p in fragment)
    if got != expected:
        raise TimelineMismatchError(
            f"fragment bins {tuple(b.name for b in got)} do not match state "
            f"{symbol.state.name} (expected {tuple(b.name for b in expected)})"
        )

    scale = cfg.ratio(params) if symbol.intensity == IntensityClass.Decoy else 1.0
    mu_on = params.mu1 * scale
    x_factor = cfg.im1_transmission_x

    out: list[OpticalPulse] = []
    for pulse in fragment:
        mean = mu_on * (x_factor if symbol.state == State.XPlus else 1.0)
        out.append(
            OpticalPulse(
                start_ps=pulse.start_ps,
                width_ps=pulse.width_ps,
                mean_photons=mean,
                phase=symbol.phase,
                bin_label=pulse.bin_label,
                burst_index=pulse.burst_index,
                slot_index=pulse.slot_index,
            )
        )

    leak = cfg.leak_fraction
    if leak > 0.0 and symbol.state in (State.Z0, State.Z1):
        anchor = fragment[0]
        sep = framing.separation_ps
        if symbol.state == State.Z0:
            leak_bin, leak_start = Bin.LATE, anchor.start_ps + sep
        else:
            leak_bin, leak_start = Bin.EARLY, anchor.start_ps - sep
        out.append(
            OpticalPulse(
                start_ps=leak_start,
                width_ps=anchor.width_ps,
                mean_photons=mu_on * leak,
                phase=symbol.phase,
                bin_label=leak_bin,
                burst_index=anchor.burst_index,
                slot_index=anchor.slot_index,
            )
        )
        out.sort(key=lambda p: p.start_ps)
    return out
