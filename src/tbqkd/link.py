"""Optical channel and receiver models.

The receiver routes each arriving symbol passively to the Z path (direct
detection of the two bins) or the X path (unbalanced interferometer whose
central output bin interferes the two bins). Both paths end in gated
threshold detectors with efficiency, dark counts, Gaussian jitter,
dead time, and TDC quantization.

This module holds the event-by-event reference implementation; the batch
engine in pipeline.py reproduces the same distributions vectorized and is
cross-checked against this one in the test suite.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DelayMismatchError, DomainError
from .ppg import Framing
from .protocol import Basis, Bin
from .source import OpticalPulse

# enum members bound once: on Python 3.11 looking a member up on its
# class costs about 0.1 us, which the reference engine pays several
# times per slot
_EARLY, _CENTRAL, _LATE, _OUTSIDE = Bin.EARLY, Bin.CENTRAL, Bin.LATE, Bin.OUTSIDE
_BASIS_Z, _BASIS_X = Basis.Z, Basis.X


@dataclass(frozen=True)
class ChannelModel:
    """Fiber channel: pure attenuation, no dispersion.

    Either loss_db or length_km may be given; the other is derived via
    alpha_db_per_km. Explicit loss_db wins when both are present.
    """

    loss_db: float | None = None
    alpha_db_per_km: float = 0.2
    length_km: float | None = None

    def __post_init__(self) -> None:
        # an infinite alpha over 0 km makes the transmission NaN
        if not (0.0 < self.alpha_db_per_km < math.inf):
            raise DomainError(
                f"alpha_db_per_km must be finite and > 0, got {self.alpha_db_per_km}"
            )
        if self.loss_db is None and self.length_km is None:
            raise DomainError("give loss_db or length_km")
        if self.loss_db is not None and not (self.loss_db >= 0.0):
            raise DomainError(f"loss_db must be >= 0, got {self.loss_db}")
        if self.length_km is not None and not (self.length_km >= 0.0):
            raise DomainError(f"length_km must be >= 0, got {self.length_km}")

    @property
    def total_loss_db(self) -> float:
        if self.loss_db is not None:
            return self.loss_db
        return self.alpha_db_per_km * self.length_km

    @functools.cached_property
    def transmission(self) -> float:
        return 10.0 ** (-self.total_loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Gated single-photon threshold detector."""

    efficiency: float = 0.10
    dead_time: float = 20e-6
    dark_prob_per_ns: float = 3e-6
    jitter_sigma: float = 150e-12
    gate_width: float = 20e-9
    bin_window: float = 0.8e-9
    tdc_resolution: float = 42e-12

    def __post_init__(self) -> None:
        # efficiency 0 is allowed: it is the photon-blind limit used to
        # separate dark-driven from photon-driven behavior.
        if not (0.0 <= self.efficiency <= 1.0):
            raise DomainError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if not (0.0 <= self.dead_time < math.inf):
            raise DomainError(f"dead_time must be finite, >= 0, got {self.dead_time}")
        if not (0.0 <= self.dark_prob_per_ns < math.inf):
            raise DomainError(
                f"dark_prob_per_ns must be finite, >= 0, got {self.dark_prob_per_ns}"
            )
        if not (0.0 <= self.jitter_sigma < math.inf):
            raise DomainError(f"jitter_sigma must be finite, >= 0, got {self.jitter_sigma}")
        if not (0.0 < self.gate_width < math.inf):
            raise DomainError(f"gate_width must be finite, > 0, got {self.gate_width}")
        if not (0.0 < self.bin_window <= self.gate_width):
            raise DomainError(
                f"bin_window must lie in (0, gate_width], got {self.bin_window}"
            )
        if not (0.0 < self.tdc_resolution < math.inf):
            raise DomainError(
                f"tdc_resolution must be finite, > 0, got {self.tdc_resolution}"
            )

    @functools.cached_property
    def dead_time_ps(self) -> int:
        return round(self.dead_time * 1e12)

    @functools.cached_property
    def gate_width_ps(self) -> int:
        return round(self.gate_width * 1e12)

    @functools.cached_property
    def bin_window_ps(self) -> float:
        return self.bin_window * 1e12

    @functools.cached_property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_sigma * 1e12

    @functools.cached_property
    def tdc_resolution_ps(self) -> int:
        return max(1, round(self.tdc_resolution * 1e12))

    @functools.cached_property
    def dark_prob_per_gate(self) -> float:
        return self.dark_prob_per_ns * self.gate_width * 1e9


@dataclass(frozen=True)
class InterferometerModel:
    """Unbalanced interferometer for the X path.

    delay is the arm unbalance and must equal the early/late pulse
    separation. The phase between the arms is not a setting: each run
    walks it by drift_sigma per square-root second and the servo locks
    it back every stabilization_interval seconds.
    """

    delay: float = 1.25e-9
    visibility: float = 0.98
    drift_sigma: float = 0.01
    stabilization_interval: float = 100.0

    def __post_init__(self) -> None:
        if not (0.0 < self.delay < math.inf):
            raise DomainError(f"delay must be finite, > 0, got {self.delay}")
        if not (0.0 <= self.visibility <= 1.0):
            raise DomainError(
                f"visibility must lie in [0, 1], got {self.visibility}"
            )
        if not (0.0 <= self.drift_sigma < math.inf):
            raise DomainError(f"drift_sigma must be finite, >= 0, got {self.drift_sigma}")
        if not (0.0 < self.stabilization_interval < math.inf):
            raise DomainError(
                "stabilization_interval must be finite, > 0, got "
                f"{self.stabilization_interval}"
            )

    @functools.cached_property
    def delay_ps(self) -> int:
        return round(self.delay * 1e12)


@dataclass(frozen=True)
class DetectionEvent:
    """One accepted click. is_dark is simulation truth for diagnostics
    only; protocol logic never reads it."""

    timestamp_ps: int
    burst_index: int
    slot_index: int
    bin: Bin
    basis: Basis
    is_dark: bool = False


def transmit(
    pulses: Iterable[OpticalPulse], channel: ChannelModel
) -> list[OpticalPulse]:
    """Scale every pulse's mean photon number by the channel transmission."""
    t = channel.transmission
    return [
        OpticalPulse(
            p.start_ps,
            p.width_ps,
            p.mean_photons * t,
            p.phase,
            p.bin_label,
            p.burst_index,
            p.slot_index,
        )
        for p in pulses
    ]


def interfere(
    symbol_pulses: Sequence[OpticalPulse],
    ifm: InterferometerModel,
    theta: float,
    tolerance_ps: float,
) -> list[OpticalPulse]:
    """Three-bin output of the unbalanced interferometer for one symbol
    at arm phase theta.

    Inputs are the symbol's pulses (early and/or late, leakage included);
    an early and a late pulse must lie the arm delay apart, within
    tolerance_ps.
    Outputs at t_e, t_e + delay, t_e + 2*delay carry means
    (mu_e/4, (mu_e+mu_l)/4 + (V/2) sqrt(mu_e mu_l) cos theta, mu_l/4);
    the cross term vanishes with either input empty, which covers the
    ideal-extinction Z case.
    """
    if not symbol_pulses:
        raise DomainError("interfere needs at least one pulse")
    early = [p for p in symbol_pulses if p.bin_label == _EARLY]
    late = [p for p in symbol_pulses if p.bin_label == _LATE]
    if len(early) > 1 or len(late) > 1 or len(early) + len(late) != len(symbol_pulses):
        raise DomainError("expected at most one early and one late pulse per symbol")

    anchor = early[0] if early else late[0]
    delay_ps = ifm.delay_ps
    if early and late:
        separation = late[0].start_ps - early[0].start_ps
        if abs(separation - delay_ps) > tolerance_ps:
            raise DelayMismatchError(
                f"pulse separation {separation} ps does not match the "
                f"interferometer delay {delay_ps} ps"
            )
        t_early = early[0].start_ps
    elif early:
        t_early = early[0].start_ps
    else:
        t_early = late[0].start_ps - delay_ps

    mu_e = early[0].mean_photons if early else 0.0
    mu_l = late[0].mean_photons if late else 0.0
    cross = 0.5 * ifm.visibility * math.sqrt(mu_e * mu_l) * math.cos(theta)
    central = max(0.0, (mu_e + mu_l) / 4.0 + cross)

    width, phase = anchor.width_ps, anchor.phase
    b, s = anchor.burst_index, anchor.slot_index
    return [
        OpticalPulse(t_early, width, mu_e / 4.0, phase, _EARLY, b, s),
        OpticalPulse(t_early + delay_ps, width, central, phase, _CENTRAL, b, s),
        OpticalPulse(t_early + 2 * delay_ps, width, mu_l / 4.0, phase, _LATE, b, s),
    ]


def bin_regions(
    bin_offsets: Mapping[Bin, float], det: DetectorModel
) -> dict[Bin, tuple[float, float]]:
    """The bin rule of every engine and the oracle: time x after the gate
    start reads as TDC step floor(x/tdc + 1/2), and a bin takes the steps
    within its window centered at its offset. Returns each bin's interval
    [lo, hi) of x; a window that holds no step gives lo >= hi."""
    tdc = float(det.tdc_resolution_ps)
    hw = det.bin_window_ps / 2.0
    regions = {}
    for label, center in bin_offsets.items():
        kmin = math.ceil((center - hw) / tdc)
        kmax = math.floor((center + hw) / tdc)
        lo, hi = kmin * tdc - tdc / 2.0, kmax * tdc + tdc / 2.0
        regions[label] = (lo, hi) if kmin <= kmax else (0.0, 0.0)
    return regions


def detect(
    pulses: Sequence[OpticalPulse],
    det: DetectorModel,
    gates: Iterable[tuple[int, int, int]],
    rng: np.random.Generator,
    bin_offsets: dict[Bin, float],
    basis: Basis,
) -> list[DetectionEvent]:
    """Event-by-event detection over one detector's pulse stream.

    gates holds the (burst, slot, gate_start_ps) of each gate the
    detector opens, in time order. Every gate can fire a dark count, also
    in slots whose light was routed to the other path; a pulse in a slot
    with no gate raises DomainError. Photon clicks happen per pulse with
    probability 1 - exp(-mean*efficiency) at the jittered pulse center;
    the earliest non-blind candidate in time wins and starts the dead
    time. bin_regions classifies its time after the gate start, and it
    is stamped on the TDC grid started at the gate, rounded half up.
    """
    by_slot: dict[tuple[int, int], list[OpticalPulse]] = {}
    for p in pulses:
        by_slot.setdefault((p.burst_index, p.slot_index), []).append(p)

    eta = det.efficiency
    sigma = det.jitter_sigma_ps
    gate_ps = det.gate_width_ps
    tdc = det.tdc_resolution_ps
    regions = tuple(bin_regions(bin_offsets, det).items())
    lam_dark = det.dark_prob_per_gate

    events: list[DetectionEvent] = []
    dead_until = -math.inf
    for b, s, gate_start in gates:
        candidates: list[tuple[float, bool]] = []
        for pulse in by_slot.pop((b, s), ()):
            p_click = 1.0 - math.exp(-pulse.mean_photons * eta)
            if p_click > 0.0 and rng.random() < p_click:
                t = pulse.center_ps
                if sigma > 0.0:
                    t += rng.normal(0.0, sigma)
                candidates.append((t, False))
        if lam_dark > 0.0:
            for _ in range(rng.poisson(lam_dark)):
                candidates.append((gate_start + rng.uniform(0.0, gate_ps), True))
        if not candidates:
            continue
        candidates.sort()
        for t, is_dark in candidates:
            if t < dead_until:
                continue
            x = t - gate_start
            label = next((key for key, (lo, hi) in regions if lo <= x < hi), _OUTSIDE)
            events.append(
                DetectionEvent(
                    timestamp_ps=gate_start + math.floor(x / tdc + 0.5) * tdc,
                    burst_index=b,
                    slot_index=s,
                    bin=label,
                    basis=basis,
                    is_dark=is_dark,
                )
            )
            dead_until = t + det.dead_time_ps
            break
    if by_slot:
        raise DomainError(
            f"pulses in {len(by_slot)} slot(s) with no gate, first at "
            f"burst/slot {min(by_slot)}"
        )
    return events


def detect_z(
    pulses: Sequence[OpticalPulse],
    det: DetectorModel,
    gates: Iterable[tuple[int, int, int]],
    rng: np.random.Generator,
    framing: Framing,
) -> list[DetectionEvent]:
    """Direct-path detection: early/late bins measured as sent."""
    return detect(pulses, det, gates, rng, framing.z_offsets, Basis.Z)


def detect_x(
    symbol_pulse_groups: Iterable[Sequence[OpticalPulse]],
    ifm: InterferometerModel,
    theta: float,
    det: DetectorModel,
    gates: Iterable[tuple[int, int, int]],
    rng: np.random.Generator,
    framing: Framing,
) -> list[DetectionEvent]:
    """Interferometer-path detection: each symbol's pulses interfere into
    three bins at arm phase theta, then hit the gated detector. The arm
    delay may differ from the pulse separation by up to one TDC step,
    the tolerance a scenario is loaded with."""
    out_pulses: list[OpticalPulse] = []
    for group in symbol_pulse_groups:
        out_pulses.extend(interfere(group, ifm, theta, det.tdc_resolution_ps))
    return detect(out_pulses, det, gates, rng, framing.x_offsets, Basis.X)


def receiver_basis(rng: np.random.Generator, p_z_receiver: float) -> Basis:
    """Passive basis routing: Z with probability p_z_receiver."""
    if not (0.0 < p_z_receiver < 1.0):
        raise DomainError(
            f"p_z_receiver must lie strictly in (0, 1), got {p_z_receiver}"
        )
    return _BASIS_Z if rng.random() < p_z_receiver else _BASIS_X


@dataclass(frozen=True)
class StabilizeResult:
    """Outcome of one servo run: the additive phase correction found, the
    residual phase estimate, and whether the convergence check passed."""

    correction: float
    residual: float
    converged: bool
    evaluations: int


def _wrap_pi(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def stabilize(
    probe: Callable[[float], float],
    max_evals: int = 64,
    tol: float = 0.01,
    delta: float = 0.02,
) -> StabilizeResult:
    """Drive the servo phase so central-bin counts are maximal.

    probe(offset) must return a (noisy) central-bin count rate with the
    candidate offset added to the servo phase. Counts follow
    A + B cos(theta + offset), so sampling the four quadrature offsets
    gives a full phase estimate per iteration:
    f0 - f2 = 2 B cos(theta), f3 - f1 = 2 B sin(theta). Each iteration
    applies a damped correction; unlike plain gradient descent this
    escapes the fringe minimum in one step. Convergence requires the
    final counts to reach (1 - delta) of the estimated fringe maximum.
    """
    if max_evals < 5:
        raise DomainError(f"max_evals must allow one sweep of 4 probes, got {max_evals}")
    correction = 0.0
    damping = 0.7
    evals = 0
    residual = math.pi
    half_pi = math.pi / 2.0
    max_est = 0.0
    while evals + 4 <= max_evals:
        f = [probe(correction + k * half_pi) for k in range(4)]
        evals += 4
        c = (f[0] - f[2]) / 2.0
        s = (f[3] - f[1]) / 2.0
        residual = math.atan2(s, c)
        max_est = (f[0] + f[2]) / 2.0 + math.hypot(c, s)
        if abs(residual) < tol:
            break
        correction = _wrap_pi(correction - damping * residual)

    final = probe(correction)
    evals += 1
    converged = max_est > 0.0 and final >= (1.0 - delta) * max_est
    return StabilizeResult(
        correction=correction,
        residual=residual,
        converged=converged,
        evaluations=evals,
    )
