"""Protocol-level types and statistics for a three-state time-bin scheme.

A transmitted symbol is one of three states: a photon pulse in the early
bin (Z0), in the late bin (Z1), or split across both with a fixed relative
phase (XPlus). Each symbol independently carries one of two mean photon
numbers (signal mu1 or decoy mu2), and an optical global phase drawn
uniformly per symbol so that pulses are phase-randomized between symbols.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


_TWO_PI = 2.0 * math.pi


class State(enum.IntEnum):
    """The three transmitted states. Values index lookup tables."""

    Z0 = 0
    Z1 = 1
    XPlus = 2


class Basis(enum.IntEnum):
    Z = 0
    X = 1


class IntensityClass(enum.IntEnum):
    """Signal carries mu1, Decoy carries mu2."""

    Signal = 0
    Decoy = 1


# enum members bound once: on Python 3.11 looking a member up on its
# class costs about 0.1 us, which the reference engine pays several
# times per slot
_Z0, _Z1, _XPLUS = State.Z0, State.Z1, State.XPlus
_SIGNAL, _DECOY = IntensityClass.Signal, IntensityClass.Decoy


class Bin(enum.IntEnum):
    """Time-bin labels. Transmitted pulses use EARLY/LATE; the receiver
    additionally classifies CENTRAL (interferometer output) and OUTSIDE
    (a click not matching any scheduled bin window)."""

    EARLY = 0
    CENTRAL = 1
    LATE = 2
    OUTSIDE = 3


@dataclass(frozen=True)
class ProtocolParams:
    """Source-side protocol parameters.

    mu1, mu2          mean photon numbers of the signal and decoy intensities
    p_mu1             probability a symbol uses the signal intensity
    p_z               probability a symbol encodes in the Z basis; the two
                      Z states are equiprobable within the basis
    symbol_period     seconds between symbol slots inside a burst
    symbols_per_burst slots per burst
    burst_period      seconds between burst starts; must leave room for
                      every slot of the burst
    """

    mu1: float = 0.50
    mu2: float = 0.19
    p_mu1: float = 0.63
    p_z: float = 0.90
    symbol_period: float = 200e-9
    symbols_per_burst: int = 20
    burst_period: float = 24e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.mu2 < self.mu1 < math.inf):
            raise DomainError(
                f"need 0 < mu2 < mu1 and mu1 finite, got mu1={self.mu1}, "
                f"mu2={self.mu2}"
            )
        for name in ("p_mu1", "p_z"):
            p = getattr(self, name)
            if not (0.0 < p < 1.0):
                raise DomainError(f"{name} must lie strictly in (0, 1), got {p}")
        if not (self.symbol_period > 0.0):
            raise DomainError(f"symbol_period must be positive, got {self.symbol_period}")
        # the engines shape their arrays with it: a float or a bool would
        # fail only mid-run
        slots = self.symbols_per_burst
        if isinstance(slots, bool) or not isinstance(slots, numbers.Integral) or slots < 1:
            raise DomainError(f"symbols_per_burst must be an integer >= 1, got {slots!r}")
        burst = self.symbols_per_burst * self.symbol_period
        if not (burst <= self.burst_period < math.inf):
            raise DomainError(
                f"burst_period {self.burst_period} must be finite and cover the "
                f"burst, {self.symbols_per_burst} x {self.symbol_period}"
            )

    @functools.cached_property
    def symbol_period_ps(self) -> int:
        return round(self.symbol_period * 1e12)

    @functools.cached_property
    def burst_period_ps(self) -> int:
        return round(self.burst_period * 1e12)

    @property
    def gap_ps(self) -> int:
        """Idle time between the last slot of a burst and the next burst."""
        return self.burst_period_ps - self.symbols_per_burst * self.symbol_period_ps

    def burst_slots(self, burst: int) -> list[tuple[int, int, int]]:
        """(burst, slot, start_ps) of each slot of a burst, in time order.
        Slot s starts at burst*burst_period + s*symbol_period on the
        integer-picosecond grid, exact however far the burst; its
        detector gates open there too."""
        base = burst * self.burst_period_ps
        step = self.symbol_period_ps
        return [(burst, s, base + s * step) for s in range(self.symbols_per_burst)]

    @property
    def p_mu2(self) -> float:
        return 1.0 - self.p_mu1

    def state_probabilities(self) -> np.ndarray:
        """P(Z0), P(Z1), P(XPlus), indexed by State value."""
        return np.array([self.p_z / 2.0, self.p_z / 2.0, 1.0 - self.p_z])


@dataclass(frozen=True, init=False)
class Symbol:
    """One emitted symbol: state, intensity class, global phase, position."""

    state: State
    intensity: IntensityClass
    phase: float
    burst_index: int = 0
    slot_index: int = 0

    def __init__(
        self,
        state: State,
        intensity: IntensityClass,
        phase: float,
        burst_index: int = 0,
        slot_index: int = 0,
    ) -> None:
        if not (0.0 <= phase < _TWO_PI):
            raise DomainError(f"phase must lie in [0, 2*pi), got {phase}")
        # stored in the instance dict: the generated frozen __init__ pays
        # an object.__setattr__ per field, on every slot of the
        # reference engine
        d = self.__dict__
        d["state"] = state
        d["intensity"] = intensity
        d["phase"] = phase
        d["burst_index"] = burst_index
        d["slot_index"] = slot_index


def sample_symbol(
    rng: np.random.Generator,
    params: ProtocolParams,
    burst_index: int = 0,
    slot_index: int = 0,
) -> Symbol:
    """Draw one symbol: state, intensity, and global phase are independent.

    The phase is drawn as Generator.uniform(0, 2*pi) computes it, low +
    (high - low) * random(), which is 2*pi * random() exactly: the same
    double from the same stream, at a third of the call's cost.
    """
    u = rng.random()
    if u < params.p_z / 2.0:
        state = _Z0
    elif u < params.p_z:
        state = _Z1
    else:
        state = _XPLUS
    intensity = _SIGNAL if rng.random() < params.p_mu1 else _DECOY
    return Symbol(state, intensity, _TWO_PI * rng.random(), burst_index, slot_index)


def tau_n(n: int, params: ProtocolParams) -> float:
    """Probability that a transmitted symbol contains exactly n photons.

    Poisson photon-number statistics averaged over the intensity choice:
    tau_n = sum_k p_k e^{-mu_k} mu_k^n / n!.
    """
    if n < 0:
        raise DomainError(f"photon number must be non-negative, got {n}")
    total = 0.0
    for p_k, mu_k in ((params.p_mu1, params.mu1), (params.p_mu2, params.mu2)):
        total += p_k * math.exp(-mu_k) * mu_k**n / math.factorial(n)
    return total


def binary_entropy(x):
    """Binary entropy h(x) in bits; h(0) = h(1) = 0. Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise DomainError("binary_entropy argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    a = arr[interior]
    out[interior] = -a * np.log2(a) - (1.0 - a) * np.log2(1.0 - a)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
