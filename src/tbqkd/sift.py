"""Event-to-symbol matching, sifted tallies, and QBER estimation.

Counting rules: a Z-basis click on a Z-sent symbol is sifted into n_z
(an error when the bin disagrees with the sent bit); an X-basis
central-bin click on an XPlus-sent symbol is sifted into n_x, and counts
as an error when it falls in a fringe-minimum measurement block.
Cross-basis clicks, out-of-window clicks and X-path side bins are
discarded, each into its own counter, so every event is accounted for
exactly once. Stabilization windows are never simulated, so no engine
has a click to discard for them.

sift_rule states these rules once, elementwise over arrays of clicks;
the reference engine's sift, the batch engine's tally and the oracle's
expected tallies all count through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyTallyError, UnmatchedEventError
from .link import DetectionEvent
from .protocol import Basis, Bin, IntensityClass, State, Symbol

# the n_* key of detector basis b and intensity k sits at index 4*b + k,
# its error subset m_* two places further on
TALLY_KEYS = (
    "n_z_mu1",
    "n_z_mu2",
    "m_z_mu1",
    "m_z_mu2",
    "n_x_mu1",
    "n_x_mu2",
    "m_x_mu1",
    "m_x_mu2",
)
# (n, m) index pairs of TALLY_KEYS, one per basis and intensity
TALLY_PAIRS = tuple((4 * b + k, 4 * b + k + 2) for b in range(2) for k in range(2))

_ZERO_SENT = ((0, 0), (0, 0), (0, 0))

# what sift_rule makes of a click: SIFTED into a tally key, or a reason
# to discard it
SIFTED, CROSS_BASIS, OUTSIDE, SIDEBAND = range(4)
# length of a count_clicks row: counts per TALLY_KEYS, then per reason
COUNT_ROW = len(TALLY_KEYS) + SIDEBAND + 1


def burst_parity(burst_idx: np.ndarray, block_bursts: int) -> np.ndarray:
    """0 = fringe maximum block (lock 0), 1 = fringe minimum (lock pi)."""
    return (np.asarray(burst_idx, dtype=np.int64) // block_bursts) % 2


def sift_rule(state, intensity, detector, bin_, parity):
    """The counting rules of this module, elementwise over clicks.

    state, intensity, detector and bin_ take State, IntensityClass,
    Basis and Bin values; parity is the fringe parity of the click's
    burst (1 in a fringe-minimum block). Returns arrays (key, error,
    reason): the TALLY_KEYS index of the n_* counter a sifted click
    counts into (-1 if discarded), whether it also counts into the
    matching m_* counter at index key + 2, and SIFTED or the reason the
    click is discarded.
    """
    state, intensity, detector, bin_, parity = np.broadcast_arrays(
        state, intensity, detector, bin_, parity
    )
    x_path = detector == Basis.X
    reason = np.select(
        [
            bin_ == Bin.OUTSIDE,
            x_path != (state == State.XPlus),
            x_path & (bin_ != Bin.CENTRAL),
        ],
        [OUTSIDE, CROSS_BASIS, SIDEBAND],
        SIFTED,
    )
    sifted = reason == SIFTED
    key = np.where(sifted, 4 * x_path + intensity, -1)
    z_wrong = bin_ != np.where(state == State.Z0, Bin.EARLY, Bin.LATE)
    error = sifted & np.where(x_path, parity == 1, z_wrong)
    return key, error, reason


# what sift_rule makes of every (state, intensity, detector, bin, parity)
# combination: one row per combination, counts per tally key followed by
# one per reason
_COMBO_SHAPE = (len(State), len(IntensityClass), len(Basis), len(Bin), 2)


def _rule_table() -> np.ndarray:
    key, error, reason = sift_rule(*np.indices(_COMBO_SHAPE).reshape(5, -1))
    table = np.zeros((key.size, COUNT_ROW), dtype=np.int64)
    rows = np.arange(key.size)
    table[rows[key >= 0], key[key >= 0]] = 1
    table[rows[error], key[error] + 2] = 1
    table[rows, len(TALLY_KEYS) + reason] = 1
    return table


_RULE_TABLE = _rule_table()


def count_rows(state, intensity, detector) -> np.ndarray:
    """The count_clicks row of a click of each (state, intensity,
    detector), which broadcast to a shape s, per bin and fringe parity:
    shape (*s, len(Bin), 2, COUNT_ROW)."""
    return _RULE_TABLE.reshape(*_COMBO_SHAPE, -1)[state, intensity, detector]


def count_clicks(state, intensity, detector, bin_, parity):
    """One row of counts for an array of clicks: per TALLY_KEYS, then
    clicks per sift_rule reason."""
    combo = np.ravel_multi_index(
        (state, intensity, detector, bin_, parity), _COMBO_SHAPE
    )
    return np.bincount(combo.ravel(), minlength=len(_RULE_TABLE)) @ _RULE_TABLE


@dataclass(frozen=True)
class TallyCounts:
    """Sifted counts and errors per basis and intensity.

    n_* are sifted detections, m_* the error subset (for X: clicks in
    fringe-minimum blocks). sent_counts[state][intensity] records what
    was emitted; elapsed_s is source-active protocol time.
    """

    n_z_mu1: int = 0
    n_z_mu2: int = 0
    m_z_mu1: int = 0
    m_z_mu2: int = 0
    n_x_mu1: int = 0
    n_x_mu2: int = 0
    m_x_mu1: int = 0
    m_x_mu2: int = 0
    sent_counts: tuple[tuple[int, int], ...] = _ZERO_SENT
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        for i, j in TALLY_PAIRS:
            n_key, m_key = TALLY_KEYS[i], TALLY_KEYS[j]
            n, m = getattr(self, n_key), getattr(self, m_key)
            if m < 0:
                raise DomainError(f"need 0 <= {m_key}, got {m_key} = {m}")
            if m > n:
                raise DomainError(
                    f"need {m_key} <= {n_key}, got {m_key} = {m} > {n_key} = {n}"
                )
        if len(self.sent_counts) != 3 or any(len(r) != 2 for r in self.sent_counts):
            raise DomainError("sent_counts must be 3 states x 2 intensities")
        if any(v < 0 for row in self.sent_counts for v in row):
            raise DomainError("sent_counts must be non-negative")
        if self.elapsed_s < 0.0:
            raise DomainError(f"elapsed_s must be >= 0, got {self.elapsed_s}")

    @property
    def n_z(self) -> int:
        return self.n_z_mu1 + self.n_z_mu2

    @property
    def m_z(self) -> int:
        return self.m_z_mu1 + self.m_z_mu2

    @property
    def n_x(self) -> int:
        return self.n_x_mu1 + self.n_x_mu2

    @property
    def m_x(self) -> int:
        return self.m_x_mu1 + self.m_x_mu2

    @property
    def symbols_sent(self) -> int:
        return sum(v for row in self.sent_counts for v in row)


@dataclass(frozen=True)
class SiftResult:
    """Tallies plus the discard ledger; sifting loses no events. No
    engine simulates a stabilization window, so discarded_stabilization
    is 0 in each; the field keeps the ledger's report format."""

    tallies: TallyCounts
    discarded_cross_basis: int = 0
    discarded_outside: int = 0
    discarded_sideband: int = 0
    discarded_stabilization: int = 0

    @classmethod
    def from_counts(
        cls,
        totals: Sequence[int],
        sent_counts: Sequence[Sequence[int]],
        elapsed_s: float,
    ) -> "SiftResult":
        """Result of a count_clicks row, and the sent ledger."""
        reasons = totals[len(TALLY_KEYS):]
        tallies = TallyCounts(
            sent_counts=tuple(tuple(int(v) for v in row) for row in sent_counts),
            elapsed_s=elapsed_s,
            **{k: int(v) for k, v in zip(TALLY_KEYS, totals)},
        )
        return cls(
            tallies=tallies,
            discarded_cross_basis=int(reasons[CROSS_BASIS]),
            discarded_outside=int(reasons[OUTSIDE]),
            discarded_sideband=int(reasons[SIDEBAND]),
        )


def sift(
    events: Sequence[DetectionEvent],
    sent: Sequence[Symbol],
    symbol_period: float,
    fringe_block_bursts: int,
) -> SiftResult:
    """Match events to sent symbols and tally them.

    fringe_block_bursts sets the alternating fringe-parity block length
    (odd blocks are the fringe-minimum probe). elapsed_s is the sent
    symbols times symbol_period, in seconds.
    """
    by_slot: dict[tuple[int, int], Symbol] = {}
    sent_counts = [[0, 0], [0, 0], [0, 0]]
    for sym in sent:
        key = (sym.burst_index, sym.slot_index)
        if key in by_slot:
            raise DomainError(f"duplicate sent record for burst/slot {key}")
        by_slot[key] = sym
        sent_counts[sym.state][sym.intensity] += 1

    clicks = []
    for ev in events:
        key = (ev.burst_index, ev.slot_index)
        sym = by_slot.get(key)
        if sym is None:
            raise UnmatchedEventError(f"no sent record for burst/slot {key}")
        clicks.append((sym.state, sym.intensity, ev.basis, ev.bin, ev.burst_index))
    state, intensity, detector, bins, burst = (
        np.array(clicks, dtype=np.int64).reshape(-1, 5).T
    )
    parity = burst_parity(burst, fringe_block_bursts)
    return SiftResult.from_counts(
        count_clicks(state, intensity, detector, bins, parity),
        sent_counts,
        len(sent) * symbol_period,
    )


def qber_z(t: TallyCounts) -> float:
    """Z-basis error rate, m_z / n_z."""
    if t.n_z == 0:
        raise EmptyTallyError("no sifted Z detections")
    return t.m_z / t.n_z


def qber_x(t: TallyCounts) -> float:
    """X-basis error rate, m_x / n_x: the share of check-basis clicks in
    fringe-minimum blocks, (1 - V_eff)/2 for an ideal fringe."""
    if t.n_x == 0:
        raise EmptyTallyError("no X-basis counts")
    return t.m_x / t.n_x
