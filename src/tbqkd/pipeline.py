"""End-to-end simulation runners.

Two engines produce tallies for a scenario:

- run_simulation: the batch engine. Slots are drawn by class, clicks by
  the closed-form gate probabilities from slotmodel, and each clicking
  burst is attributed with the same race formulas the analytic oracle
  integrates. It requires a dead-time-safe schedule (inter-burst gap >=
  dead time, and dead time covering the rest of a burst after any
  click), which lets the first click per burst and detector stand in for
  the full dead-time cascade exactly.

- run_simulation_reference: the event-by-event twin built from the
  object-level ops (serialize, modulate, transmit, interfere, detect).
  It handles any schedule whose inter-burst gap covers the dead time,
  and with drift disabled also schedules without that guarantee, at the
  cost of a Python loop per slot. The batch engine is cross-checked
  against it statistically in the tests.

Both engines treat the servo lock as exact: each stabilization window
resets the phase walk to the current fringe block's lock point, and the
window's bursts are excluded from tallies and elapsed time. The servo
algorithm itself (link.stabilize) is validated separately.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .errors import ScheduleViolationError
from .keyrate import KeyRateReport, keyrate
from .link import detect_x, detect_z, receiver_basis, transmit
from .ppg import encode_state, serialize_word
from .protocol import Basis, State, Symbol, sample_symbol
from .sift import TALLY_KEYS, SiftResult, TallyCounts, sift
from .slotmodel import (
    CLASS_INTENSITY,
    CLASS_STATE,
    COL_NONE,
    LinkModel,
    burst_parity,
    build_link_model,
    fringe_block_bursts,
    outcome_probs,
    servo_excluded,
    servo_starts,
    static_outcome,
    x_none_terms,
)
from .source import modulate

CHUNK_BURSTS = 32768  # fixed: results must not depend on run partitioning

REFERENCE_MAX_SLOTS = 5_000_000


@dataclass(frozen=True)
class RunOutcome:
    """Tallies plus the bookkeeping an analysis or report needs."""

    tallies: TallyCounts
    sift_stats: SiftResult
    eligible_bursts: int
    total_bursts: int
    symbols_sent: int
    elapsed_s: float


def _burst_covering(scenario: ScenarioConfig) -> bool:
    """True when one click's dead time always blankets the rest of its
    burst, so at most one click per burst and detector survives."""
    params = scenario.params
    det = scenario.detector
    span = (params.symbols_per_burst - 1) * params.symbol_period + det.gate_width
    return det.dead_time >= span


def batch_engine_applicable(scenario: ScenarioConfig) -> bool:
    return scenario.schedule().dead_time_safe and _burst_covering(scenario)


def _theta_walk(
    scenario: ScenarioConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Drift walk per burst, reset to 0 at each stabilization window,
    yielded in CHUNK_BURSTS pieces. The normal draws and the running sum
    carried across pieces are those of one whole-run walk, so memory
    stays flat in duration while the realization does not change."""
    n = scenario.n_bursts
    sigma = scenario.interferometer.drift_sigma
    step = sigma * math.sqrt(scenario.plan.burst_period)
    resets = servo_starts(scenario)
    carry = 0.0
    for lo in range(0, n, CHUNK_BURSTS):
        hi = min(lo + CHUNK_BURSTS, n)
        if sigma == 0.0:
            yield np.zeros(hi - lo)
            continue
        steps = rng.normal(0.0, step, hi - lo)
        steps[0] += carry
        cuts = resets[(resets >= lo) & (resets < hi)] - lo
        steps[cuts] = 0.0
        walk = np.empty(hi - lo)
        for a, b in zip([0, *cuts], [*cuts, hi - lo]):
            walk[a:b] = np.cumsum(steps[a:b])
        carry = walk[-1]
        yield walk


def _attribute_bins(
    model: LinkModel,
    detector: Basis,
    cls: np.ndarray,
    cos_t: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Map attribution uniforms to bin columns (0..3) for clicking
    bursts, conditioned on a click having happened."""
    table = model.table(detector)
    probs = outcome_probs(table, cls, cos_t)
    q_any = 1.0 - probs[:, COL_NONE]
    cond = probs[:, :4] / np.maximum(q_any, 1e-300)[:, None]
    cum = np.cumsum(cond, axis=1)
    return np.minimum((u[:, None] > cum).sum(axis=1), 3)


@dataclass
class _Accumulator:
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TALLY_KEYS, 0)
    )
    sent: np.ndarray = field(default_factory=lambda: np.zeros((3, 2), np.int64))
    cross: int = 0
    outside: int = 0
    sideband: int = 0


def _tally_detector(
    acc: _Accumulator,
    detector: Basis,
    cls: np.ndarray,
    bins: np.ndarray,
    parity: np.ndarray,
) -> None:
    """Apply the sift mapping to attributed first clicks."""
    states = CLASS_STATE[cls]
    intens = CLASS_INTENSITY[cls]
    out_mask = bins == 3
    acc.outside += int(out_mask.sum())
    live = ~out_mask
    if detector == Basis.Z:
        z_sent = live & (states != int(State.XPlus))
        acc.cross += int((live & ~z_sent).sum())
        correct = np.where(states == int(State.Z0), 0, 2)
        for k in (0, 1):
            sel = z_sent & (intens == k)
            suffix = "mu1" if k == 0 else "mu2"
            acc.counts[f"n_z_{suffix}"] += int(sel.sum())
            acc.counts[f"m_z_{suffix}"] += int((sel & (bins != correct)).sum())
    else:
        x_sent = live & (states == int(State.XPlus))
        acc.cross += int((live & ~x_sent).sum())
        central = x_sent & (bins == 1)
        acc.sideband += int((x_sent & ~central).sum())
        for k in (0, 1):
            sel = central & (intens == k)
            suffix = "mu1" if k == 0 else "mu2"
            acc.counts[f"n_x_{suffix}"] += int(sel.sum())
            acc.counts[f"m_x_{suffix}"] += int((sel & (parity == 1)).sum())


def run_simulation(scenario: ScenarioConfig) -> RunOutcome:
    """Batch Monte Carlo over the full scenario duration.

    Deterministic for a given config and seed: the root RNG is split
    into one stream for the phase walk and one per fixed-size burst
    chunk, so the realization does not depend on how work is iterated.
    """
    if not batch_engine_applicable(scenario):
        raise ScheduleViolationError(
            "batch engine needs a dead-time-safe schedule (burst gap >= "
            "dead time >= in-burst span); use run_simulation_reference"
        )
    model = build_link_model(scenario)
    params = scenario.params
    slots = params.symbols_per_burst
    n_bursts = scenario.n_bursts
    block = fringe_block_bursts(scenario)

    root = np.random.default_rng(scenario.seed)
    n_chunks = (n_bursts + CHUNK_BURSTS - 1) // CHUNK_BURSTS
    theta_rng, *chunk_rngs = root.spawn(1 + n_chunks)
    walks = _theta_walk(scenario, theta_rng)

    cum_priors = np.cumsum(model.priors)
    cum_priors[-1] = 1.0
    qz_any = 1.0 - static_outcome(model.z_table)[:, COL_NONE]
    kx, eta_b = x_none_terms(model.x_table)

    acc = _Accumulator()
    eligible_total = 0
    # one buffer takes each chunk's three per-slot uniform draws in turn,
    # so that the allocator does not map and unmap them chunk by chunk
    u_buf = np.empty((min(CHUNK_BURSTS, n_bursts), slots))

    for chunk, (rng, walk) in enumerate(zip(chunk_rngs, walks)):
        lo = chunk * CHUNK_BURSTS
        hi = min(lo + CHUNK_BURSTS, n_bursts)
        idx = np.arange(lo, hi, dtype=np.int64)
        nb = idx.size
        eligible = ~servo_excluded(scenario, idx)
        parity = burst_parity(idx, block)
        cos_b = np.cos(math.pi * parity + walk)

        # fixed draw order per chunk: classes, Z dice, X dice, then
        # attribution uniforms for the bursts that clicked
        u = u_buf[:nb]
        cls = np.searchsorted(cum_priors, rng.random(out=u), side="right")
        clicked_z = rng.random(out=u) < qz_any[cls]
        # X-click probability per burst and class, then per slot
        q_x = 1.0 - kx * np.exp(-eta_b * cos_b[:, None])
        clicked_x = rng.random(out=u) < np.take_along_axis(q_x, cls, axis=1)

        eligible_total += int(eligible.sum())
        if eligible.any():
            sent_cls = np.bincount(cls[eligible].ravel(), minlength=12)
            acc.sent += sent_cls.reshape(3, 2, 2).sum(axis=2)

        for detector, clicked in ((Basis.Z, clicked_z), (Basis.X, clicked_x)):
            has = clicked.any(axis=1) & eligible
            if not has.any():
                continue
            rows = np.nonzero(has)[0]
            first = clicked[rows].argmax(axis=1)
            c_sel = cls[rows, first]
            u_att = rng.random(rows.size)
            bins = _attribute_bins(model, detector, c_sel, cos_b[rows], u_att)
            _tally_detector(acc, detector, c_sel, bins, parity[rows])

    symbols_sent = eligible_total * slots
    elapsed = symbols_sent * params.symbol_period
    tallies = TallyCounts(
        sent_counts=tuple(tuple(int(v) for v in row) for row in acc.sent),
        elapsed_s=elapsed,
        **acc.counts,
    )
    stats = SiftResult(
        tallies=tallies,
        discarded_cross_basis=acc.cross,
        discarded_outside=acc.outside,
        discarded_sideband=acc.sideband,
        discarded_stabilization=0,
    )
    return RunOutcome(
        tallies=tallies,
        sift_stats=stats,
        eligible_bursts=eligible_total,
        total_bursts=n_bursts,
        symbols_sent=symbols_sent,
        elapsed_s=elapsed,
    )


def run_simulation_reference(scenario: ScenarioConfig) -> RunOutcome:
    """Event-by-event run through the object-level operation chain.

    Exact with respect to dead time and within-gate timing, at Python
    speed; guarded by REFERENCE_MAX_SLOTS. When the inter-burst gap
    covers the dead time each burst is detected independently at its own
    interferometer phase; otherwise drift_sigma must be 0 and detection
    runs as one continuous stream at the configured phase (no fringe
    schedule), honoring dead time across burst boundaries exactly.
    """
    schedule = scenario.schedule()
    params = scenario.params
    n_bursts = scenario.n_bursts
    slots = params.symbols_per_burst
    if n_bursts * slots > REFERENCE_MAX_SLOTS:
        raise ScheduleViolationError(
            f"reference engine caps at {REFERENCE_MAX_SLOTS} slots; "
            "use run_simulation for larger runs"
        )
    per_burst = schedule.dead_time_safe
    ifm = scenario.interferometer
    if not per_burst and ifm.drift_sigma != 0.0:
        raise ScheduleViolationError(
            "schedules without dead-time-safe burst gaps are supported "
            "only with drift_sigma = 0"
        )

    root = np.random.default_rng(scenario.seed)
    theta_rng, sym_rng, det_rng_z, det_rng_x = root.spawn(4)
    walk = np.concatenate(list(_theta_walk(scenario, theta_rng)))
    idx_all = np.arange(n_bursts, dtype=np.int64)
    excluded_mask = servo_excluded(scenario, idx_all)
    block = fringe_block_bursts(scenario)
    parity_all = burst_parity(idx_all, block)
    channel = scenario.channel
    det = scenario.detector
    words = [
        encode_state(State(s), scenario.shift, scenario.gap_bits) for s in range(3)
    ]

    def make_slot(b: int, s: int) -> tuple[Symbol, list]:
        sym = sample_symbol(sym_rng, params, b, s)
        frag = serialize_word(
            words[int(sym.state)],
            scenario.clock,
            t0_ps=schedule.slot_start_ps(b, s),
            shift=scenario.shift,
            gap_bits=scenario.gap_bits,
            burst_index=b,
            slot_index=s,
        )
        return sym, transmit(modulate(sym, frag, params, scenario.source), channel)

    sent: list[Symbol] = []
    events = []
    if per_burst:
        for b in range(n_bursts):
            if excluded_mask[b]:
                continue
            theta_b = (math.pi * parity_all[b] + walk[b]) % (2.0 * math.pi)
            ifm_b = dataclasses.replace(ifm, theta=theta_b)
            z_pulses = []
            x_groups = []
            burst_slots = []
            for s in range(slots):
                sym, pulses = make_slot(b, s)
                sent.append(sym)
                burst_slots.append((b, s))
                if receiver_basis(sym_rng, scenario.p_z_receiver) == Basis.Z:
                    z_pulses.extend(pulses)
                else:
                    x_groups.append(pulses)
            events.extend(
                detect_z(z_pulses, det, schedule, det_rng_z,
                         scenario.shift, scenario.gap_bits, burst_slots)
            )
            events.extend(
                detect_x(x_groups, ifm_b, det, schedule, det_rng_x,
                         scenario.shift, scenario.gap_bits, burst_slots)
            )
    else:
        z_pulses = []
        x_groups = []
        all_slots = []
        for b in range(n_bursts):
            if excluded_mask[b]:
                continue
            for s in range(slots):
                sym, pulses = make_slot(b, s)
                sent.append(sym)
                all_slots.append((b, s))
                if receiver_basis(sym_rng, scenario.p_z_receiver) == Basis.Z:
                    z_pulses.extend(pulses)
                else:
                    x_groups.append(pulses)
        events.extend(
            detect_z(z_pulses, det, schedule, det_rng_z,
                     scenario.shift, scenario.gap_bits, all_slots)
        )
        events.extend(
            detect_x(x_groups, ifm, det, schedule, det_rng_x,
                     scenario.shift, scenario.gap_bits, all_slots)
        )

    events.sort(key=lambda e: (e.burst_index, e.slot_index, e.timestamp_ps))
    result = sift(
        events,
        sent,
        schedule,
        fringe_block_bursts=block,
        excluded_bursts={int(i) for i in idx_all[excluded_mask]},
    )
    eligible_total = int((~excluded_mask).sum())
    symbols_sent = eligible_total * slots
    return RunOutcome(
        tallies=result.tallies,
        sift_stats=result,
        eligible_bursts=eligible_total,
        total_bursts=n_bursts,
        symbols_sent=symbols_sent,
        elapsed_s=result.tallies.elapsed_s,
    )


def simulate_and_analyze(
    scenario: ScenarioConfig, engine: str = "batch"
) -> tuple[RunOutcome, KeyRateReport]:
    """Run the scenario and push the tallies through the key analysis."""
    if engine == "batch":
        outcome = run_simulation(scenario)
    elif engine == "reference":
        outcome = run_simulation_reference(scenario)
    else:
        raise ValueError(f"unknown engine '{engine}'")
    report = keyrate(
        outcome.tallies,
        scenario.params,
        scenario.security,
        symbols_sent=outcome.symbols_sent,
    )
    return outcome, report
