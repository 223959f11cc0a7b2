"""End-to-end simulation runners.

Two engines produce tallies for a scenario:

- run_simulation: the batch engine. Each chunk of bursts takes three
  uniforms per slot (class, Z die, X die); a slot's detector clicks when
  its die falls below the closed-form click probability of its class
  (slotmodel), and each burst's first click per detector is attributed
  to a bin with the same race formulas the analytic oracle integrates.
  Clicks are rare, so the class of a slot is looked up only where its
  die falls below the largest click probability of any class at any
  phase (a candidate); the sent ledger comes from counting class
  uniforms against the cumulative priors at the (state, intensity) cell
  edges. Classes, clicks and tallies are those of evaluating every slot,
  from the same RNG stream.

- run_simulation_reference: the event-by-event twin built from the
  object-level ops (serialize, modulate, transmit, interfere, detect),
  at the cost of a Python loop per slot. The batch engine is
  cross-checked against it statistically in the tests.

Every scenario that loads has a dead time that blankets the rest of a
burst after any click but ends before the next burst (ScenarioConfig
refuses any other). So the first click per burst and detector stands in
for the full dead-time cascade exactly in the batch engine and the
oracle, and the reference engine detects each burst on its own.

Both engines treat the servo lock as exact: each stabilization window
resets the phase walk to the current fringe block's lock point, and the
window's bursts are excluded from tallies and elapsed time. The servo
algorithm itself (link.stabilize) is validated separately.

Each RunOutcome carries the measured seconds of the run's stages in
`timings`, which takes no part in equality.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .errors import ScheduleViolationError
from .keyrate import KeyRateReport, keyrate
from .link import detect_x, detect_z, receiver_basis, transmit
from .ppg import encode_state, serialize_word
from .protocol import Basis, State, Symbol, sample_symbol
from .sift import TALLY_KEYS, SIDEBAND, SiftResult, TallyCounts, count_clicks, sift
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

_LEDGER_SHAPE = (3, 2)  # sent slots per (state, intensity)


@dataclass(frozen=True)
class RunOutcome:
    """Tallies plus the bookkeeping an analysis or report needs."""

    tallies: TallyCounts
    sift_stats: SiftResult
    eligible_bursts: int
    total_bursts: int
    symbols_sent: int
    elapsed_s: float
    # measured seconds per stage of the run, keyed "<stage>_s"
    timings: dict[str, float] = field(default_factory=dict, compare=False)


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
    """Tally-key counts, clicks per sift_rule reason, and the sent ledger."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros(len(TALLY_KEYS), np.int64)
    )
    discards: np.ndarray = field(
        default_factory=lambda: np.zeros(SIDEBAND + 1, np.int64)
    )
    sent: np.ndarray = field(
        default_factory=lambda: np.zeros(_LEDGER_SHAPE, np.int64)
    )


def _tally_detector(
    acc: _Accumulator,
    detector: Basis,
    cls: np.ndarray,
    bins: np.ndarray,
    parity: np.ndarray,
) -> None:
    """Count attributed first clicks through the sift rule."""
    counts, discards = count_clicks(
        CLASS_STATE[cls], CLASS_INTENSITY[cls], detector, bins, parity
    )
    acc.counts += counts
    acc.discards += discards


def _cell_starts(class_state: np.ndarray, class_intensity: np.ndarray) -> np.ndarray:
    """First class of each (state, intensity) ledger cell but the first.

    A slot's class is the number of cumulative priors at or below its
    uniform, so the slots of cells j and up are the uniforms at or above
    the cumulative prior of the class just before cell j's first class.
    That holds only if each cell is one run of consecutive classes and
    the runs come in ledger order (state, then intensity); any other
    class order raises here instead of mis-counting the ledger.
    """
    n_states, n_int = _LEDGER_SHAPE
    cell = np.asarray(class_state) * n_int + np.asarray(class_intensity)
    step = np.diff(cell)
    in_order = (cell[0] == 0) & (cell[-1] == n_states * n_int - 1)
    if not in_order or ((step != 0) & (step != 1)).any():
        raise ValueError(
            "slot classes must run through the (state, intensity) ledger "
            "cells in order, each cell in consecutive classes"
        )
    return np.flatnonzero(step) + 1


_CELL_STARTS = _cell_starts(CLASS_STATE, CLASS_INTENSITY)


def _ledger_cells(u: np.ndarray, edges: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Slots per (state, intensity) cell, _LEDGER_SHAPE, of the class
    uniforms u: cell j and up hold the uniforms at or above edges[j-1].
    hits is a scratch boolean array of u's shape."""
    at_least = [u.size]
    at_least += [np.count_nonzero(np.greater_equal(u, e, out=hits)) for e in edges]
    at_least.append(0)
    return -np.diff(at_least).reshape(_LEDGER_SHAPE)


def _x_click_prob(
    kx: np.ndarray, eta_b: np.ndarray, cls: np.ndarray, cos_t: np.ndarray
) -> np.ndarray:
    """Per-slot X-detector click probability of class cls at phase cos_t."""
    return 1.0 - kx[cls] * np.exp(-eta_b[cls] * cos_t)


def _click_bounds(
    qz_any: np.ndarray, kx: np.ndarray, eta_b: np.ndarray
) -> tuple[float, float]:
    """Upper bounds on every class's per-slot click probability, Z and X.

    The X bound holds at every phase, since exp(-etaB cos) >= exp(-|etaB|)
    for cos in [-1, 1]; it is widened by a few ulps of 1 for the rounding
    of _x_click_prob. A die at or above a bound cannot click whatever
    its slot's class.
    """
    z_bound = float(qz_any.max())
    x_bound = float(1.0 - (kx * np.exp(-np.abs(eta_b))).min())
    return z_bound, x_bound + 8 * np.finfo(float).eps


def _candidates(
    dice: np.ndarray,
    bound: float,
    u_cls: np.ndarray,
    cum_priors: np.ndarray,
    hits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat slot index, die and class of each slot whose die falls below
    bound; the class comes from the slot's class uniform."""
    cand = np.flatnonzero(np.less(dice, bound, out=hits))
    cls = np.searchsorted(cum_priors, u_cls.reshape(-1)[cand], side="right")
    return cand, dice.reshape(-1)[cand], cls


def _first_clicks(
    slot: np.ndarray, cls: np.ndarray, slots: int, eligible: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Burst and class of the first click of each eligible burst, from
    the flat indices of clicking slots in increasing order."""
    burst = slot // slots
    first = np.empty(burst.size, dtype=bool)
    first[:1] = True
    np.not_equal(burst[1:], burst[:-1], out=first[1:])
    first &= eligible[burst]
    return burst[first], cls[first]


def _run_outcome(
    scenario: ScenarioConfig,
    acc: _Accumulator,
    eligible_total: int,
    timings: dict[str, float],
) -> RunOutcome:
    symbols_sent = eligible_total * scenario.params.symbols_per_burst
    elapsed = symbols_sent * scenario.params.symbol_period
    stats = SiftResult.from_counts(acc.counts, acc.discards, acc.sent, elapsed)
    return RunOutcome(
        tallies=stats.tallies,
        sift_stats=stats,
        eligible_bursts=eligible_total,
        total_bursts=scenario.n_bursts,
        symbols_sent=symbols_sent,
        elapsed_s=elapsed,
        timings=timings,
    )


def run_simulation(scenario: ScenarioConfig) -> RunOutcome:
    """Batch Monte Carlo over the full scenario duration.

    Deterministic for a given config and seed: the root RNG is split
    into one stream for the phase walk and one per fixed-size burst
    chunk, so the realization does not depend on how work is iterated.
    Each chunk draws, in this order, the class, Z and X uniforms of all
    its slots and then the attribution uniforms of the bursts whose Z,
    then X, detector clicked. Only candidate slots, whose die falls
    below the bound of _click_bounds, get a class and the exact test
    `die < click probability of the class`; every other slot cannot
    click. The stream and every tally are therefore those of evaluating
    the class and the click test of every slot.

    timings holds the seconds spent building the link model, walking
    the phase, filling uniforms, evaluating candidates (with the
    per-burst phase and eligibility), and attributing and tallying
    clicks and the sent ledger.
    """
    clock = time.perf_counter
    timings = dict.fromkeys(
        ("link_model_s", "drift_walk_s", "uniform_fills_s", "candidates_s",
         "attribution_tally_s"),
        0.0,
    )
    t0 = clock()
    model = build_link_model(scenario)
    timings["link_model_s"] = clock() - t0
    slots = scenario.params.symbols_per_burst
    n_bursts = scenario.n_bursts
    block = fringe_block_bursts(scenario)

    root = np.random.default_rng(scenario.seed)
    n_chunks = (n_bursts + CHUNK_BURSTS - 1) // CHUNK_BURSTS
    theta_rng, *chunk_rngs = root.spawn(1 + n_chunks)
    walks = _theta_walk(scenario, theta_rng)

    cum_priors = np.cumsum(model.priors)
    cum_priors[-1] = 1.0
    cell_edges = cum_priors[_CELL_STARTS - 1]
    qz_any = 1.0 - static_outcome(model.z_table)[:, COL_NONE]
    kx, eta_b = x_none_terms(model.x_table)
    z_bound, x_bound = _click_bounds(qz_any, kx, eta_b)

    acc = _Accumulator()
    eligible_total = 0
    # buffers reused by every chunk, so that the allocator does not map
    # and unmap them chunk by chunk
    shape = (min(CHUNK_BURSTS, n_bursts), slots)
    u_cls_buf = np.empty(shape)
    dice_buf = np.empty(shape)
    hits_buf = np.empty(shape, dtype=bool)

    for chunk, rng in enumerate(chunk_rngs):
        t0 = clock()
        walk = next(walks)
        t1 = clock()
        lo = chunk * CHUNK_BURSTS
        idx = np.arange(lo, lo + walk.size, dtype=np.int64)
        nb = idx.size
        eligible = ~servo_excluded(scenario, idx)
        parity = burst_parity(idx, block)
        cos_b = np.cos(math.pi * parity + walk)
        u_cls, dice, hits = u_cls_buf[:nb], dice_buf[:nb], hits_buf[:nb]
        t2 = clock()
        rng.random(out=u_cls)
        rng.random(out=dice)
        t3 = clock()
        slot, u, cls = _candidates(dice, z_bound, u_cls, cum_priors, hits)
        click = u < qz_any[cls]
        z_first = _first_clicks(slot[click], cls[click], slots, eligible)
        t4 = clock()
        rng.random(out=dice)
        t5 = clock()
        slot, u, cls = _candidates(dice, x_bound, u_cls, cum_priors, hits)
        click = u < _x_click_prob(kx, eta_b, cls, cos_b[slot // slots])
        x_first = _first_clicks(slot[click], cls[click], slots, eligible)
        t6 = clock()

        n_eligible = int(eligible.sum())
        eligible_total += n_eligible
        if n_eligible == nb:
            acc.sent += _ledger_cells(u_cls, cell_edges, hits)
        elif n_eligible:
            acc.sent += _ledger_cells(
                u_cls[eligible], cell_edges, hits[:n_eligible]
            )
        for detector, (rows, c_sel) in ((Basis.Z, z_first), (Basis.X, x_first)):
            if rows.size == 0:
                continue
            u_att = rng.random(rows.size)
            bins = _attribute_bins(model, detector, c_sel, cos_b[rows], u_att)
            _tally_detector(acc, detector, c_sel, bins, parity[rows])
        t7 = clock()
        timings["drift_walk_s"] += t1 - t0
        timings["uniform_fills_s"] += (t3 - t2) + (t5 - t4)
        timings["candidates_s"] += (t2 - t1) + (t4 - t3) + (t6 - t5)
        timings["attribution_tally_s"] += t7 - t6

    return _run_outcome(scenario, acc, eligible_total, timings)


def run_simulation_reference(scenario: ScenarioConfig) -> RunOutcome:
    """Event-by-event run through the object-level operation chain.

    Exact with respect to dead time and within-gate timing, at Python
    speed; guarded by REFERENCE_MAX_SLOTS. Each burst is detected on its
    own at its own interferometer phase, which the scenario's burst
    timing makes exact: a click's dead time never reaches the next
    burst. timings holds the seconds of the phase walk, the per-slot
    event chain (symbols through detection) and the sift.
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

    clock = time.perf_counter
    t0 = clock()
    root = np.random.default_rng(scenario.seed)
    theta_rng, sym_rng, det_rng_z, det_rng_x = root.spawn(4)
    walk = np.concatenate(list(_theta_walk(scenario, theta_rng)))
    t1 = clock()
    idx_all = np.arange(n_bursts, dtype=np.int64)
    excluded_mask = servo_excluded(scenario, idx_all)
    block = fringe_block_bursts(scenario)
    parity_all = burst_parity(idx_all, block)
    channel = scenario.channel
    det = scenario.detector
    ifm = scenario.interferometer
    framing = scenario.framing
    words = [encode_state(state, framing) for state in State]

    sent: list[Symbol] = []
    events = []
    for b in np.flatnonzero(~excluded_mask).tolist():
        z_pulses = []
        x_groups = []
        for s in range(slots):
            sym = sample_symbol(sym_rng, params, b, s)
            frag = serialize_word(
                words[sym.state], framing, schedule.slot_start_ps(b, s), b, s
            )
            pulses = transmit(
                modulate(sym, frag, params, scenario.source, framing), channel
            )
            sent.append(sym)
            if receiver_basis(sym_rng, scenario.p_z_receiver) == Basis.Z:
                z_pulses.extend(pulses)
            else:
                x_groups.append(pulses)
        gated = [(b, s) for s in range(slots)]
        theta_b = (math.pi * parity_all[b] + walk[b]) % (2.0 * math.pi)
        ifm_b = dataclasses.replace(ifm, theta=theta_b)
        events.extend(detect_z(z_pulses, det, schedule, det_rng_z, framing, gated))
        events.extend(
            detect_x(x_groups, ifm_b, det, schedule, det_rng_x, framing, gated)
        )

    t2 = clock()
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
    timings = {
        "drift_walk_s": t1 - t0,
        "event_chain_s": t2 - t1,
        "sift_s": clock() - t2,
    }
    return RunOutcome(
        tallies=result.tallies,
        sift_stats=result,
        eligible_bursts=eligible_total,
        total_bursts=n_bursts,
        symbols_sent=symbols_sent,
        elapsed_s=result.tallies.elapsed_s,
        timings=timings,
    )


def simulate_and_analyze(
    scenario: ScenarioConfig, engine: str = "batch"
) -> tuple[RunOutcome, KeyRateReport]:
    """Run the scenario and push the tallies through the key analysis,
    whose seconds join the outcome's timings as key_analysis_s."""
    if engine == "batch":
        outcome = run_simulation(scenario)
    elif engine == "reference":
        outcome = run_simulation_reference(scenario)
    else:
        raise ValueError(f"unknown engine '{engine}'")
    t0 = time.perf_counter()
    report = keyrate(
        outcome.tallies,
        scenario.params,
        scenario.security,
        symbols_sent=outcome.symbols_sent,
    )
    outcome.timings["key_analysis_s"] = time.perf_counter() - t0
    return outcome, report
