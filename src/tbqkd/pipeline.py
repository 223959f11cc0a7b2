"""End-to-end simulation runners.

Two engines produce tallies for a scenario:

- run_simulation: the batch engine. Each chunk of bursts takes three
  uniforms per slot (class, Z die, X die); a slot's detector clicks when
  its die falls below the closed-form click probability of its class
  (slotmodel), and each burst's first click per detector is attributed
  to a bin with the same race formulas the analytic oracle integrates:
  from one row per class on the direct path, which has no phase term,
  and from outcome_probs at the burst's phase on the interferometer.
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

Both engines treat the servo lock as exact: the phase walk resets to
the current fringe block's lock point at each servo start
(slotmodel.servo_starts), the one lock schedule from which the oracle
also counts its drift time, and the bursts of each stabilization window
are excluded from tallies and elapsed time. The servo algorithm itself
(link.stabilize) is validated separately.

Each RunOutcome carries the measured seconds of the run's stages in
`timings`, which takes no part in equality.
"""

from __future__ import annotations

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
    COL_OUTSIDE,
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
# slots per block of uniforms, which stays in cache between its draw and
# its comparisons
BLOCK_SLOTS = 1 << 15

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
    step = sigma * math.sqrt(scenario.params.burst_period)
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


def _click_cum(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution over the early, central and late columns
    of where a click lands, (3, n), from outcome distributions (5, n).
    The sums never decrease, so a click whose attribution uniform
    exceeds all three lands outside, and the fourth sum is not needed."""
    cum = probs[:COL_OUTSIDE] / np.maximum(1.0 - probs[COL_NONE], 1e-300)
    for k in (1, 2):
        cum[k] += cum[k - 1]
    return cum


def _bins(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bin column (0..3) of each click from its attribution uniform and
    the _click_cum column of its slot."""
    return (u > cum).sum(axis=0)


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


def _count_at_least(u: np.ndarray, edges: np.ndarray, hits: np.ndarray) -> list[int]:
    """Number of the class uniforms u at or above each cell edge; hits is
    a scratch boolean array of u's shape."""
    return [np.count_nonzero(np.greater_equal(u, e, out=hits)) for e in edges]


def _ledger_cells(n: int, at_least: np.ndarray) -> np.ndarray:
    """Slots per (state, intensity) cell, _LEDGER_SHAPE, of n class
    uniforms of which at_least[j] lie at or above cell edge j: cell j
    and up hold the uniforms at or above edge j - 1."""
    return -np.diff([n, *at_least, 0]).reshape(_LEDGER_SHAPE)


def _x_click_prob(
    kx: np.ndarray, eta_b: np.ndarray, cls: np.ndarray, cos_t: np.ndarray
) -> np.ndarray:
    """Per-slot X-detector click probability of class cls at phase cos_t."""
    return 1.0 - kx[cls] * np.exp(-eta_b[cls] * cos_t)


def _click_bounds(
    qz_any: np.ndarray, kx: np.ndarray, eta_b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Upper bounds on the per-slot click probability: one for every
    class on the Z detector, and one per class on the X detector.

    The X bounds hold at every phase, since exp(-etaB cos) >= exp(-|etaB|)
    for cos in [-1, 1]; they are widened by a few ulps of 1 for the
    rounding of _x_click_prob. A die at or above a bound cannot click
    (on X, in a slot of that class).
    """
    z_bound = float(qz_any.max())
    x_bounds = 1.0 - kx * np.exp(-np.abs(eta_b)) + 8 * np.finfo(float).eps
    return z_bound, x_bounds


def _classes(u: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Slot class of each class uniform u: the number of cumulative
    priors at or below it, edges being all of them but the last (1.0,
    which no uniform reaches). For eleven edges, counting them is much
    faster than a binary search per slot."""
    below = np.greater_equal(u, edges[:, None]).view(np.uint8)
    return below.sum(axis=0, dtype=np.uint8)


def _candidates(
    rng: np.random.Generator,
    dice: np.ndarray,
    hits: np.ndarray,
    rows: int,
    bound: float,
    timings: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Flat slot index and die of each slot, of `rows` bursts of dice,
    whose die falls below bound. The dice are drawn block by block into
    the reused block buffer dice, consecutive draws being the stream of
    one draw of every row; hits is its boolean scratch."""
    clock = time.perf_counter
    block_rows, slots = dice.shape
    found_slot, found_die = [], []
    for a in range(0, rows, block_rows):
        t0 = clock()
        d = dice[: min(block_rows, rows - a)]
        rng.random(out=d)
        t1 = clock()
        cand = np.flatnonzero(np.less(d, bound, out=hits[: len(d)]))
        found_slot.append(cand + a * slots)
        found_die.append(d.reshape(-1)[cand])
        timings["uniform_fills_s"] += t1 - t0
        timings["candidates_s"] += clock() - t1
    return np.concatenate(found_slot), np.concatenate(found_die)


def _first_clicks(burst: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Positions of the first click of each eligible burst, from the
    bursts of clicking slots in increasing slot order; excluded holds the
    servo-excluded bursts."""
    first = np.empty(burst.size, dtype=bool)
    first[:1] = True
    np.not_equal(burst[1:], burst[:-1], out=first[1:])
    if excluded.size:
        first &= ~np.isin(burst, excluded)
    return np.flatnonzero(first)


def _servo_rows(
    scenario: ScenarioConfig, starts: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Bursts of [lo, hi) that stabilization windows exclude, counted
    from lo, given the run's servo_starts; servo_excluded is evaluated
    only over the windows that reach into the range."""
    near = starts[(starts < hi) & (starts + scenario.servo_bursts_per_event > lo)]
    if near.size == 0:
        return near
    span = np.arange(
        max(lo, near[0]), min(hi, near[-1] + scenario.servo_bursts_per_event)
    )
    return span[servo_excluded(scenario, span)] - lo


def _run_outcome(
    scenario: ScenarioConfig,
    stats: SiftResult,
    eligible_total: int,
    timings: dict[str, float],
) -> RunOutcome:
    """Outcome of a run whose eligible_total bursts sifted into stats."""
    return RunOutcome(
        tallies=stats.tallies,
        sift_stats=stats,
        eligible_bursts=eligible_total,
        total_bursts=scenario.n_bursts,
        symbols_sent=eligible_total * scenario.params.symbols_per_burst,
        elapsed_s=stats.tallies.elapsed_s,
        timings=timings,
    )


def run_simulation(scenario: ScenarioConfig) -> RunOutcome:
    """Batch Monte Carlo over the full scenario duration.

    Deterministic for a given config and seed: the root RNG is split
    into one stream for the phase walk and one per fixed-size burst
    chunk, so the realization does not depend on how work is iterated.
    Each chunk draws, in this order, the class, Z and X uniforms of all
    its slots and then the attribution uniforms of the bursts whose Z,
    then X, detector clicked. Uniforms are drawn in blocks of about
    BLOCK_SLOTS slots, in whole bursts, which continue one stream: the
    sent ledger is counted on each block of class uniforms while it is
    in cache, and the dice pass through one reused block buffer. Only
    candidate slots, whose die falls below the bound of _click_bounds,
    get a class and the exact test `die < click probability of the
    class`; every other slot cannot click. The phase, fringe parity and
    servo eligibility of a burst are evaluated only where a candidate or
    a first click needs them, and on the X detector only for candidates
    below the bound of their own class. The stream and every tally are
    therefore those of evaluating the class and the click test of every
    slot.

    timings holds the seconds spent building the link model, walking
    the phase, filling uniforms, evaluating candidates and first clicks,
    attributing first clicks to bins and tallying them, and counting the
    sent ledger.
    """
    clock = time.perf_counter
    timings = dict.fromkeys(
        ("link_model_s", "drift_walk_s", "uniform_fills_s", "candidates_s",
         "attribution_s", "ledger_s"),
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
    starts = servo_starts(scenario)

    class_edges = np.cumsum(model.priors)[:-1]
    cell_edges = class_edges[_CELL_STARTS - 1]
    static_z = static_outcome(model.z_table)
    qz_any = 1.0 - static_z[:, COL_NONE]
    # the direct path has no phase term: one row per class serves every
    # Z click
    z_cum = _click_cum(static_z.T)
    kx, eta_b = x_none_terms(model.x_table)
    z_bound, x_bounds = _click_bounds(qz_any, kx, eta_b)
    x_bound = float(x_bounds.max())

    acc = _Accumulator()
    eligible_total = 0
    # eligible slots whose class uniform lies at or above each cell edge
    at_least = np.zeros(len(cell_edges), np.int64)
    # buffers reused by every chunk, so that the allocator does not map
    # and unmap them chunk by chunk: the class uniforms of a chunk, and
    # one block of dice
    block_rows = max(1, BLOCK_SLOTS // slots)
    u_cls_buf = np.empty((min(CHUNK_BURSTS, n_bursts), slots))
    dice = np.empty((min(block_rows, n_bursts), slots))
    hits = np.empty(dice.shape, dtype=bool)

    for chunk, rng in enumerate(chunk_rngs):
        t0 = clock()
        walk = next(walks)
        timings["drift_walk_s"] += clock() - t0
        lo = chunk * CHUNK_BURSTS
        nb = walk.size
        u_cls = u_cls_buf[:nb]
        for a in range(0, nb, block_rows):
            t0 = clock()
            u_block = u_cls[a : a + block_rows]
            rng.random(out=u_block)
            t1 = clock()
            at_least += _count_at_least(u_block, cell_edges, hits[: len(u_block)])
            timings["uniform_fills_s"] += t1 - t0
            timings["ledger_s"] += clock() - t1
        t0 = clock()
        excluded = _servo_rows(scenario, starts, lo, lo + nb)
        if excluded.size:
            u_out = u_cls[excluded]
            at_least -= _count_at_least(u_out, cell_edges, np.empty(u_out.shape, bool))
        eligible_total += nb - excluded.size
        timings["ledger_s"] += clock() - t0

        z_slot, z_die = _candidates(rng, dice, hits, nb, z_bound, timings)
        x_slot, x_die = _candidates(rng, dice, hits, nb, x_bound, timings)

        t0 = clock()
        u_flat = u_cls.reshape(-1)
        cls = _classes(u_flat[z_slot], class_edges)
        click = np.flatnonzero(z_die < qz_any[cls])
        burst = z_slot[click] // slots
        first = _first_clicks(burst, excluded)
        z_cls = cls[click[first]]
        z_parity = burst_parity(lo + burst[first], block)

        cls = _classes(u_flat[x_slot], class_edges)
        # candidates above their own class's bound cannot click
        keep = np.flatnonzero(x_die < x_bounds[cls])
        cls, x_die = cls[keep], x_die[keep]
        burst = x_slot[keep] // slots
        parity = burst_parity(lo + burst, block)
        cos_t = np.cos(math.pi * parity + walk[burst])
        click = np.flatnonzero(x_die < _x_click_prob(kx, eta_b, cls, cos_t))
        first = click[_first_clicks(burst[click], excluded)]
        x_cls, x_cos, x_parity = cls[first], cos_t[first], parity[first]
        t1 = clock()
        timings["candidates_s"] += t1 - t0

        if z_cls.size:
            u_att = rng.random(z_cls.size)
            bins = _bins(np.take(z_cum, z_cls, axis=1), u_att)
            _tally_detector(acc, Basis.Z, z_cls, bins, z_parity)
        if x_cls.size:
            u_att = rng.random(x_cls.size)
            cum = _click_cum(outcome_probs(model.x_table, x_cls, x_cos).T)
            _tally_detector(acc, Basis.X, x_cls, _bins(cum, u_att), x_parity)
        timings["attribution_s"] += clock() - t1

    acc.sent += _ledger_cells(eligible_total * slots, at_least)
    elapsed = eligible_total * slots * scenario.params.symbol_period
    stats = SiftResult.from_counts(acc.counts, acc.discards, acc.sent, elapsed)
    return _run_outcome(scenario, stats, eligible_total, timings)


def run_simulation_reference(scenario: ScenarioConfig) -> RunOutcome:
    """Event-by-event run through the object-level operation chain.

    Exact with respect to dead time and within-gate timing, at Python
    speed; guarded by REFERENCE_MAX_SLOTS. Each burst is detected on its
    own at its own interferometer phase, which the scenario's burst
    timing makes exact: a click's dead time never reaches the next
    burst. timings holds the seconds of the phase walk, the per-slot
    event chain (symbols through detection) and the sift.
    """
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
    source = scenario.source
    p_z_receiver = scenario.p_z_receiver
    det = scenario.detector
    ifm = scenario.interferometer
    framing = scenario.framing
    words = [encode_state(state, framing) for state in State]
    basis_z = Basis.Z

    sent: list[Symbol] = []
    events = []
    for b in np.flatnonzero(~excluded_mask).tolist():
        z_pulses = []
        x_groups = []
        gates = params.burst_slots(b)
        for _, s, start in gates:
            sym = sample_symbol(sym_rng, params, b, s)
            frag = serialize_word(words[sym.state], framing, start, b, s)
            pulses = transmit(modulate(sym, frag, params, source, framing), channel)
            sent.append(sym)
            if receiver_basis(sym_rng, p_z_receiver) == basis_z:
                z_pulses.extend(pulses)
            else:
                x_groups.append(pulses)
        theta_b = (math.pi * parity_all[b] + walk[b]) % (2.0 * math.pi)
        events.extend(detect_z(z_pulses, det, gates, det_rng_z, framing))
        events.extend(
            detect_x(x_groups, ifm, theta_b, det, gates, det_rng_x, framing)
        )

    t2 = clock()
    stats = sift(events, sent, params.symbol_period, fringe_block_bursts=block)
    timings = {
        "drift_walk_s": t1 - t0,
        "event_chain_s": t2 - t1,
        "sift_s": clock() - t2,
    }
    return _run_outcome(scenario, stats, int((~excluded_mask).sum()), timings)


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
