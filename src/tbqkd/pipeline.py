"""End-to-end simulation runners.

Two engines produce tallies for a scenario:

- run_simulation: the batch engine. Each chunk of bursts takes three
  uniforms per slot (class, Z die, X die); a slot's detector clicks when
  its die falls below the closed-form click probability of its class,
  1 - K exp(-etaB cos theta) from slotmodel.none_terms (etaB = 0 on the
  direct path), and each burst's first click per detector is attributed
  to a bin with the same race formulas the analytic oracle integrates:
  from one row per class on a detector with no phase term (the direct
  path), and from outcome_probs at the burst's phase otherwise. One
  pass serves both detectors.
  Clicks are rare, so the class of a slot is looked up only where its
  die falls below the largest click probability of any class at any
  phase (a candidate). A chunk's class uniforms, Z dice and X dice are
  three consecutive runs of its stream, drawn block by block through
  one cursor per run; only the candidates' dice and class uniforms
  outlive a block, and the sent ledger is counted from each block of
  class uniforms against the cumulative priors at the (state,
  intensity) cell edges. Classes, clicks and tallies are those of
  evaluating every slot, from the same RNG stream.

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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig
from .errors import ScheduleViolationError
from .keyrate import KeyRateReport, keyrate
from .link import detect_x, detect_z, receiver_basis, transmit
from .ppg import encode_state, serialize_word
from .protocol import Basis, State, Symbol, sample_symbol
from .sift import (
    COUNT_ROW, SiftResult, TallyCounts, burst_parity, count_clicks, sift
)
from .slotmodel import (
    CLASS_INTENSITY,
    CLASS_STATE,
    COL_NONE,
    COL_OUTSIDE,
    GateTable,
    build_link_model,
    fringe_block_bursts,
    none_terms,
    outcome_probs,
    servo_excluded,
    servo_starts,
    static_outcome,
)
from .source import modulate

CHUNK_BURSTS = 32768  # fixed: results must not depend on run partitioning
# slots per block of uniforms, which stays in cache between its draw and
# its comparisons
BLOCK_SLOTS = 1 << 15

# X first clicks attributed per outcome_probs call, which keeps each of
# its temporaries under the allocator's mmap threshold (128 KB in glibc)
ATTRIBUTION_ROWS = 2048

REFERENCE_MAX_SLOTS = 5_000_000

@dataclass(frozen=True)
class RunOutcome:
    """Sifted tallies plus the bookkeeping an analysis or report needs;
    tallies, symbols_sent and elapsed_s are read from sift_stats."""

    sift_stats: SiftResult
    eligible_bursts: int
    total_bursts: int
    # measured seconds per stage of the run, keyed "<stage>_s"
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def tallies(self) -> TallyCounts:
        return self.sift_stats.tallies

    @property
    def symbols_sent(self) -> int:
        return self.tallies.symbols_sent

    @property
    def elapsed_s(self) -> float:
        return self.tallies.elapsed_s


def _theta_walk(
    scenario: ScenarioConfig, resets: np.ndarray, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Drift walk per burst, reset to 0 at each of the scenario's
    servo_starts, yielded in CHUNK_BURSTS pieces. The normal draws and
    the running sum carried across pieces are those of one whole-run
    walk, so memory stays flat in duration while the realization does
    not change. Each piece is summed in _walk_piece, so only the walk
    and its last value outlive a yield."""
    n = scenario.n_bursts
    sigma = scenario.interferometer.drift_sigma
    step = sigma * math.sqrt(scenario.params.burst_period)
    carry = 0.0
    for lo in range(0, n, CHUNK_BURSTS):
        hi = min(lo + CHUNK_BURSTS, n)
        if sigma == 0.0:
            yield np.zeros(hi - lo)
            continue
        walk = _walk_piece(
            rng.normal(0.0, step, hi - lo), carry,
            resets[slice(*np.searchsorted(resets, (lo, hi)))] - lo,
        )
        carry = walk[-1]
        yield walk


def _walk_piece(steps: np.ndarray, carry: float, cuts: np.ndarray) -> np.ndarray:
    """Running sum of steps from carry, restarted from 0 at each
    position of cuts (increasing). The runs between cuts are the padded
    rows of one array, whose cumsum along the rows makes the additions
    of one cumsum per run; evenly spaced resets keep the padding small."""
    steps[0] += carry
    if cuts.size == 0:
        return np.cumsum(steps)
    steps[cuts] = 0.0
    length = np.diff(cuts, prepend=0, append=steps.size)
    in_run = np.arange(length.max()) < length[:, None]
    rows = np.zeros(in_run.shape)
    rows[in_run] = steps
    return np.cumsum(rows, axis=1)[in_run]


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


def _count_at_least(u: np.ndarray, edges: np.ndarray, hits: np.ndarray) -> list[int]:
    """Number of the class uniforms u at or above each cell edge; hits is
    a scratch boolean array of u's shape."""
    return [np.count_nonzero(np.greater_equal(u, e, out=hits)) for e in edges]


def _click_bounds(k: np.ndarray, eta_b: np.ndarray) -> np.ndarray:
    """Upper bound, per class, on a detector's per-slot click
    probability 1 - K exp(-etaB cos(theta)), from its none_terms K and
    etaB. The bounds hold at every phase, since exp(-etaB cos) >=
    exp(-|etaB|) for cos in [-1, 1]; they are widened by a few ulps of 1
    for the rounding of the exact test. A die at or above the bound of a
    slot's class cannot click."""
    return 1.0 - k * np.exp(-np.abs(eta_b)) + 8 * np.finfo(float).eps


def _cum_source(table: GateTable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The _click_cum columns of a detector's clicks of classes cls at
    phases cos_t: one static row per class when the detector's table has
    no phase term, else outcome_probs at each click's phase."""
    if table.mean_cos.any():
        return lambda cls, cos_t: _click_cum(outcome_probs(table, cls, cos_t).T)
    static = _click_cum(static_outcome(table).T)
    return lambda cls, cos_t: np.take(static, cls, axis=1)


def _classes(u: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Slot class of each class uniform u: the number of cumulative
    priors at or below it, edges being all of them but the last (1.0,
    which no uniform reaches). For eleven edges, counting them is much
    faster than a binary search per slot."""
    below = np.greater_equal(u, edges[:, None]).view(np.uint8)
    return below.sum(axis=0, dtype=np.uint8)


def _cursor(rng: np.random.Generator, offset: int) -> np.random.Generator:
    """A generator on rng's stream from `offset` draws past rng's current
    position, built from its state alone (so no OS entropy is read)."""
    bit_gen = np.random.PCG64(0)
    bit_gen.state = rng.bit_generator.state
    return np.random.Generator(bit_gen.advance(offset))


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
    only over the windows that reach into the range, which a binary
    search of the sorted starts finds."""
    width = scenario.servo_bursts_per_event
    near = starts[slice(*np.searchsorted(starts, (lo - width + 1, hi)))]
    if near.size == 0:
        return near
    span = np.arange(max(lo, near[0]), min(hi, near[-1] + width))
    return span[servo_excluded(scenario, starts, span)] - lo


def run_simulation(scenario: ScenarioConfig) -> RunOutcome:
    """Batch Monte Carlo over the full scenario duration.

    Deterministic for a given config and seed: the root RNG is split
    into one stream for the phase walk and one per fixed-size burst
    chunk, so the realization does not depend on how work is iterated.
    Each chunk's stream holds, in this order, the class, Z and X
    uniforms of all its slots and then the attribution uniforms of the
    bursts whose Z, then X, detector clicked. Generator.random consumes
    one 64-bit draw per double, so the three runs of nb * slots uniforms
    of a chunk of nb bursts start at draws 0, nb * slots and
    2 * nb * slots: the chunk's generator draws the first run, and a
    _cursor starts at each of the other two. Each block of about
    BLOCK_SLOTS slots, in whole bursts, takes its three uniforms back to
    back: its sent ledger is counted, less its servo-excluded bursts,
    and its candidate slots, whose die falls below the largest of its
    detector's _click_bounds, keep their die and class uniform. After
    the chunk's last block one pass per detector, Z then X, gives only
    the candidates a class; those below the bound of their own class
    get the phase and fringe parity of their burst and the exact test
    `die < 1 - K[c] exp(-etaB[c] cos theta)` on the detector's
    none_terms, and every other slot cannot click. The first clicks of
    eligible bursts are attributed ATTRIBUTION_ROWS at a time, with
    attribution uniforms that continue the X cursor, and tallied. The
    stream and every tally are therefore those of evaluating the class
    and the click test of every slot.

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
    starts = servo_starts(scenario)
    walks = _theta_walk(scenario, starts, theta_rng)

    class_edges = np.cumsum(model.priors)[:-1]
    # class c = 4*state + 2*intensity + route (class_index), so each
    # (state, intensity) ledger cell is two consecutive classes, and cell
    # j >= 1 starts at the upper edge of class 2j - 1
    cell_edges = class_edges[1::2]
    # per detector: P(none | class c, phase theta) = K[c] exp(-etaB[c]
    # cos theta), the per-class click bounds and the source of the
    # _click_cum columns of its first clicks
    detectors = []
    for basis in Basis:
        table = model.table(basis)
        k, eta_b = none_terms(table)
        detectors.append((basis, k, eta_b, _click_bounds(k, eta_b), _cum_source(table)))
    # the candidate bound of a die is the largest of its detector's bounds
    die_bounds = [float(bounds.max()) for *_, bounds, _ in detectors]

    totals = np.zeros(COUNT_ROW, np.int64)
    eligible_total = 0
    # eligible slots whose class uniform lies at or above each cell edge
    at_least = np.zeros(len(cell_edges), np.int64)
    # one block of class uniforms and one of dice, with a boolean
    # scratch, reused by every block of every chunk so that the
    # allocator does not map and unmap them
    block_rows = max(1, BLOCK_SLOTS // slots)
    u_cls = np.empty((min(block_rows, n_bursts), slots))
    dice = np.empty(u_cls.shape)
    hits = np.empty(u_cls.shape, dtype=bool)

    for chunk, rng in enumerate(chunk_rngs):
        t0 = clock()
        walk = next(walks)
        timings["drift_walk_s"] += clock() - t0
        lo = chunk * CHUNK_BURSTS
        nb = walk.size
        t0 = clock()
        excluded = _servo_rows(scenario, starts, lo, lo + nb)
        eligible_total += nb - excluded.size
        timings["ledger_s"] += clock() - t0
        # the class uniforms, Z dice and X dice of the chunk are three
        # consecutive runs of nb * slots draws of its stream; rng itself
        # draws the first
        cursors = [_cursor(rng, k * nb * slots) for k in (1, 2)]
        # (slot, die, class uniform) of the candidates of each block, per
        # detector
        found = ([], [])
        for a in range(0, nb, block_rows):
            rows = min(block_rows, nb - a)
            u, h = u_cls[:rows], hits[:rows]
            t0 = clock()
            rng.random(out=u)
            t1 = clock()
            at_least += _count_at_least(u, cell_edges, h)
            if excluded.size:
                out = excluded[slice(*np.searchsorted(excluded, (a, a + rows)))] - a
                at_least -= _count_at_least(u[out], cell_edges, h[: out.size])
            timings["uniform_fills_s"] += t1 - t0
            timings["ledger_s"] += clock() - t1
            for die_rng, bound, own in zip(cursors, die_bounds, found):
                t0 = clock()
                d = dice[:rows]
                die_rng.random(out=d)
                t1 = clock()
                cand = np.flatnonzero(np.less(d, bound, out=h))
                own.append((cand + a * slots, d.ravel()[cand], u.ravel()[cand]))
                timings["uniform_fills_s"] += t1 - t0
                timings["candidates_s"] += clock() - t1

        for (basis, k, eta_b, bounds, cum_source), own in zip(detectors, found):
            t0 = clock()
            slot, die, u = map(np.concatenate, zip(*own))
            cls = _classes(u, class_edges)
            # candidates above their own class's bound cannot click
            keep = np.flatnonzero(die < bounds[cls])
            cls, die, burst = cls[keep], die[keep], slot[keep] // slots
            parity = burst_parity(lo + burst, block)
            cos_t = np.cos(math.pi * parity + walk[burst])
            click = np.flatnonzero(die < 1.0 - k[cls] * np.exp(-eta_b[cls] * cos_t))
            first = click[_first_clicks(burst[click], excluded)]
            cls, cos_t, parity = cls[first], cos_t[first], parity[first]
            t1 = clock()
            timings["candidates_s"] += t1 - t0
            # the attribution uniforms continue the X dice's run of the
            # stream, Z first clicks first
            bins = np.empty(cls.size, np.int64)
            for a in range(0, cls.size, ATTRIBUTION_ROWS):
                part = slice(a, a + ATTRIBUTION_ROWS)
                cum = cum_source(cls[part], cos_t[part])
                bins[part] = _bins(cum, cursors[1].random(cum.shape[1]))
            totals += count_clicks(
                CLASS_STATE[cls], CLASS_INTENSITY[cls], basis, bins, parity
            )
            timings["attribution_s"] += clock() - t1

    # cells j and up hold the uniforms at or above cell edge j - 1
    sent = -np.diff([eligible_total * slots, *at_least, 0]).reshape(3, 2)
    elapsed = eligible_total * slots * scenario.params.symbol_period
    stats = SiftResult.from_counts(totals, sent, elapsed)
    return RunOutcome(stats, eligible_total, n_bursts, timings)


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
    starts = servo_starts(scenario)
    walk = np.concatenate(list(_theta_walk(scenario, starts, theta_rng)))
    t1 = clock()
    idx_all = np.arange(n_bursts, dtype=np.int64)
    excluded_mask = servo_excluded(scenario, starts, idx_all)
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
    return RunOutcome(stats, int((~excluded_mask).sum()), n_bursts, timings)


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
    report = keyrate(outcome.tallies, scenario.params, scenario.security)
    outcome.timings["key_analysis_s"] = time.perf_counter() - t0
    return outcome, report
