"""Closed-form per-slot detection statistics.

Every transmitted slot belongs to one of 12 generative classes
(state x intensity x routed path). For each class and each of the two
gated detectors this module derives the exact first-click outcome
distribution over {early, central, late, outside, none}, including the
within-gate race between photon components and uniform dark counts,
Gaussian-jitter window acceptance on the TDC grid, and the servo-phase
dependence of the interfering central bin.

Both the vectorized Monte Carlo engine and analytic_expected_tallies
evaluate these same formulas, which is what makes their 3-sigma
cross-checks sharp. The two deliberate simplifications, shared by both
consumers, are documented in outcome_probs: the dark-vs-photon race uses
nominal pulse centers (jitter enters classification only), and photon
components race in nominal time order. Relative error is of order
dark_rate*jitter/gate ~ 1e-8, far below any statistical resolution here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .link import DetectorModel
from .protocol import Basis, Bin, IntensityClass, State
from .sift import _COMBO_SHAPE, _RULE_TABLE, TALLY_KEYS, burst_parity

N_CLASSES = 12
# outcome columns: the Bin value of a click, then no click
COL_EARLY, COL_CENTRAL, COL_LATE, COL_OUTSIDE = (int(b) for b in Bin)
COL_NONE = len(Bin)


def class_index(state: State, intensity: IntensityClass, routed: Basis) -> int:
    return int(state) * 4 + int(intensity) * 2 + int(routed)


CLASS_STATE = np.array([c // 4 for c in range(N_CLASSES)], dtype=np.int64)
CLASS_INTENSITY = np.array([(c // 2) % 2 for c in range(N_CLASSES)], dtype=np.int64)
CLASS_ROUTE = np.array([c % 2 for c in range(N_CLASSES)], dtype=np.int64)


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, through math.erf value by value."""
    erf = [math.erf(v) for v in (z / math.sqrt(2.0)).ravel().tolist()]
    return 0.5 * (1.0 + np.array(erf).reshape(z.shape))


def _acceptance_region(
    center: float, det: DetectorModel
) -> tuple[float, float]:
    """Raw-time interval whose TDC-quantized value classifies into the
    bin window centered at `center`. Empty regions return lo >= hi."""
    tdc = float(det.tdc_resolution_ps)
    hw = det.bin_window_ps / 2.0
    kmin = math.ceil((center - hw) / tdc)
    kmax = math.floor((center + hw) / tdc)
    if kmax < kmin:
        return 0.0, 0.0
    return kmin * tdc - tdc / 2.0, kmax * tdc + tdc / 2.0


@dataclass(frozen=True)
class GateTable:
    """Per-class gate description for one detector.

    Arrays are component-major, the class last, so that outcome_probs
    gathers whole component rows for many slots at once. Components are
    padded to 3 and ordered by position; mean(theta) = mean_const +
    mean_cos * cos(theta). comp_w[i, :, c] is the classification
    distribution of component i's click over the four outcome columns.
    dark_span[k, :, c] is the per-gate probability mass of a dark landing
    in race interval k and classifying into each column; dark intervals
    are bounded by dark_edges[:, c]. Padded components have zero means.

    The dark-race factors that depend on the class alone are kept
    evaluated: dark_before[i, c], the chance that no dark precedes
    component i; dark_win[k, c], the chance that the first dark lands in
    interval k; dark_width[k, c], the interval's share of the gate. An
    empty interval has dark_win 0 and dark_width 1.
    """

    n_comp: np.ndarray        # (12,) int
    pos: np.ndarray           # (3, 12) float, ps within gate
    mean_const: np.ndarray    # (3, 12)
    mean_cos: np.ndarray      # (3, 12)
    comp_w: np.ndarray        # (3, 4, 12)
    dark_edges: np.ndarray    # (5, 12) interval boundaries, ps
    dark_span: np.ndarray     # (4, 4, 12) probability mass per interval x column
    dark_before: np.ndarray   # (3, 12)
    dark_win: np.ndarray      # (4, 12)
    dark_width: np.ndarray    # (4, 12)
    eta: float
    lam_dark: float           # expected darks per gate
    gate_ps: float


def _build_gate_table(
    pos: np.ndarray,
    mean_const: np.ndarray,
    mean_cos: np.ndarray,
    bin_centers: dict[Bin, float],
    det: DetectorModel,
) -> GateTable:
    """Gate table of the photon components given as (3, 12) arrays of
    position (ps), mean_const and mean_cos per class. Components with a
    zero mean drop out; each class keeps the rest in (pos, mean_const,
    mean_cos) order, moved to the front."""
    gate = float(det.gate_width_ps)
    sigma = det.jitter_sigma_ps
    regions = {b: _acceptance_region(c, det) for b, c in bin_centers.items()}

    real = (mean_const > 0.0) | (mean_cos != 0.0)
    # flat index of each class's i-th real component, in sorted order
    order = np.lexsort((mean_cos, mean_const, pos, ~real), axis=0)
    order = order * N_CLASSES + np.arange(N_CLASSES)
    real = real.ravel()[order]
    pos, a_arr, b_arr = (
        np.where(real, v.ravel()[order], 0.0) for v in (pos, mean_const, mean_cos)
    )

    # window bounds (lo, hi) of each bin column, against each real
    # component or race interval
    bounds = np.array(list(regions.values()))[:, :, None]
    x = pos[real]
    if sigma > 0.0:
        cdf = _phi((bounds - x) / sigma)
        w = cdf[:, 1] - cdf[:, 0]
    else:
        w = ((bounds[:, 0] <= x) & (x < bounds[:, 1])).astype(np.float64)
    w_bins = np.zeros((len(regions), 3, N_CLASSES))
    w_bins[:, real] = w
    w_arr = np.zeros((3, 4, N_CLASSES))
    w_arr[:, list(regions)] = w_bins.transpose(1, 0, 2)
    # the columns add up in index order
    outside = np.maximum(0.0, 1.0 - w_arr.sum(axis=1))
    w_arr[:, COL_OUTSIDE] = np.where(real, outside, 0.0)

    edges = np.full((5, N_CLASSES), gate)
    edges[0] = 0.0
    edges[1:4] = np.where(real, pos, gate)
    lo_k, hi_k = edges[:4], edges[1:]
    widths = (hi_k - lo_k) / gate
    is_open = widths > 0.0
    # share of the gate in each race interval and bin window
    ov = np.minimum(np.minimum(bounds[:, 1:], hi_k), gate) - np.maximum(
        np.maximum(bounds[:, :1], lo_k), 0.0
    )
    binned = np.maximum(0.0, ov) / gate
    spans = np.zeros((4, 4, N_CLASSES))
    spans[:, list(regions)] = binned.transpose(1, 0, 2)
    # the windows add up in column order
    spans[:, COL_OUTSIDE] = np.maximum(0.0, widths - binned.sum(axis=0))
    spans *= is_open[:, None]

    lam = det.dark_prob_per_gate
    decay = np.exp(-lam * edges / gate)
    return GateTable(
        n_comp=real.sum(axis=0),
        pos=pos,
        mean_const=a_arr,
        mean_cos=b_arr,
        comp_w=w_arr,
        dark_edges=edges,
        dark_span=spans,
        dark_before=np.exp(-lam * pos / gate),
        dark_win=np.where(is_open, decay[:4] - decay[1:], 0.0),
        dark_width=np.where(is_open, widths, 1.0),
        eta=det.efficiency,
        lam_dark=lam,
        gate_ps=gate,
    )


@dataclass(frozen=True)
class LinkModel:
    """Slot-class priors plus one GateTable per detector."""

    priors: np.ndarray        # (12,)
    z_table: GateTable
    x_table: GateTable

    def table(self, detector: Basis) -> GateTable:
        return self.z_table if detector == Basis.Z else self.x_table


def build_link_model(scenario: ScenarioConfig) -> LinkModel:
    """Derive the 12-class gate tables from the scenario's models."""
    params = scenario.params
    src = scenario.source
    det = scenario.detector
    ifm = scenario.interferometer
    t_ch = scenario.channel.transmission

    p_state = params.state_probabilities()
    p_int = np.array([params.p_mu1, params.p_mu2])
    p_route = np.array([scenario.p_z_receiver, 1.0 - scenario.p_z_receiver])
    priors = p_state[CLASS_STATE] * p_int[CLASS_INTENSITY] * p_route[CLASS_ROUTE]

    z_off = scenario.framing.z_offsets
    x_off = scenario.framing.x_offsets
    delay = ifm.delay_ps
    leak = src.leak_fraction
    im1 = src.im1_transmission_x

    # per class: Z0 leaks into the late bin, Z1 into the early one, and
    # XPlus carries both pulses through IM1
    mu_on = params.mu1 * np.where(CLASS_INTENSITY == 1, src.ratio(params), 1.0)
    mu_early = mu_on * np.array([1.0, leak, im1])[CLASS_STATE] * t_ch
    mu_late = mu_on * np.array([leak, 1.0, im1])[CLASS_STATE] * t_ch
    zero = np.zeros(N_CLASSES)
    to_z = CLASS_ROUTE == int(Basis.Z)

    z_pos = np.repeat([[z_off[Bin.EARLY]], [z_off[Bin.LATE]], [0.0]], N_CLASSES, axis=1)
    z_const = np.where(to_z, np.stack((mu_early, mu_late, zero)), 0.0)

    cross = 0.5 * ifm.visibility * np.sqrt(mu_early * mu_late)
    # the outputs lie one arm delay apart, which may differ from the
    # separation of the bin windows by up to a TDC step; like
    # link.interfere, they follow the early pulse, or the late one when
    # there is no early pulse
    t0 = np.where(mu_early > 0.0, z_off[Bin.EARLY], z_off[Bin.LATE] - delay)
    x_pos = np.stack((t0, t0 + delay, t0 + 2 * delay))
    x_const = np.where(
        to_z, 0.0, np.stack((mu_early, mu_early + mu_late, mu_late)) / 4.0
    )
    x_cos = np.where(to_z, 0.0, np.stack((zero, cross, zero)))

    return LinkModel(
        priors=priors,
        z_table=_build_gate_table(z_pos, z_const, np.zeros_like(z_pos), z_off, det),
        x_table=_build_gate_table(x_pos, x_const, x_cos, x_off, det),
    )


def outcome_probs(
    table: GateTable, cls: np.ndarray, cos_t: np.ndarray
) -> np.ndarray:
    """First-click outcome distribution, shape (n, 5), a transposed view
    of the component-major (5, n) array it is computed in.

    Race model: photon component i clicks with q_i = 1 - exp(-eta*m_i)
    and competes at its nominal position; darks arrive as a uniform
    Poisson stream over the gate. Winner probabilities are exact
    exponential expressions in the partial mean sums; jitter enters only
    through the per-component classification weights. Sums over
    components and race intervals run in index order.
    """
    cls = np.asarray(cls, dtype=np.int64)
    cos_t = np.asarray(cos_t, dtype=np.float64)
    out = np.empty((COL_NONE + 1, cls.shape[0]))

    def take(arr: np.ndarray) -> np.ndarray:
        return arr.take(cls, axis=-1)

    means = take(table.mean_const) + take(table.mean_cos) * cos_t  # (3, n)
    means = np.maximum(means, 0.0)
    prefix_full = np.cumsum(means, axis=0)  # sums through component i
    # component i clicks, and no photon (the sum over j < i) and no dark
    # clicked before it; each table row is gathered only when it is
    # needed, which bounds the temporaries held at once
    win_photon = (
        -np.expm1(-table.eta * means)
        * np.exp(-table.eta * (prefix_full - means))
        * take(table.dark_before)
    )  # (3, n)
    clicks = out[:COL_NONE]
    np.multiply(win_photon[0], take(table.comp_w[0]), out=clicks)
    for i in (1, 2):
        clicks += win_photon[i] * take(table.comp_w[i])

    if table.lam_dark > 0.0:
        # photons at or before the interval must all miss
        alive_dark = np.empty((4, cls.shape[0]))
        alive_dark[0] = 1.0
        np.exp(-table.eta * prefix_full, out=alive_dark[1:])
        cond = take(table.dark_win) * alive_dark / take(table.dark_width)
        dark = cond[0] * take(table.dark_span[0])
        for k in (1, 2, 3):
            dark += cond[k] * take(table.dark_span[k])
        clicks += dark

    out[COL_NONE] = np.exp(-table.lam_dark - table.eta * prefix_full[2])
    return out.T


def static_outcome(table: GateTable) -> np.ndarray:
    """Outcome distribution for all 12 classes when mean_cos plays no
    role (the direct path) or at a fixed cos(theta)=0."""
    return outcome_probs(table, np.arange(N_CLASSES), np.zeros(N_CLASSES))


def duty_factor(q_any: np.ndarray | float, slots: int) -> np.ndarray | float:
    """Expected number of first-click opportunities per burst:
    sum_{s<S} (1-q)^s = (1 - (1-q)^S)/q, with the q -> 0 limit S."""
    q = np.asarray(q_any, dtype=np.float64)
    small = q < 1e-12
    safe = np.where(small, 1.0, q)
    with np.errstate(divide="ignore"):
        # log1p(-1) = -inf at q = 1; expm1(-inf) = -1 is the right limit
        val = -np.expm1(slots * np.log1p(-np.minimum(safe, 1.0))) / safe
    out = np.where(small, float(slots), val)
    return float(out) if np.isscalar(q_any) or out.ndim == 0 else out


# ---------------------------------------------------------------------------
# burst bookkeeping shared by the Monte Carlo engine and the analytic oracle


def fringe_block_bursts(scenario: ScenarioConfig) -> int:
    """Bursts per fringe-parity block, sized so each block carries about
    fringe_block_x_symbols X-basis symbols."""
    params = scenario.params
    per_burst = params.symbols_per_burst * (1.0 - params.p_z)
    return max(1, round(scenario.fringe_block_x_symbols / per_burst))


def servo_starts(scenario: ScenarioConfig) -> np.ndarray:
    """First burst index of each stabilization window: the lock schedule
    of every engine and the oracle."""
    period = scenario.params.burst_period
    n_bursts = scenario.n_bursts
    interval = scenario.interferometer.stabilization_interval
    n_events = max(1, math.ceil(scenario.duration / interval))
    starts = np.rint(np.arange(n_events) * interval / period).astype(np.int64)
    return starts[starts < n_bursts]


def _last_start(starts: np.ndarray, burst_idx: np.ndarray) -> np.ndarray:
    """The latest of the servo starts at or before each burst; the first
    start is burst 0."""
    return starts[np.searchsorted(starts, burst_idx, side="right") - 1]


def servo_excluded(scenario: ScenarioConfig, burst_idx: np.ndarray) -> np.ndarray:
    """True for bursts consumed by stabilization (no key symbols).

    Windows never end before an earlier one does, so the window of the
    latest start at or before a burst decides whether one covers it."""
    idx = np.asarray(burst_idx, dtype=np.int64)
    last = _last_start(servo_starts(scenario), idx)
    return idx < last + scenario.servo_bursts_per_event


def lock_elapsed_s(scenario: ScenarioConfig, burst_pos: np.ndarray) -> np.ndarray:
    """Seconds of free phase drift since the last lock, which is the
    latest servo start: the burst where both engines reset the walk.

    `burst_pos` may be fractional (a quadrature node); the lock is then
    that of the nearest burst, and the time runs on linearly.
    """
    pos = np.asarray(burst_pos, dtype=np.float64)
    last = _last_start(servo_starts(scenario), np.rint(pos))
    return (pos - last) * scenario.params.burst_period


def expected_cos_theta(
    scenario: ScenarioConfig,
    burst_pos: np.ndarray,
    spread: float | np.ndarray = 0.0,
) -> np.ndarray:
    """E[cos(theta_b)] per burst under the locked random-walk model.

    After each stabilization the servo holds theta at the current fringe
    block's lock point (0 or pi); drift then accumulates as a Brownian
    walk, so E[cos(lock + W_t)] = (+/-1) * exp(-drift_sigma^2 t / 2).
    `spread`, one value or one per position, shifts the walk coherently
    by that many std devs; the analytic variance bound uses it as a
    finite difference. Fractional positions take the fringe parity and
    lock of the nearest burst, as in lock_elapsed_s.
    """
    pos = np.asarray(burst_pos, dtype=np.float64)
    sigma = scenario.interferometer.drift_sigma
    tau = lock_elapsed_s(scenario, pos)
    sign = 1.0 - 2.0 * burst_parity(np.rint(pos), fringe_block_bursts(scenario))
    damp = np.exp(-0.5 * sigma * sigma * tau)
    shift = spread * sigma * np.sqrt(tau)
    # |cos(t + d) - cos t| <= |d|: apply the shift as a worst-case
    # coherent displacement of cos itself.
    return np.clip(sign * damp - sign * shift, -1.0, 1.0)


@dataclass(frozen=True)
class ExpectedTallies:
    """Expected sifted counts, their per-key statistical variance, and a
    coherent-drift variance bound, all real-valued."""

    means: dict[str, float]
    variances: dict[str, float]
    drift_variances: dict[str, float]
    elapsed_s: float
    eligible_bursts: int
    symbols_sent: int


def _key_weights(detector: Basis) -> np.ndarray:
    """Tally keys of a click on the detector under sift's rule table, as
    0/1 weights of shape (2, N_CLASSES, 4, len(TALLY_KEYS)): fringe
    parity, class, outcome column (early..outside) and key."""
    rules = _RULE_TABLE.reshape(*_COMBO_SHAPE, -1)[
        CLASS_STATE, CLASS_INTENSITY, detector
    ]
    keys = rules[..., : len(TALLY_KEYS)].transpose(2, 0, 1, 3)
    return keys.astype(np.float64, order="C")


_Z_WEIGHTS = _key_weights(Basis.Z)
_X_WEIGHTS = _key_weights(Basis.X)
# classes whose clicks on the interferometer detector count into a key
_X_COUNTED = _X_WEIGHTS.any(axis=(0, 2, 3))


def _class_key_probs(
    weights: np.ndarray, priors: np.ndarray, outcome: np.ndarray
) -> np.ndarray:
    """Per-slot tally-key probabilities, (2, len(TALLY_KEYS)) for fringe
    parity 0 and 1, of classes with these priors, outcome distributions
    and _key_weights rows."""
    mass = priors[:, None] * outcome[:, :COL_NONE]
    return mass.ravel() @ weights.reshape(2, -1, len(TALLY_KEYS))


def x_none_terms(table: GateTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-class no-click factorization on the interferometer detector:
    P(none | c, theta) = K[c] * exp(-etaB[c] * cos(theta))."""
    k = np.exp(-table.lam_dark - table.eta * table.mean_const.sum(axis=0))
    eta_b = table.eta * table.mean_cos.sum(axis=0)
    return k, eta_b


def _x_key_probs(
    model: LinkModel,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The per-slot probabilities of the tally keys on the interferometer
    detector as a function of cos(theta): for phases cos_t (n,), the key
    probabilities (2, n, len(TALLY_KEYS)) for fringe parity 0 and 1, and
    the any-click probability (n,). The phase-free terms are evaluated
    here, once.

    Only classes that sift_rule counts and whose mean depends on the
    phase (XPlus routed to the interferometer) need the full per-burst
    outcome evaluation; the other counted classes enter through their
    static outcome (dark clicks while the light went the other way), and
    every class through its closed-form no-click factor.
    """
    table = model.x_table
    k_fac, eta_b = x_none_terms(table)
    none_groups = [
        (g, float(np.dot(model.priors, np.where(eta_b == g, k_fac, 0.0))))
        for g in np.unique(eta_b)
    ]
    phased = table.mean_cos.any(axis=0)
    fixed = _X_COUNTED & ~phased
    p_fixed = _class_key_probs(
        _X_WEIGHTS[:, fixed], model.priors[fixed], static_outcome(table)[fixed]
    )[:, None, :]
    counted = np.flatnonzero(_X_COUNTED & phased)

    def key_probs(cos_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = cos_t.shape[0]
        none_sum = np.zeros(n)
        for g, w in none_groups:
            none_sum += w * (np.exp(-g * cos_t) if g != 0.0 else 1.0)
        p = p_fixed
        for c in counted:
            probs = outcome_probs(table, np.full(n, c), cos_t)
            p = p + model.priors[c] * (probs[:, :COL_NONE] @ _X_WEIGHTS[:, c])
        return np.broadcast_to(p, (2, n, len(TALLY_KEYS))), 1.0 - none_sum

    return key_probs


def x_segments(scenario: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eligible bursts as runs [lo, hi) of constant fringe parity and
    lock, with the stabilization windows cut out.

    Runs are cut at every servo start, where the phase walk resets, and
    at every window end. Under fast drift they are also cut every
    1/(8 drift_sigma^2 burst_period) bursts: the drift spread
    sigma*sqrt(tau) then grows by at most 0.35 rad, and
    exp(-sigma^2 tau / 2) falls by at most e^-1/16, within one run.
    """
    n = scenario.n_bursts
    block = fringe_block_bursts(scenario)
    rate = scenario.interferometer.drift_sigma ** 2 * scenario.params.burst_period
    span = min(n, max(1, int(0.125 / rate))) if rate > 0.0 else n
    servo = servo_starts(scenario)
    cuts = np.unique(np.concatenate((
        [0, n],
        np.arange(block, n, block),
        np.arange(span, n, span),
        servo,
        np.minimum(servo + scenario.servo_bursts_per_event, n),
    )))
    lo, hi = cuts[:-1], cuts[1:]
    keep = ~servo_excluded(scenario, lo)
    return lo[keep], hi[keep]


# Quadrature of a per-burst sum over one segment [lo, hi): Gauss-Legendre
# nodes integrate over [lo, hi - 1], and Gregory's end weights on the
# first and last four bursts turn that integral into the sum over the
# integer points. Near a lock the drift bound grows like sqrt(tau), which
# no end correction follows, so the first HEAD_BURSTS bursts after a
# lock are summed one by one; so is every segment too short to hold a
# head and both ends.

# Four-point Gauss-Legendre nodes and weights, moved from [-1, 1] to [0, 1].
_GL_X = math.sqrt(6.0 / 5.0) * 2.0 / 7.0
_GL_T = 0.5 + 0.5 * np.array([
    -math.sqrt(3.0 / 7.0 + _GL_X), -math.sqrt(3.0 / 7.0 - _GL_X),
    math.sqrt(3.0 / 7.0 - _GL_X), math.sqrt(3.0 / 7.0 + _GL_X),
])
_GL_W = np.array([18.0 - math.sqrt(30.0), 18.0 + math.sqrt(30.0),
                  18.0 + math.sqrt(30.0), 18.0 - math.sqrt(30.0)]) / 72.0
GREGORY = np.array([469.0, -177.0, 87.0, -19.0]) / 720.0
HEAD_BURSTS = 16
# nodes evaluated at once, which bounds memory on scenarios cut into
# very many segments; each node set is also summed in slices of this size
NODE_BATCH = 1 << 18
# node sets share one evaluation only while it holds at most this many
# nodes: beyond a few thousand, the temporaries of outcome_probs cost
# more per node than the saved calls (a 300 s preset's three sets of
# 3024 nodes ran 1.3 times slower as one evaluation, in a fresh process)
SHARED_NODES = 1 << 12


def _quadrature_nodes(
    scenario: ScenarioConfig, lo: np.ndarray, hi: np.ndarray, drift: bool
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Node sets of burst positions, weights, and the fringe parity of
    each position, such that the weighted sum of any smooth per-burst
    function f equals sum(f(b) for b in each segment [lo, hi)) to
    rounding. The first set integrates each interior in burst position.
    With drift, a second set integrates it in u = sqrt(tau)
    (dtau = 2u du), so that f may also carry sqrt(tau) terms; the two
    share their bursts summed one by one, their end nodes and their
    parities."""
    period = scenario.params.burst_period
    n = hi - lo
    whole = n <= HEAD_BURSTS + 2 * len(GREGORY)
    near_lock = lock_elapsed_s(scenario, lo) < HEAD_BURSTS * period
    head = np.where(whole, n, np.where(near_lock, HEAD_BURSTS, 0))

    # bursts summed one by one
    offset = np.arange(head.sum()) - np.repeat(np.cumsum(head) - head, head)
    exact = np.repeat(lo, head) + offset

    a = (lo + head)[~whole][:, None]
    b = (hi - 1)[~whole][:, None]
    j = np.arange(len(GREGORY))
    ends = np.concatenate((a + j, b - j), axis=1)
    end_w = np.broadcast_to(np.tile(GREGORY, 2), ends.shape)
    interiors = [(a + (b - a) * _GL_T, (b - a) * _GL_W)]
    if drift:
        tau_a = lock_elapsed_s(scenario, a)
        u_a = np.sqrt(tau_a)
        u_b = np.sqrt(lock_elapsed_s(scenario, b))
        u = u_a + (u_b - u_a) * _GL_T
        interiors.append(
            (a + (u * u - tau_a) / period, (u_b - u_a) * _GL_W * 2.0 * u / period)
        )

    odd = burst_parity(lo, fringe_block_bursts(scenario))
    parity = np.concatenate((
        np.repeat(odd, head),
        np.repeat(odd[~whole], ends.shape[1]),
        np.repeat(odd[~whole], len(_GL_T)),
    ))
    return [
        (
            np.concatenate((exact, ends.ravel(), inner.ravel())),
            np.concatenate((np.ones(exact.size), end_w.ravel(), inner_w.ravel())),
            parity,
        )
        for inner, inner_w in interiors
    ]


def _node_batches(sizes: list[int]) -> Iterator[list[tuple[int, slice]]]:
    """Batches of (node set, slice), for node sets of these sizes. Each
    set is cut into NODE_BATCH slices of its own and no slice is split,
    so the sum over a slice does not depend on what shares its batch.
    Slices share a batch while it holds at most SHARED_NODES nodes."""
    batch: list[tuple[int, slice]] = []
    size = 0
    for k, n in enumerate(sizes):
        for a in range(0, n, NODE_BATCH):
            sl = slice(a, min(a + NODE_BATCH, n))
            if batch and size + sl.stop - a > SHARED_NODES:
                yield batch
                batch, size = [], 0
            batch.append((k, sl))
            size += sl.stop - a
    if batch:
        yield batch


def analytic_expected_tallies(scenario: ScenarioConfig) -> ExpectedTallies:
    """Closed-form expected tallies for a full scenario run.

    Every tally key counts what sift_rule makes of each class's outcome
    columns. Z-path statistics are theta-free and reduce to one closed
    form per fringe parity. The X path depends on the burst only through
    the expected locked-drift phase, which is smooth within each
    x_segments run, so its per-burst sums are taken by quadrature over
    each run (_quadrature_nodes). The drift-bound sums carry
    sigma * sqrt(tau), which is not smooth at the lock, so they are
    integrated in u = sqrt(tau) instead. The node sets of the X-path
    sums share their evaluations (_node_batches). Counts per burst and
    detector are Bernoulli
    (first click wins, dead time covers the rest of the burst, which
    ScenarioConfig enforces), so variances are exact binomial sums.
    """
    model = build_link_model(scenario)
    slots = scenario.params.symbols_per_burst
    key_probs = _x_key_probs(model)

    lo, hi = x_segments(scenario)
    eligible_total = int((hi - lo).sum())
    odd = burst_parity(lo, fringe_block_bursts(scenario))
    n_odd = int(((hi - lo) * odd).sum())
    drift = scenario.interferometer.drift_sigma != 0.0
    nodes = _quadrature_nodes(scenario, lo, hi, drift)
    # (positions, weights, parities, spread) of each X-path sum: the
    # means at spread 0 and, under drift, the +/-spread drift sums
    sets = [(*nodes[0], 0.0)] + [(*nodes[-1], s) for s in (1.0, -1.0) if drift]
    # per set, the sum over eligible bursts of the per-burst click
    # probability p of each tally key on the X detector, and of p^2
    x_sums = [np.zeros((2, len(TALLY_KEYS))) for _ in sets]
    for batch in _node_batches([pos.size for pos, *_ in sets]):
        pos = np.concatenate([sets[k][0][sl] for k, sl in batch])
        parity = np.concatenate([sets[k][2][sl] for k, sl in batch])
        spread = np.concatenate(
            [np.full(sl.stop - sl.start, sets[k][3]) for k, sl in batch]
        )
        p_slot, q_any = key_probs(expected_cos_theta(scenario, pos, spread))
        # each burst at its own fringe parity
        p = p_slot[parity, np.arange(pos.size)]
        p *= duty_factor(q_any, slots)[:, None]  # per burst
        start = 0
        for k, sl in batch:
            rows = p[start : start + sl.stop - sl.start]
            start += rows.shape[0]
            sums = sets[k][1][sl] @ np.hstack((rows, rows * rows))
            x_sums[k] += sums.reshape(2, -1)
        # free this batch's rows before the next batch is evaluated
        del p_slot, p, rows
    x_mean, x_sq = x_sums[0]
    x_shift = np.zeros(len(TALLY_KEYS))  # half the +/-spread difference
    if drift:
        x_shift = (x_sums[1][0] - x_sums[2][0]) / 2.0

    static_z = static_outcome(model.z_table)
    q_any_z = float(np.dot(model.priors, 1.0 - static_z[:, COL_NONE]))
    # per burst and fringe parity
    pz = _class_key_probs(_Z_WEIGHTS, model.priors, static_z) * duty_factor(
        q_any_z, slots
    )
    per_parity = np.array([eligible_total - n_odd, n_odd])
    z_mean = per_parity @ pz
    z_var = per_parity @ (pz * (1.0 - pz))

    symbols_sent = eligible_total * slots
    elapsed = symbols_sent * scenario.params.symbol_period
    return ExpectedTallies(
        means=dict(zip(TALLY_KEYS, (z_mean + x_mean).tolist())),
        variances=dict(zip(TALLY_KEYS, (z_var + x_mean - x_sq).tolist())),
        drift_variances=dict(zip(TALLY_KEYS, (x_shift**2).tolist())),
        elapsed_s=elapsed,
        eligible_bursts=eligible_total,
        symbols_sent=symbols_sent,
    )
