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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .config import ScenarioConfig
from .link import DetectorModel, bin_regions
from .protocol import Basis, Bin, IntensityClass, ProtocolParams, State
from .sift import TALLY_KEYS, burst_parity, count_rows

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


@dataclass(frozen=True)
class GateTable:
    """Per-class gate description for one detector.

    Arrays are component-major, the class last, so that outcome_probs
    gathers whole component rows for many slots at once. A table built
    for several scenarios holds 12 class columns per scenario (class c
    of scenario p is column 12p + c), where the shapes below read 12.
    Components are padded to 3 and ordered by position; mean(theta) =
    mean_const + mean_cos * cos(theta). comp_w[i, :, c] is the
    classification distribution of component i's click over the four
    outcome columns.
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
    """Gate table of the photon components given as (3, n) arrays of
    position (ps), mean_const and mean_cos per class column. Components
    with a zero mean drop out; each class keeps the rest in (pos,
    mean_const, mean_cos) order, moved to the front."""
    n_cls = pos.shape[1]
    gate = float(det.gate_width_ps)
    sigma = det.jitter_sigma_ps
    regions = bin_regions(bin_centers, det)

    real = (mean_const > 0.0) | (mean_cos != 0.0)
    # flat index of each class's i-th real component, in sorted order
    order = np.lexsort((mean_cos, mean_const, pos, ~real), axis=0)
    order = order * n_cls + np.arange(n_cls)
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
    w_bins = np.zeros((len(regions), 3, n_cls))
    w_bins[:, real] = w
    w_arr = np.zeros((3, 4, n_cls))
    w_arr[:, list(regions)] = w_bins.transpose(1, 0, 2)
    # the columns add up in index order
    outside = np.maximum(0.0, 1.0 - w_arr.sum(axis=1))
    w_arr[:, COL_OUTSIDE] = np.where(real, outside, 0.0)

    edges = np.full((5, n_cls), gate)
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
    spans = np.zeros((4, 4, n_cls))
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
    """Slot-class priors, one per GateTable class column, plus one
    GateTable per detector."""

    priors: np.ndarray        # (12,)
    z_table: GateTable
    x_table: GateTable

    def table(self, detector: Basis) -> GateTable:
        return self.z_table if detector == Basis.Z else self.x_table


def build_link_model(scenario: ScenarioConfig) -> LinkModel:
    """Derive the 12-class gate tables from the scenario's models."""
    return _link_model([scenario])


def _link_model(scenarios: Sequence[ScenarioConfig]) -> LinkModel:
    """The link models of scenarios that differ at most in their protocol
    parameters, in one pass: class c of scenario p is column 12p + c of
    the priors and of both gate tables. Everything else is read from the
    first scenario."""
    first = scenarios[0]
    params = [sc.params for sc in scenarios]
    src = first.source
    det = first.detector
    ifm = first.interferometer
    t_ch = first.channel.transmission

    # per scenario (rows) and class (columns)
    p_state = np.array([p.state_probabilities() for p in params])
    values = np.array([(p.p_mu1, p.p_mu2, p.mu1, src.ratio(p)) for p in params])
    p_int, mu1, ratio = values[:, :2], values[:, 2:3], values[:, 3:]
    p_route = np.array([first.p_z_receiver, 1.0 - first.p_z_receiver])
    priors = p_state[:, CLASS_STATE] * p_int[:, CLASS_INTENSITY] * p_route[CLASS_ROUTE]

    z_off = first.framing.z_offsets
    x_off = first.framing.x_offsets
    delay = ifm.delay_ps
    leak = src.leak_fraction
    im1 = src.im1_transmission_x

    # per class: Z0 leaks into the late bin, Z1 into the early one, and
    # XPlus carries both pulses through IM1
    mu_on = mu1 * np.where(CLASS_INTENSITY == 1, ratio, 1.0)
    mu_early = mu_on * np.array([1.0, leak, im1])[CLASS_STATE] * t_ch
    mu_late = mu_on * np.array([leak, 1.0, im1])[CLASS_STATE] * t_ch
    zero = np.zeros_like(mu_on)
    to_z = CLASS_ROUTE == int(Basis.Z)

    # (component, scenario, class) arrays, read as (component, column)
    z_pos = np.repeat(
        [[z_off[Bin.EARLY]], [z_off[Bin.LATE]], [0.0]], priors.size, axis=1
    )
    z_const = np.where(to_z, np.stack((mu_early, mu_late, zero)), 0.0).reshape(3, -1)

    cross = 0.5 * ifm.visibility * np.sqrt(mu_early * mu_late)
    # the outputs lie one arm delay apart, which may differ from the
    # separation of the bin windows by up to a TDC step; like
    # link.interfere, they follow the early pulse, or the late one when
    # there is no early pulse
    t0 = np.where(mu_early > 0.0, z_off[Bin.EARLY], z_off[Bin.LATE] - delay)
    x_pos = np.stack((t0, t0 + delay, t0 + 2 * delay)).reshape(3, -1)
    x_const = np.where(
        to_z, 0.0, np.stack((mu_early, mu_early + mu_late, mu_late)) / 4.0
    ).reshape(3, -1)
    x_cos = np.where(to_z, 0.0, np.stack((zero, cross, zero))).reshape(3, -1)

    return LinkModel(
        priors=priors.ravel(),
        z_table=_build_gate_table(z_pos, z_const, np.zeros_like(z_pos), z_off, det),
        x_table=_build_gate_table(x_pos, x_const, x_cos, x_off, det),
    )


def outcome_probs(
    table: GateTable, cls: np.ndarray, cos_t: np.ndarray
) -> np.ndarray:
    """First-click outcome distribution of classes cls at phases cos_t,
    which broadcast together to a shape s: shape (*s, 5), a view of the
    component-major (5, *s) array it is computed in. Each table column
    is gathered once per entry of cls, so classes given as a column
    (m, 1) against phases (n,) gather m columns for m * n outcomes.

    Race model: photon component i clicks with q_i = 1 - exp(-eta*m_i)
    and competes at its nominal position; darks arrive as a uniform
    Poisson stream over the gate. Winner probabilities are exact
    exponential expressions in the partial mean sums; jitter enters only
    through the per-component classification weights. Sums over
    components and race intervals run in index order.
    """
    cls = np.asarray(cls, dtype=np.int64)
    cos_t = np.asarray(cos_t, dtype=np.float64)
    shape = np.broadcast(cls, cos_t).shape
    out = np.empty((COL_NONE + 1, *shape))

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
        alive_dark = np.empty((4, *shape))
        alive_dark[0] = 1.0
        np.exp(-table.eta * prefix_full, out=alive_dark[1:])
        cond = take(table.dark_win) * alive_dark / take(table.dark_width)
        dark = cond[0] * take(table.dark_span[0])
        for k in (1, 2, 3):
            dark += cond[k] * take(table.dark_span[k])
        clicks += dark

    out[COL_NONE] = np.exp(-table.lam_dark - table.eta * prefix_full[2])
    return out.transpose(*range(1, out.ndim), 0)


def static_outcome(table: GateTable) -> np.ndarray:
    """Outcome distribution for every class column when mean_cos plays
    no role (the direct path) or at a fixed cos(theta)=0."""
    n_cls = table.n_comp.size
    return outcome_probs(table, np.arange(n_cls), np.zeros(n_cls))


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
    """First burst index of each stabilization window, in increasing
    order: the lock schedule of every engine and the oracle. Lock k, for
    k < ceil(duration / interval), falls on burst
    rint(k * interval / burst_period). No array is longer than the run."""
    period = scenario.params.burst_period
    interval = scenario.interferometer.stabilization_interval
    n_events = max(1, math.ceil(scenario.duration / interval))
    n_bursts = scenario.n_bursts

    if interval < period:
        # locks less than a burst apart: every burst up to the last lock
        return np.arange(min(n_bursts, round((n_events - 1) * interval / period) + 1))
    # lock k falls on burst k or later
    k = np.arange(min(n_events, n_bursts))
    starts = np.rint(k * interval / period).astype(np.int64)
    return starts[starts < n_bursts]


def servo_excluded(
    scenario: ScenarioConfig, starts: np.ndarray, burst_idx: np.ndarray
) -> np.ndarray:
    """True for bursts consumed by stabilization (no key symbols), given
    the scenario's servo_starts.

    Windows never end before an earlier one does, so the window of the
    latest start at or before a burst decides whether one covers it."""
    idx = np.asarray(burst_idx, dtype=np.int64)
    last = starts[np.searchsorted(starts, idx, side="right") - 1]
    return idx < last + scenario.servo_bursts_per_event


def expected_cos_theta(
    scenario: ScenarioConfig,
    offset: np.ndarray,
    parity: np.ndarray,
    spread: float | np.ndarray = 0.0,
) -> np.ndarray:
    """E[cos(theta)] of bursts at these lock offsets (bursts since the
    last servo start, fractional at quadrature nodes) and fringe
    parities, under the locked random-walk model.

    After each stabilization the servo holds theta at the current fringe
    block's lock point (0 or pi); drift then accumulates as a Brownian
    walk, so E[cos(lock + W_t)] = (+/-1) * exp(-drift_sigma^2 t / 2).
    `spread`, one value or one per burst, shifts the walk coherently
    by that many std devs; the analytic variance bound uses it as a
    finite difference.
    """
    sigma = scenario.interferometer.drift_sigma
    tau = np.asarray(offset, dtype=np.float64) * scenario.params.burst_period
    sign = 1.0 - 2.0 * np.asarray(parity)
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
    rules = count_rows(CLASS_STATE, CLASS_INTENSITY, detector)
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


def none_terms(table: GateTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-class no-click factorization on a detector: P(none | c,
    theta) = K[c] * exp(-etaB[c] * cos(theta)), with etaB = 0 on the
    direct path, whose table has no phase term."""
    k = np.exp(-table.lam_dark - table.eta * table.mean_const.sum(axis=0))
    eta_b = table.eta * table.mean_cos.sum(axis=0)
    return k, eta_b


def _x_key_probs(
    model: LinkModel,
) -> Callable[[np.ndarray, np.ndarray, slice], tuple[np.ndarray, np.ndarray]]:
    """The per-slot probabilities of the tally keys on the interferometer
    detector as a function of the phase, for each scenario of the model:
    for phases cos_t (n,) and fringe parities (n,) of n bursts and a
    slice of the model's scenarios, the key probabilities (scenarios, n,
    len(TALLY_KEYS)) at each burst's own parity, and the any-click
    probability (scenarios, n). The phase-free terms are evaluated here,
    once.

    Only classes that sift_rule counts and whose mean depends on the
    phase (XPlus routed to the interferometer) need the full per-burst
    outcome evaluation; the other counted classes enter through their
    static outcome (dark clicks while the light went the other way), and
    every class through its closed-form no-click factor.
    """
    table = model.x_table
    priors = model.priors.reshape(-1, N_CLASSES)
    n_sc = priors.shape[0]
    k_fac, eta_b = (v.reshape(n_sc, N_CLASSES) for v in none_terms(table))
    phased = table.mean_cos.any(axis=0).reshape(n_sc, N_CLASSES).any(axis=0)
    # per scenario, the no-click mass of the classes with a flat fringe,
    # and that of each phased class with its eta_b
    none_mass = priors * k_fac
    none_flat = none_mass[:, ~phased].sum(axis=1)
    none_phased = none_mass[:, phased, None]
    eta_phased = eta_b[:, phased, None]
    fixed = _X_COUNTED & ~phased
    static = static_outcome(table).reshape(n_sc, N_CLASSES, -1)
    p_fixed = np.array([
        _class_key_probs(_X_WEIGHTS[:, fixed], priors[i, fixed], static[i, fixed])
        for i in range(n_sc)
    ])
    counted = np.flatnonzero(_X_COUNTED & phased)
    # table columns of the counted phased classes, per scenario
    columns = N_CLASSES * np.arange(n_sc)[:, None] + counted
    weights = _X_WEIGHTS[:, counted]

    def key_probs(
        cos_t: np.ndarray, parity: np.ndarray, sel: slice
    ) -> tuple[np.ndarray, np.ndarray]:
        n = cos_t.shape[0]
        # a sum over a middle axis adds the phased classes in class order,
        # however many scenarios the slice holds
        none_sum = none_flat[sel, None] + np.sum(
            none_phased[sel] * np.exp(-eta_phased[sel] * cos_t), axis=1
        )
        cls = columns[sel]
        probs = outcome_probs(table, cls.reshape(-1, 1), cos_t)[..., :COL_NONE]
        probs = probs.reshape(*cls.shape, n, COL_NONE)
        p = np.empty((cls.shape[0], n, len(TALLY_KEYS)))
        for odd in (0, 1):
            at = np.flatnonzero(parity == odd)
            # each burst's own parity picks the weights before the product
            x = probs[:, :, at] @ weights[odd]
            acc = p_fixed[sel, odd, None, :]
            for j, c in enumerate(counted):
                acc = acc + priors[sel, c, None, None] * x[:, j]
            p[:, at] = acc
        return p, 1.0 - none_sum

    return key_probs


def x_segments(
    scenario: ScenarioConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eligible bursts as runs of constant fringe parity and lock, with
    the stabilization windows of the scenario's servo_starts cut out, as
    run shapes (lo, n, odd, count): the lock offset of the first burst,
    the length, the fringe parity, and the number of runs of the shape.
    Each shape comes once, in the order of its first run.

    Runs are cut at every servo start, where the phase walk resets, and
    at every window end. Under fast drift they are also cut every
    1/(8 drift_sigma^2 burst_period) bursts: the drift spread
    sigma*sqrt(tau) then grows by at most 0.35 rad, and
    exp(-sigma^2 tau / 2) falls by at most e^-1/16, within one run.
    """
    n = scenario.n_bursts
    starts = servo_starts(scenario)
    block = fringe_block_bursts(scenario)
    rate = scenario.interferometer.drift_sigma ** 2 * scenario.params.burst_period
    span = min(n, max(1, int(0.125 / rate))) if rate > 0.0 else n
    cuts = np.sort(np.concatenate((
        [0, n],
        np.arange(block, n, block),
        np.arange(span, n, span),
        starts,
        np.minimum(starts + scenario.servo_bursts_per_event, n),
    )))
    first, length = cuts[:-1], np.diff(cuts)
    lo = first - starts[np.searchsorted(starts, first, side="right") - 1]
    # runs past their window; a repeated cut makes an empty run
    keep = (lo >= scenario.servo_bursts_per_event) & (length > 0)
    shape = np.stack((lo[keep], length[keep], burst_parity(first[keep], block)))
    # a stable sort keeps the runs of each shape in run order
    order = np.lexsort(shape)
    ranked = shape[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    count = np.diff(np.append(np.flatnonzero(new), order.size))
    by_run = np.argsort(order[new])
    return (*ranked[:, new][:, by_run], count[by_run])


# Quadrature of a per-burst sum over one run of lock offsets [lo, lo + n):
# Gauss-Legendre nodes integrate over [lo, lo + n - 1], and Gregory's end
# weights on the first and last four bursts turn that integral into the
# sum over the integer points. Near a lock the drift bound grows like
# sqrt(tau), which no end correction follows, so the first HEAD_BURSTS
# bursts after a lock are summed one by one; so is every run too short
# to hold a head and both ends.

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
# nodes evaluated at once: the node sets of the X-path sums are laid end
# to end and cut into chunks of this size, and each evaluation covers as
# many scenarios as keep it within this many scenario-nodes, or one.
# Beyond a few thousand nodes, the temporaries of outcome_probs cost more
# per node than the saved calls (a 300 s preset's three sets of 3024
# nodes ran 1.3 times slower as one evaluation, in a fresh process)
EVAL_NODES = 1 << 12


def _quadrature_nodes(
    scenario: ScenarioConfig,
    lo: np.ndarray,
    n: np.ndarray,
    odd: np.ndarray,
    count: np.ndarray,
    drift: bool,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Node sets of lock offsets, weights, and the fringe parity of each
    offset, such that the weighted sum of any smooth per-burst function
    f(offset, parity) equals the sum of f over the x_segments shapes
    (lo, n, odd, count), each run of a shape counted, to rounding. The
    first set integrates each interior in lock offset. With drift, a
    second set integrates it in u = sqrt(tau) (dtau = 2u du), so that f
    may also carry sqrt(tau) terms; the two share their bursts summed
    one by one, their end nodes and their parities."""
    period = scenario.params.burst_period
    whole = n <= HEAD_BURSTS + 2 * len(GREGORY)
    head = np.where(whole, n, np.where(lo < HEAD_BURSTS, HEAD_BURSTS, 0))

    # bursts summed one by one
    exact = np.repeat(lo - np.cumsum(head) + head, head) + np.arange(head.sum())

    a = (lo + head)[~whole][:, None]
    b = (lo + n - 1)[~whole][:, None]
    j = np.arange(len(GREGORY))
    ends = np.concatenate((a + j, b - j), axis=1)
    end_w = np.broadcast_to(np.tile(GREGORY, 2), ends.shape)
    interiors = [(a + (b - a) * _GL_T, (b - a) * _GL_W)]
    if drift:
        tau_a = a * period
        u_a = np.sqrt(tau_a)
        u_b = np.sqrt(b * period)
        u = u_a + (u_b - u_a) * _GL_T
        interiors.append(
            (a + (u * u - tau_a) / period, (u_b - u_a) * _GL_W * 2.0 * u / period)
        )

    shape_of = np.concatenate((
        np.repeat(np.arange(lo.size), head),
        np.repeat(np.flatnonzero(~whole), ends.shape[1]),
        np.repeat(np.flatnonzero(~whole), len(_GL_T)),
    ))
    return [
        (
            np.concatenate((exact, ends.ravel(), inner.ravel())),
            np.concatenate((np.ones(exact.size), end_w.ravel(), inner_w.ravel()))
            * count[shape_of],
            odd[shape_of],
        )
        for inner, inner_w in interiors
    ]


def analytic_expected_tallies(scenario: ScenarioConfig) -> ExpectedTallies:
    """Closed-form expected tallies for a full scenario run.

    Every tally key counts what sift_rule makes of each class's outcome
    columns. Z-path statistics are theta-free and reduce to one closed
    form per fringe parity. The X path depends on the burst only through
    the expected locked-drift phase, which is smooth within each
    x_segments run, so its per-burst sums are taken by quadrature over
    each run shape, weighted by its number of runs (_quadrature_nodes).
    The drift-bound sums carry sigma * sqrt(tau), which is not smooth at
    the lock, so they are integrated in u = sqrt(tau) instead. The node
    sets of the X-path sums are evaluated together, in fixed chunks of
    EVAL_NODES nodes (grouped_expected_tallies).
    Counts per burst and detector are Bernoulli (first click wins, dead
    time covers the rest of the burst, which ScenarioConfig enforces),
    so variances are exact binomial sums.

    This is the one-scenario case of grouped_expected_tallies.
    """
    return grouped_expected_tallies([scenario])[0]


# the fields that the scenarios of one grouped pass share: all but the
# source parameters of a grid point
_SHARED = tuple(
    [f"params.{f.name}" for f in fields(ProtocolParams)
     if f.name not in ("mu1", "mu2", "p_mu1", "p_z")]
    + [f.name for f in fields(ScenarioConfig) if f.name != "params"]
)
_shared_values = attrgetter(*_SHARED)


def grouped_expected_tallies(
    scenarios: Sequence[ScenarioConfig],
) -> list[ExpectedTallies]:
    """analytic_expected_tallies of each scenario, in one pass over
    scenarios that differ at most in mu1, mu2, p_mu1 and p_z and have
    the same fringe_block_bursts, and so share their lock schedule,
    segments, quadrature nodes and phases. These are built once, from
    the first scenario; both gate tables are built once for all
    scenarios (_link_model). The X-path node sets are laid end to end and
    cut into chunks of EVAL_NODES nodes; each chunk's phases are
    evaluated once, and each evaluation of its key probabilities covers
    as many scenarios as keep it within EVAL_NODES scenario-nodes, or one.

    Each result equals the scenario's own call bit for bit: the chunks do
    not depend on the scenarios, and a scenario's sums run over its own
    terms, in the same order and array shapes. Scenarios that differ in
    anything else raise ValueError, naming the first such field.
    """
    first = scenarios[0]
    # a grid's points share the objects of these fields, which a tuple
    # compares by identity first
    shared = _shared_values(first), fringe_block_bursts(first)
    for sc in scenarios[1:]:
        if (_shared_values(sc), fringe_block_bursts(sc)) != shared:
            name = next(
                (n for n in _SHARED if attrgetter(n)(sc) != attrgetter(n)(first)),
                "fringe_block_bursts",
            )
            raise ValueError(
                "grouped scenarios may differ only in mu1, mu2, p_mu1 and p_z, "
                f"at one fringe_block_bursts; one differs in {name}"
            )
    model = _link_model(scenarios)
    slots = first.params.symbols_per_burst
    key_probs = _x_key_probs(model)

    lo, n, odd, count = x_segments(first)
    per_parity = np.bincount(odd, weights=count * n, minlength=2).astype(np.int64)
    eligible_total = int(per_parity.sum())
    drift = first.interferometer.drift_sigma != 0.0
    nodes = _quadrature_nodes(first, lo, n, odd, count, drift)
    # (offsets, weights, parities, spread) of each X-path sum: the
    # means at spread 0 and, under drift, the +/-spread drift sums
    sets = [(*nodes[0], 0.0)] + [(*nodes[-1], s) for s in (1.0, -1.0) if drift]
    # the sets laid end to end, where each begins and ends
    ends = np.cumsum([offset.size for offset, *_ in sets]).tolist()
    begins = [0, *ends[:-1]]
    # per scenario and set, the sum over eligible bursts of the per-burst
    # click probability p of each tally key on the X detector, and of p^2;
    # the drift sums stay 0 without drift
    x_sums = np.zeros((len(scenarios), 3, 2, len(TALLY_KEYS)))
    for a in range(0, ends[-1], EVAL_NODES):
        b = min(a + EVAL_NODES, ends[-1])
        # each set that the chunk [a, b) overlaps in [start, stop), with
        # the slice of its nodes and of the chunk's columns this covers
        parts = [
            (k, slice(start - s, stop - s), slice(start - a, stop - a))
            for k, (s, e) in enumerate(zip(begins, ends))
            if (start := max(a, s)) < (stop := min(b, e))
        ]
        offset, parity = (
            np.concatenate([sets[k][i][own] for k, own, _ in parts]) for i in (0, 2)
        )
        spread = np.concatenate(
            [np.full(col.stop - col.start, sets[k][3]) for k, _, col in parts]
        )
        # row j holds the weights of part j at its columns, 0 elsewhere
        w = np.zeros((len(parts), b - a))
        for j, (k, own, col) in enumerate(parts):
            w[j, col] = sets[k][1][own]
        cos_t = expected_cos_theta(first, offset, parity, spread)
        step = max(1, EVAL_NODES // (b - a))
        for i in range(0, len(scenarios), step):
            p, q_any = key_probs(cos_t, parity, slice(i, i + step))
            p *= duty_factor(q_any, slots)[..., None]  # per burst
            sums = np.stack((w @ p, w @ (p * p)), axis=-2)  # (points, parts, 2, keys)
            x_sums[i : i + step, [k for k, *_ in parts]] += sums

    static_z = static_outcome(model.z_table).reshape(len(scenarios), N_CLASSES, -1)
    k_z = none_terms(model.z_table)[0].reshape(len(scenarios), N_CLASSES)
    priors = model.priors.reshape(len(scenarios), N_CLASSES)
    symbols_sent = eligible_total * slots
    out = []
    for i, sc in enumerate(scenarios):
        x_mean, x_sq = x_sums[i, 0]
        x_shift = (x_sums[i, 1, 0] - x_sums[i, 2, 0]) / 2.0  # half the difference
        q_any_z = float(np.dot(priors[i], 1.0 - k_z[i]))
        # per burst and fringe parity
        pz = _class_key_probs(_Z_WEIGHTS, priors[i], static_z[i]) * duty_factor(
            q_any_z, slots
        )
        z_mean = per_parity @ pz
        z_var = per_parity @ (pz * (1.0 - pz))
        out.append(ExpectedTallies(
            means=dict(zip(TALLY_KEYS, (z_mean + x_mean).tolist())),
            variances=dict(zip(TALLY_KEYS, (z_var + x_mean - x_sq).tolist())),
            drift_variances=dict(zip(TALLY_KEYS, (x_shift**2).tolist())),
            elapsed_s=symbols_sent * sc.params.symbol_period,
            eligible_bursts=eligible_total,
            symbols_sent=symbols_sent,
        ))
    return out
