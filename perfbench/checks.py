"""Correctness checks for the benchmark's workloads.

Every check compares a program output with a figure computed here from
the scenario alone, or with a property the method must have. None
compares with a stored copy of an earlier output. A check returns a list
of problems; an empty list means it passed.

Run outputs are first flattened into plain dicts (`run_record`,
`oracle_record`) so that the self-test can corrupt any tally or ledger
entry, including into states the program's own types refuse to hold.
"""

from __future__ import annotations

import itertools
import math

from tbqkd.keyrate import keyrate
from tbqkd.sift import TALLY_KEYS, TallyCounts

# The paper's maximum extractable key rates are 3.0 and 0.57 kb/s; the
# acceptance gate's criterion [4] accepts a factor of two either way.
PAPER_BANDS = {7.0: (1500.0, 6000.0), 14.0: (285.0, 1140.0)}

# Copies of one run analysed as one block: the block-length limit of the
# run's measured rates, as in the acceptance gate.
LIMIT_BLOCKS = 10**9

N_PAIRS = (("n_z_mu1", "m_z_mu1"), ("n_z_mu2", "m_z_mu2"),
           ("n_x_mu1", "m_x_mu1"), ("n_x_mu2", "m_x_mu2"))


def run_record(outcome) -> dict:
    """Plain copy of a RunOutcome."""
    t = outcome.tallies
    s = outcome.sift_stats
    return {
        "tallies": {k: int(getattr(t, k)) for k in TALLY_KEYS},
        "sent": [list(row) for row in t.sent_counts],
        "elapsed_s": float(outcome.elapsed_s),
        "eligible_bursts": int(outcome.eligible_bursts),
        "total_bursts": int(outcome.total_bursts),
        "symbols_sent": int(outcome.symbols_sent),
        "cross": int(s.discarded_cross_basis),
        "outside": int(s.discarded_outside),
        "sideband": int(s.discarded_sideband),
        "stabilization": int(s.discarded_stabilization),
    }


def oracle_record(expected) -> dict:
    """Plain copy of an ExpectedTallies."""
    return {
        "means": {k: float(expected.means[k]) for k in TALLY_KEYS},
        "variances": {k: float(expected.variances[k]) for k in TALLY_KEYS},
        "drift_variances": {
            k: float(expected.drift_variances[k]) for k in TALLY_KEYS
        },
        "eligible_bursts": int(expected.eligible_bursts),
        "symbols_sent": int(expected.symbols_sent),
        "elapsed_s": float(expected.elapsed_s),
    }


def first_clicks(rec: dict) -> int:
    """Attributed first clicks: every sifted or discarded event."""
    t = rec["tallies"]
    return (t["n_z_mu1"] + t["n_z_mu2"] + t["n_x_mu1"] + t["n_x_mu2"]
            + rec["cross"] + rec["outside"] + rec["sideband"]
            + rec["stabilization"])


def sifted(rec: dict) -> int:
    t = rec["tallies"]
    return t["n_z_mu1"] + t["n_z_mu2"] + t["n_x_mu1"] + t["n_x_mu2"]


# ---------------------------------------------------------------------------
# figures computed from the scenario alone


def expected_bursts(sc) -> tuple[int, int]:
    """(total bursts, eligible bursts) from the run plan: stabilization
    windows of servo_bursts_per_event bursts open at every multiple of
    the stabilization interval and carry no key symbols."""
    period = sc.params.burst_period
    total = max(1, round(sc.duration / period))
    width = sc.servo_bursts_per_event
    if width <= 0:
        return total, total
    interval = sc.interferometer.stabilization_interval
    n_windows = max(1, math.ceil(sc.duration / interval))
    excluded = 0
    covered_to = 0
    for k in range(n_windows):
        lo = max(round(k * interval / period), covered_to)
        hi = min(round(k * interval / period) + width, total)
        if hi > lo:
            excluded += hi - lo
            covered_to = hi
    return total, total - excluded


def channel_transmission(sc) -> float:
    ch = sc.channel
    loss = ch.loss_db if ch.loss_db is not None else ch.alpha_db_per_km * ch.length_km
    return 10.0 ** (-loss / 10.0)


def z_first_click_estimate(sc) -> float:
    """Expected sifted Z tallies per eligible burst.

    Per slot the direct detector clicks with Poisson probability
    1 - exp(-dark - eta * t * mu) on the light routed to it (both bins,
    leakage included) and with the dark probability alone on slots routed
    to the interferometer. Only a burst's first click counts, so a burst
    yields sum_{s<S} (1-q)^s * p_sift = (1 - (1-q)^S) / q * p_sift, where
    p_sift is the per-slot probability of a click on a Z-sent slot inside
    the early or late window. Gaussian jitter sets the window acceptance.
    """
    p = sc.params
    src = sc.source
    det = sc.detector
    t = channel_transmission(sc)
    eta = det.efficiency
    dark = det.dark_prob_per_ns * det.gate_width * 1e9
    leak = 0.0 if math.isinf(src.extinction_ratio_db) else 10.0 ** (
        -src.extinction_ratio_db / 10.0)
    ratio = src.im_ratio if src.im_ratio is not None else p.mu2 / p.mu1
    mu_on = (p.mu1, p.mu1 * ratio)
    p_int = (p.p_mu1, 1.0 - p.p_mu1)
    p_state = (p.p_z / 2.0, p.p_z / 2.0, 1.0 - p.p_z)
    pzr = sc.p_z_receiver
    half = det.bin_window / 2.0
    accept = math.erf(half / (det.jitter_sigma * math.sqrt(2.0))) if det.jitter_sigma > 0 else 1.0
    dark_in_bins = dark * 2.0 * det.bin_window / det.gate_width

    q = 0.0
    p_sift = 0.0
    for s, ps in enumerate(p_state):
        for k, pk in enumerate(p_int):
            if s < 2:
                mu = t * mu_on[k] * (1.0 + leak)
            else:
                mu = t * 2.0 * mu_on[k] * src.im1_transmission_x
            q += ps * pk * (pzr * -math.expm1(-dark - eta * mu)
                            + (1.0 - pzr) * -math.expm1(-dark))
            if s < 2:
                p_sift += ps * pk * (pzr * -math.expm1(-eta * mu) * accept
                                     + dark_in_bins)
    slots = p.symbols_per_burst
    return -math.expm1(slots * math.log1p(-q)) / q * p_sift


def block_limit_rate(sc, tallies: dict, elapsed_s: float, symbols_sent: int) -> float:
    """The unchanged keyrate() of LIMIT_BLOCKS copies of a tally set. Real
    valued tallies (oracle means) are scaled before rounding."""
    k = LIMIT_BLOCKS
    scaled = {key: round(k * tallies[key]) for key in TALLY_KEYS}
    t = TallyCounts(elapsed_s=k * elapsed_s, **scaled)
    return keyrate(t, sc.params, sc.security, symbols_sent=k * symbols_sent).skr


# ---------------------------------------------------------------------------
# checks


def check_run_identities(sc, rec: dict) -> list[str]:
    """Burst, symbol and time bookkeeping of one engine run."""
    out = []
    total, eligible = expected_bursts(sc)
    slots = sc.params.symbols_per_burst
    if rec["total_bursts"] != total:
        out.append(f"total bursts {rec['total_bursts']} != {total}")
    if rec["eligible_bursts"] != eligible:
        out.append(f"eligible bursts {rec['eligible_bursts']} != {eligible}")
    if rec["symbols_sent"] != eligible * slots:
        out.append(f"symbols sent {rec['symbols_sent']} != {eligible} x {slots}")
    elapsed = eligible * slots * sc.params.symbol_period
    if not math.isclose(rec["elapsed_s"], elapsed, rel_tol=1e-9):
        out.append(f"elapsed {rec['elapsed_s']} s != {elapsed} s")
    ledger = sum(sum(row) for row in rec["sent"])
    if ledger != rec["symbols_sent"]:
        out.append(f"sent ledger sums to {ledger}, not {rec['symbols_sent']}")
    if any(v < 0 for row in rec["sent"] for v in row):
        out.append("negative sent count")
    t = rec["tallies"]
    for n_key, m_key in N_PAIRS:
        if not 0 <= t[m_key] <= t[n_key]:
            out.append(f"need 0 <= {m_key} <= {n_key}: {t[m_key]} > {t[n_key]}")
    return out


def check_sent_multinomial(sc, rec: dict, nsigma: float = 5.0) -> list[str]:
    """Each sent-count cell lies within nsigma of its multinomial mean."""
    p = sc.params
    p_state = (p.p_z / 2.0, p.p_z / 2.0, 1.0 - p.p_z)
    p_int = (p.p_mu1, 1.0 - p.p_mu1)
    n = rec["symbols_sent"]
    out = []
    for s, ps in enumerate(p_state):
        for k, pk in enumerate(p_int):
            prob = ps * pk
            mean = n * prob
            sd = math.sqrt(n * prob * (1.0 - prob))
            obs = rec["sent"][s][k]
            if abs(obs - mean) > nsigma * sd:
                out.append(f"sent[{s}][{k}] = {obs}, expected {mean:.0f} +- {sd:.0f}")
    return out


# The estimate leaves out the TDC grid at the window edges, the race
# between photons and darks inside one gate, and the order of the leak
# and the main pulse. Together they put it 0.11% below the closed-form
# oracle at 0, 7 and 14 dB; the tolerance is nine times that.
Z_ESTIMATE_REL_TOL = 0.01


def check_z_first_clicks(sc, rec: dict, nsigma: float = 5.0) -> list[str]:
    """n_z per eligible burst against z_first_click_estimate."""
    t = rec["tallies"]
    n_z = t["n_z_mu1"] + t["n_z_mu2"]
    mean = z_first_click_estimate(sc) * rec["eligible_bursts"]
    tol = Z_ESTIMATE_REL_TOL * mean + nsigma * math.sqrt(mean)
    if abs(n_z - mean) > tol:
        return [f"n_z = {n_z}, first-click estimate {mean:.0f} +- {tol:.0f}"]
    return []


def check_band(name: str, rate: float, band: tuple[float, float]) -> list[str]:
    lo, hi = band
    if not lo <= rate <= hi:
        return [f"{name} block-limit key rate {rate:.0f} b/s outside {lo:.0f}..{hi:.0f}"]
    return []


def check_strictly_decreasing(rates: list[tuple[str, float]]) -> list[str]:
    out = []
    for (na, a), (nb, b) in zip(rates, rates[1:]):
        if not a > b:
            out.append(f"key rate does not fall from {na} ({a:.0f}) to {nb} ({b:.0f})")
    return out


def check_oracle_agreement(
    name: str, exp: dict, rec: dict, nsigma: float, plus: float, drift: bool
) -> list[str]:
    """Every tally key within nsigma standard deviations (+ plus counts)
    of the oracle mean; with drift, the drift variance bound joins the
    statistical variance."""
    out = []
    for key in TALLY_KEYS:
        var = exp["variances"][key] + (exp["drift_variances"][key] if drift else 0.0)
        sd = math.sqrt(max(var, 0.0))
        obs = rec["tallies"][key]
        if abs(obs - exp["means"][key]) > nsigma * sd + plus:
            out.append(f"{name} {key} = {obs}, oracle {exp['means'][key]:.1f} +- {sd:.1f}")
    return out


def check_oracle_identities(sc, exp: dict) -> list[str]:
    _, eligible = expected_bursts(sc)
    slots = sc.params.symbols_per_burst
    out = []
    if exp["eligible_bursts"] != eligible:
        out.append(f"oracle eligible bursts {exp['eligible_bursts']} != {eligible}")
    if exp["symbols_sent"] != eligible * slots:
        out.append(f"oracle symbols sent {exp['symbols_sent']} != {eligible * slots}")
    return out


def check_events_accounted(n_events: int, rec: dict) -> list[str]:
    """Sifting loses no event: tallied plus discarded equals emitted."""
    if first_clicks(rec) != n_events:
        return [f"{n_events} detection events, {first_clicks(rec)} tallied or discarded"]
    return []


def grid_candidates(axes) -> list[tuple[float, float, float, float]]:
    """The grid points optimize_params must evaluate: the cartesian
    product of the sorted distinct axis values with mu2 < mu1."""
    sorted_axes = [sorted(set(a)) for a in axes]
    return [
        pt for pt in itertools.product(*sorted_axes)
        if 0.0 < pt[1] < pt[0] and 0.0 < pt[2] < 1.0 and 0.0 < pt[3] < 1.0
    ]


def check_grid(axes, points: list[tuple], best: tuple, best_skl: int) -> list[str]:
    """points are (mu1, mu2, p_mu1, p_z, skl); the best point carries the
    highest skl, ties going to the smallest parameter tuple."""
    out = []
    want = grid_candidates(axes)
    got = [tuple(p[:4]) for p in points]
    if sorted(got) != sorted(want):
        out.append(f"grid evaluated {len(got)} points, expected {len(want)}")
    if not points:
        return out + ["empty grid"]
    top = max(p[4] for p in points)
    if best_skl != top:
        out.append(f"best skl {best_skl} != highest grid skl {top}")
    first_top = min(tuple(p[:4]) for p in points if p[4] == top)
    if tuple(best) != first_top:
        out.append(f"best point {best} is not the first of the top points {first_top}")
    return out


def check_same(name: str, a: dict, b: dict) -> list[str]:
    """Repeated runs of one scenario give identical records."""
    return [] if a == b else [f"{name}: repeated run differs from the first"]
