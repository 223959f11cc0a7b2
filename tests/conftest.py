"""Shared fixtures, row-major references and the acceptance-summary hook.

Unit tests needing a full end-to-end run use small scenarios built by
the make_scenario factory: short duration, servo exclusion off, drift
off, so a run finishes in well under a second while every slot class
still collects counts.

row_major_outcome_probs and row_major_attribute_bins are the slot-major
forms of slotmodel.outcome_probs and the batch engine's bin attribution:
one row per slot, the per-class tables gathered row by row, sums taken
with einsum. The component-major code must reproduce them bit for bit.
scalar_link_model builds the gate tables class by class and component
by component, as slotmodel.build_link_model must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from tbqkd import (
    Basis,
    Bin,
    ChannelModel,
    ClockConfig,
    DetectorModel,
    InterferometerModel,
    ProtocolParams,
    ScenarioConfig,
    SourceConfig,
    State,
)
from tbqkd.link import bin_regions
from tbqkd.slotmodel import (
    CLASS_INTENSITY,
    CLASS_ROUTE,
    CLASS_STATE,
    COL_OUTSIDE,
    N_CLASSES,
    GateTable,
    LinkModel,
)

# Property tests draw the same examples on every run and keep no example
# database between runs, so each run of the suite gives the same verdict.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Populated by test_acceptance.py, echoed at the end of the run so the
# per-criterion verdict lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def small_scenario(**overrides) -> ScenarioConfig:
    base = ScenarioConfig(
        params=ProtocolParams(),
        clock=ClockConfig(f_ref=57e6, f_out=684e6),
        source=SourceConfig(extinction_ratio_db=16.8, im1_transmission_x=0.5),
        channel=ChannelModel(loss_db=3.0),
        detector=DetectorModel(efficiency=0.10, dark_prob_per_ns=1e-6),
        interferometer=InterferometerModel(
            delay=1.462e-9, visibility=0.98, drift_sigma=0.0
        ),
        p_z_receiver=0.5,
        duration=0.5,
        seed=11,
        fringe_block_x_symbols=2000,
        servo_bursts_per_event=0,
    )
    return base.replace(**overrides) if overrides else base


def _row_major(arr: np.ndarray) -> np.ndarray:
    """A component-major GateTable array with the class moved first."""
    return np.ascontiguousarray(np.moveaxis(arr, -1, 0))


def row_major_outcome_probs(table, cls, cos_t) -> np.ndarray:
    """slotmodel.outcome_probs evaluated slot-major, shape (n, 5)."""
    n_comp = table.n_comp
    pos, mean_const, mean_cos = (
        _row_major(a) for a in (table.pos, table.mean_const, table.mean_cos)
    )
    comp_w, dark_edges, dark_span = (
        _row_major(a) for a in (table.comp_w, table.dark_edges, table.dark_span)
    )
    cls = np.asarray(cls, dtype=np.int64)
    cos_t = np.broadcast_to(np.asarray(cos_t, dtype=np.float64), cls.shape)
    n = cls.shape[0]
    out = np.zeros((n, 5))

    means = mean_const[cls] + mean_cos[cls] * cos_t[:, None]  # (n,3)
    means = np.maximum(means, 0.0)
    active = np.arange(3)[None, :] < n_comp[cls][:, None]
    means = np.where(active, means, 0.0)

    lam = table.lam_dark
    gate = table.gate_ps
    prefix = np.cumsum(means, axis=1) - means  # sum over j < i
    q_i = -np.expm1(-table.eta * means)
    alive_photon = np.exp(-table.eta * prefix)
    dark_before = np.exp(-lam * pos[cls] / gate) if lam > 0.0 else np.ones((n, 3))
    win_photon = np.where(active, q_i * alive_photon * dark_before, 0.0)  # (n,3)
    out[:, :4] += np.einsum("ni,nib->nb", win_photon, comp_w[cls])

    if lam > 0.0:
        edges = dark_edges[cls]  # (n,5)
        decay = np.exp(-lam * edges / gate)
        dark_win = decay[:, :4] - decay[:, 1:]  # (n,4) mass per interval
        # photons at or before the interval must all miss
        prefix_full = np.cumsum(means, axis=1)  # (n,3) sums through comp i
        alive_dark = np.ones((n, 4))
        alive_dark[:, 1:] = np.exp(-table.eta * prefix_full)
        widths = (edges[:, 1:] - edges[:, :4]) / gate
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(widths > 0.0, dark_win * alive_dark / widths, 0.0)
        out[:, :4] += np.einsum("nk,nkb->nb", cond, dark_span[cls])

    out[:, 4] = np.exp(-lam - table.eta * means.sum(axis=1))
    return out


def row_major_attribute_bins(table, cls, cos_t, u) -> np.ndarray:
    """Bin columns (0..3) of clicking slots of classes cls at phase cos_t,
    from their attribution uniforms u, conditioned on a click."""
    probs = row_major_outcome_probs(table, cls, cos_t)
    q_any = 1.0 - probs[:, 4]
    cond = probs[:, :4] / np.maximum(q_any, 1e-300)[:, None]
    cum = np.cumsum(cond, axis=1)
    return np.minimum((u[:, None] > cum).sum(axis=1), 3)


def _scalar_gate_table(components, bin_centers, det) -> GateTable:
    """components[c] = [(pos_ps, mean_const, mean_cos), ...]."""
    gate = float(det.gate_width_ps)
    sigma = det.jitter_sigma_ps
    regions = bin_regions(bin_centers, det)

    def phi(z: float) -> float:
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    n_comp = np.zeros(N_CLASSES, dtype=np.int64)
    pos = np.zeros((3, N_CLASSES))
    a_arr = np.zeros((3, N_CLASSES))
    b_arr = np.zeros((3, N_CLASSES))
    w_arr = np.zeros((3, 4, N_CLASSES))
    edges = np.zeros((5, N_CLASSES))
    spans = np.zeros((4, 4, N_CLASSES))

    for c in range(N_CLASSES):
        comps = sorted(x for x in components[c] if x[1] > 0.0 or x[2] != 0.0)
        n_comp[c] = len(comps)
        for i, (x, a, b) in enumerate(comps):
            pos[i, c] = x
            a_arr[i, c] = a
            b_arr[i, c] = b
            for bn, (lo, hi) in regions.items():
                if sigma > 0.0:
                    w = phi((hi - x) / sigma) - phi((lo - x) / sigma)
                else:
                    w = 1.0 if lo <= x < hi else 0.0
                w_arr[i, bn, c] = w
            w_arr[i, COL_OUTSIDE, c] = max(
                0.0, 1.0 - w_arr[i, : COL_OUTSIDE + 1, c].sum()
            )

        bounds = [0.0] + [pos[i, c] for i in range(n_comp[c])] + [gate]
        bounds += [gate] * (5 - len(bounds))
        edges[:, c] = bounds
        for k in range(4):
            lo_k, hi_k = edges[k, c], edges[k + 1, c]
            if hi_k <= lo_k:
                continue
            total = (hi_k - lo_k) / gate
            binned = 0.0
            for bn, (lo, hi) in regions.items():
                ov = max(0.0, min(hi, hi_k, gate) - max(lo, lo_k, 0.0))
                frac = ov / gate
                spans[k, bn, c] = frac
                binned += frac
            spans[k, COL_OUTSIDE, c] = max(0.0, total - binned)

    lam = det.dark_prob_per_gate
    decay = np.exp(-lam * edges / gate)
    widths = (edges[1:] - edges[:4]) / gate
    is_open = widths > 0.0
    return GateTable(
        n_comp=n_comp,
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


def scalar_link_model(scenario: ScenarioConfig) -> LinkModel:
    """slotmodel.build_link_model evaluated class by class."""
    params = scenario.params
    src = scenario.source
    ifm = scenario.interferometer
    t_ch = scenario.channel.transmission

    p_state = params.state_probabilities()
    p_int = np.array([params.p_mu1, params.p_mu2])
    p_route = np.array([scenario.p_z_receiver, 1.0 - scenario.p_z_receiver])
    priors = np.zeros(N_CLASSES)
    for c in range(N_CLASSES):
        priors[c] = (
            p_state[CLASS_STATE[c]]
            * p_int[CLASS_INTENSITY[c]]
            * p_route[CLASS_ROUTE[c]]
        )

    z_off = scenario.framing.z_offsets
    x_off = scenario.framing.x_offsets
    delay = ifm.delay_ps
    leak = src.leak_fraction
    ratio = src.ratio(params)

    z_comps = [[] for _ in range(N_CLASSES)]
    x_comps = [[] for _ in range(N_CLASSES)]
    for c in range(N_CLASSES):
        state = State(int(CLASS_STATE[c]))
        mu_on = params.mu1 * (ratio if CLASS_INTENSITY[c] == 1 else 1.0)
        if state == State.Z0:
            mu_early, mu_late = mu_on, mu_on * leak
        elif state == State.Z1:
            mu_early, mu_late = mu_on * leak, mu_on
        else:
            mu_early = mu_late = mu_on * src.im1_transmission_x
        mu_early *= t_ch
        mu_late *= t_ch
        if CLASS_ROUTE[c] == int(Basis.Z):
            z_comps[c] = [
                (z_off[Bin.EARLY], mu_early, 0.0),
                (z_off[Bin.LATE], mu_late, 0.0),
            ]
        else:
            cross = 0.5 * ifm.visibility * math.sqrt(mu_early * mu_late)
            t0 = z_off[Bin.EARLY] if mu_early > 0.0 else z_off[Bin.LATE] - delay
            x_comps[c] = [
                (t0, mu_early / 4.0, 0.0),
                (t0 + delay, (mu_early + mu_late) / 4.0, cross),
                (t0 + 2 * delay, mu_late / 4.0, 0.0),
            ]

    return LinkModel(
        priors=priors,
        z_table=_scalar_gate_table(z_comps, z_off, scenario.detector),
        x_table=_scalar_gate_table(x_comps, x_off, scenario.detector),
    )


@pytest.fixture
def make_scenario():
    return small_scenario


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
