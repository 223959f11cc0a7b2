"""Shared fixtures, row-major references and the acceptance-summary hook.

Unit tests needing a full end-to-end run use small scenarios built by
the make_scenario factory: short duration, servo exclusion off, drift
off, so a run finishes in well under a second while every slot class
still collects counts.

row_major_outcome_probs and row_major_attribute_bins are the slot-major
forms of slotmodel.outcome_probs and the batch engine's bin attribution:
one row per slot, the per-class tables gathered row by row, sums taken
with einsum. The component-major code must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from tbqkd import (
    ChannelModel,
    ClockConfig,
    DetectorModel,
    InterferometerModel,
    ProtocolParams,
    ScenarioConfig,
    SourceConfig,
)

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


@pytest.fixture
def make_scenario():
    return small_scenario


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
