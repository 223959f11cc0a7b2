"""End-to-end engine behavior: determinism, the reference engine's slot
cap, and statistical agreement with the closed-form expectations.

The batch and reference engines share nothing but the scenario and the
slot-class definitions, so checking both against analytic_expected_tallies
cross-validates the vectorized race sampling against the event-by-event
optical chain.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tbqkd.pipeline as pipeline
from tbqkd import (
    ChannelModel,
    ProtocolParams,
    analytic_expected_tallies,
    load_preset,
    run_simulation,
    run_simulation_reference,
    simulate_and_analyze,
)
from tbqkd.errors import ScheduleViolationError
from tbqkd.pipeline import CHUNK_BURSTS, REFERENCE_MAX_SLOTS, RunOutcome
from tbqkd.protocol import Basis, IntensityClass, State
from tbqkd.sift import COUNT_ROW, TALLY_KEYS, SiftResult, count_clicks
from tbqkd.slotmodel import (
    CLASS_INTENSITY,
    CLASS_STATE,
    COL_NONE,
    N_CLASSES,
    build_link_model,
    burst_parity,
    class_index,
    fringe_block_bursts,
    none_terms,
    servo_excluded,
    servo_starts,
    static_outcome,
)

from conftest import row_major_attribute_bins, row_major_outcome_probs, small_scenario


def assert_within_4_sigma(outcome, expected):
    for key in TALLY_KEYS:
        obs = getattr(outcome.tallies, key)
        sd = expected.variances[key] ** 0.5
        # +2 keeps near-zero Poisson keys from tripping on a two-count
        # fluctuation
        assert abs(obs - expected.means[key]) <= 4.0 * sd + 2.0, (
            f"{key}: obs={obs} mean={expected.means[key]:.1f} sd={sd:.2f}"
        )


@pytest.fixture(scope="module")
def batch_run():
    sc = small_scenario(duration=0.5)
    return sc, run_simulation(sc)


class TestBatchEngine:
    def test_deterministic_for_fixed_seed(self, batch_run):
        sc, first = batch_run
        again = run_simulation(sc)
        assert again.tallies == first.tallies
        assert again.sift_stats == first.sift_stats

    def test_seed_changes_realization(self, batch_run):
        sc, first = batch_run
        other = run_simulation(sc.replace(seed=sc.seed + 1))
        assert other.tallies != first.tallies

    def test_agrees_with_analytic_expectations(self, batch_run):
        sc, outcome = batch_run
        assert_within_4_sigma(outcome, analytic_expected_tallies(sc))

    def test_bookkeeping(self, batch_run):
        sc, outcome = batch_run
        assert outcome.total_bursts == sc.n_bursts
        assert outcome.eligible_bursts == sc.n_bursts  # servo off
        assert outcome.symbols_sent == outcome.eligible_bursts * 20
        assert outcome.elapsed_s == pytest.approx(
            outcome.symbols_sent * sc.params.symbol_period
        )
        assert outcome.tallies.symbols_sent == outcome.symbols_sent

    def test_servo_windows_are_skipped(self):
        ifm = dataclasses.replace(
            small_scenario().interferometer, stabilization_interval=0.02
        )
        sc = small_scenario(
            duration=0.1, interferometer=ifm, servo_bursts_per_event=4
        )
        outcome = run_simulation(sc)
        lost = 4 * len(servo_starts(sc))
        assert outcome.eligible_bursts == sc.n_bursts - lost
        assert outcome.symbols_sent == outcome.eligible_bursts * 20

    def test_servo_rows_match_the_excluded_bursts(self):
        # windows of 3 bursts every 10.4 bursts, against every range start
        ifm = dataclasses.replace(
            small_scenario().interferometer, stabilization_interval=10.4 * 24e-6
        )
        sc = small_scenario(duration=0.01, interferometer=ifm, servo_bursts_per_event=3)
        starts = servo_starts(sc)
        for lo in range(sc.n_bursts):
            hi = min(lo + 17, sc.n_bursts)
            want = np.flatnonzero(servo_excluded(sc, starts, np.arange(lo, hi)))
            got = pipeline._servo_rows(sc, starts, lo, hi)
            np.testing.assert_array_equal(got, want)

    def test_working_set_is_a_few_blocks(self):
        # the engine holds a block of each uniform stream, the candidates
        # of one chunk and attribution slices; a buffer sized by the chunk
        # (32768 bursts x 20 slots x 8 B = 5.2 MB) would break the bound
        sc = load_preset("link-7db").replace(duration=2.0)
        tracemalloc.start()
        try:
            run_simulation(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


@pytest.fixture(scope="module")
def ref_run():
    sc = small_scenario(duration=0.05)
    return sc, run_simulation_reference(sc)


class TestReferenceEngine:
    def test_deterministic_for_fixed_seed(self, ref_run):
        sc, first = ref_run
        assert run_simulation_reference(sc).tallies == first.tallies

    def test_agrees_with_analytic_expectations(self, ref_run):
        sc, outcome = ref_run
        assert_within_4_sigma(outcome, analytic_expected_tallies(sc))

    def test_every_event_is_accounted(self, ref_run):
        _, outcome = ref_run
        stats = outcome.sift_stats
        t = outcome.tallies
        sifted = t.n_z + t.n_x
        assert sifted > 0
        assert stats.discarded_cross_basis > 0  # darks on mismatched slots
        assert outcome.symbols_sent == outcome.eligible_bursts * 20

    def test_slot_cap(self):
        sc = small_scenario(duration=10.0)
        assert sc.n_bursts * 20 > REFERENCE_MAX_SLOTS
        with pytest.raises(ScheduleViolationError, match="caps"):
            run_simulation_reference(sc)


class TestEngineCrossValidation:
    def test_both_engines_match_the_same_expectations(self):
        sc = small_scenario(duration=0.05, seed=23)
        expected = analytic_expected_tallies(sc)
        assert_within_4_sigma(run_simulation(sc), expected)
        assert_within_4_sigma(run_simulation_reference(sc), expected)

    def test_servo_exclusion_is_consistent(self):
        ifm = dataclasses.replace(
            small_scenario().interferometer, stabilization_interval=0.01
        )
        sc = small_scenario(
            duration=0.03, interferometer=ifm, servo_bursts_per_event=7
        )
        batch = run_simulation(sc)
        ref = run_simulation_reference(sc)
        assert batch.eligible_bursts == ref.eligible_bursts
        assert batch.symbols_sent == ref.symbols_sent


def drifting_scenario(**overrides):
    ifm = dataclasses.replace(
        small_scenario().interferometer,
        drift_sigma=0.5,
        stabilization_interval=0.02,
    )
    return small_scenario(interferometer=ifm, servo_bursts_per_event=4).replace(
        **overrides
    )


def multi_chunk_drift_scenario():
    """Drift and servo over three chunks, with a lock on the boundary
    of the second and third."""
    return drifting_scenario(duration=2.0, seed=31).replace(
        interferometer=dataclasses.replace(
            drifting_scenario().interferometer,
            stabilization_interval=2 * CHUNK_BURSTS * 24e-6 / 3,
        )
    )


def whole_run_walk(scenario, rng):
    """The drift walk drawn as one array over the whole run, one normal
    draw per stabilization segment, reset to 0 at each segment start."""
    n = scenario.n_bursts
    step = scenario.interferometer.drift_sigma * math.sqrt(
        scenario.params.burst_period
    )
    walk = np.empty(n)
    starts = [int(s) for s in servo_starts(scenario)]
    for lo, hi in zip(starts, starts[1:] + [n]):
        if hi <= lo:
            continue
        seg = rng.normal(0.0, step, hi - lo)
        seg[0] = 0.0
        walk[lo:hi] = np.cumsum(seg)
    return walk


class TestDriftWalk:
    """The walk is generated chunk by chunk; draws and running sums must
    be those of the whole-run walk. Locks every 65536/3 bursts put resets
    inside chunks and on the chunk boundary 65536, and carry the walk
    across the chunk boundary 32768."""

    @pytest.fixture(scope="class")
    def scenario(self):
        sc = multi_chunk_drift_scenario()
        starts = set(servo_starts(sc).tolist())
        assert 2 * CHUNK_BURSTS in starts and CHUNK_BURSTS not in starts
        assert len(starts) == 4
        return sc

    def test_chunks_reproduce_the_whole_run_walk(self, scenario):
        self.check_whole_run_walk(scenario)

    @pytest.mark.parametrize("interval", [2.5 * 24e-6, 1e-5], ids=["2.5", "0.42"])
    def test_dense_resets_reproduce_the_whole_run_walk(self, scenario, interval):
        # a lock every 2.5 bursts makes runs of 2 and 3 bursts; one every
        # 0.42 bursts (10 us) makes every burst a servo start
        self.check_whole_run_walk(scenario.replace(
            interferometer=dataclasses.replace(
                scenario.interferometer, stabilization_interval=interval
            )
        ))

    def test_only_the_walk_outlives_a_yield(self, scenario):
        # the second chunk holds the reset at 43690, which pads the runs
        # of its piece into rows
        walks = pipeline._theta_walk(
            scenario, servo_starts(scenario), np.random.default_rng(5)
        )
        next(walks)
        walk = next(walks)
        held = {
            name for name, value in walks.gi_frame.f_locals.items()
            if isinstance(value, np.ndarray)
        }
        assert held == {"walk", "resets"}
        assert walks.gi_frame.f_locals["walk"] is walk

    @staticmethod
    def check_whole_run_walk(scenario):
        chunks = list(pipeline._theta_walk(
            scenario, servo_starts(scenario), np.random.default_rng(5)
        ))
        assert [c.size for c in chunks[:-1]] == [CHUNK_BURSTS] * (len(chunks) - 1)
        np.testing.assert_array_equal(
            np.concatenate(chunks),
            whole_run_walk(scenario, np.random.default_rng(5)),
        )

    def test_batch_tallies_match_the_whole_run_walk(self, scenario, monkeypatch):
        chunked = run_simulation(scenario)

        def whole(sc, starts, rng):
            walk = whole_run_walk(sc, rng)
            for lo in range(0, walk.size, CHUNK_BURSTS):
                yield walk[lo:lo + CHUNK_BURSTS]

        monkeypatch.setattr(pipeline, "_theta_walk", whole)
        again = run_simulation(scenario)
        assert again.tallies == chunked.tallies
        assert again.sift_stats == chunked.sift_stats

    def test_batch_engine_agrees_with_the_oracle_under_drift(self):
        # 25 lock intervals of 833.3 bursts with 4-burst servo windows:
        # the oracle's segment boundaries meet sampled data
        sc = drifting_scenario(duration=0.5, seed=17)
        assert_within_4_sigma(run_simulation(sc), analytic_expected_tallies(sc))


def matched_framing(shift, gap_bits, **overrides):
    """small_scenario under another framing, the interferometer delay set
    to the new early/late separation; extinction stays finite, so Z
    states carry a leak pulse one separation from the real one."""
    sep_ps = (gap_bits + 1) * small_scenario().clock.bit_duration_ps
    ifm = dataclasses.replace(small_scenario().interferometer, delay=sep_ps * 1e-12)
    return small_scenario(
        shift=shift, gap_bits=gap_bits, interferometer=ifm, **overrides
    )


# (seed, X symbols per fringe block, f_out, interferometer delay, jitter,
# TDC step, bin window) of windows only a few TDC steps wide, where every
# engine must apply the one bin rule of link.bin_regions
TDC_GRID_CASES = {
    # a 1502 ps arm delay against the 1462 ps separation, one 40 ps TDC
    # step off, which loads; the central output lands 40 ps late and falls
    # outside its 60 ps window, so the oracle must place the outputs where
    # the interferometer puts them
    "delay_off": (57, 200, 684e6, 1.502e-9, 10e-12, 40e-12, 60e-12),
    # the central window holds no 192 ps step: no central click counts
    "tdc192_win58.7": (11, 2000, 684e6, 1.462e-9, 30e-12, 192e-12, 58.7e-12),
    "tdc150_win100": (11, 2000, 684e6, 1.462e-9, 30e-12, 150e-12, 100e-12),
    "tdc42_win60": (11, 2000, 684e6, 1.462e-9, 30e-12, 42e-12, 60e-12),
    # jitter-free, the central output lands 2450 ps into the gate, exactly
    # between TDC steps 24 and 25: it reads as step 25, inside its window
    # (rounding half to even would read step 24, outside)
    "tie": (11, 2000, 500e6, 1.95e-9, 0.0, 100e-12, 100e-12),
}


class TestFramingAcrossEngines:
    """Every engine reads the scenario's framing, so both sampling
    engines agree with the oracle whatever shift and gap the run uses."""

    @pytest.mark.parametrize(
        "shift,gap_bits,seed", [(0, 1, 51), (0, 2, 52), (1, 1, 53), (2, 3, 54)]
    )
    def test_engines_agree_with_the_oracle(self, shift, gap_bits, seed):
        # no loss and a fivefold efficiency nearly saturate the first
        # click per burst, and 100-burst fringe blocks fill m_x, so a
        # short run fills every key
        sc = matched_framing(
            shift,
            gap_bits,
            duration=0.02,
            seed=seed,
            channel=ChannelModel(loss_db=0.0),
            detector=dataclasses.replace(small_scenario().detector, efficiency=0.5),
            fringe_block_x_symbols=200,
        )
        assert sc.source.leak_fraction > 0.0
        assert sc.interferometer.delay_ps == sc.framing.separation_ps
        expected = analytic_expected_tallies(sc)
        assert_within_4_sigma(run_simulation(sc), expected)
        assert_within_4_sigma(run_simulation_reference(sc), expected)

    def test_engines_agree_with_the_widest_bin_window_that_loads(self):
        # windows 1 ps short of the 1462 ps separation and 400 ps of
        # jitter: about 3% of early photons land in the late window, yet
        # no click time falls in two windows, so the oracle's per-bin
        # acceptance regions model the engines' classification
        det = dataclasses.replace(
            small_scenario().detector,
            efficiency=0.5,
            bin_window=1.461e-9,
            jitter_sigma=400e-12,
        )
        sc = small_scenario(
            duration=0.02,
            seed=56,
            channel=ChannelModel(loss_db=0.0),
            detector=det,
            fringe_block_x_symbols=200,
        )
        expected = analytic_expected_tallies(sc)
        assert_within_4_sigma(run_simulation(sc), expected)
        assert_within_4_sigma(run_simulation_reference(sc), expected)

    @pytest.mark.parametrize("case", list(TDC_GRID_CASES))
    def test_engines_agree_on_the_tdc_grid(self, case):
        # no loss, a fivefold efficiency and p_z 0.3 fill the X keys; the
        # TDC counts from each gate start, so slot starts need not lie on
        # its grid
        seed, block, f_out, delay, jitter, tdc, window = TDC_GRID_CASES[case]
        base = small_scenario()
        det = dataclasses.replace(
            base.detector,
            efficiency=0.5,
            tdc_resolution=tdc,
            bin_window=window,
            jitter_sigma=jitter,
        )
        sc = small_scenario(
            duration=0.02,
            seed=seed,
            params=dataclasses.replace(base.params, p_z=0.3),
            clock=dataclasses.replace(base.clock, f_out=f_out),
            channel=ChannelModel(loss_db=0.0),
            detector=det,
            interferometer=dataclasses.replace(base.interferometer, delay=delay),
            fringe_block_x_symbols=block,
        )
        expected = analytic_expected_tallies(sc)
        assert_within_4_sigma(run_simulation(sc), expected)
        assert_within_4_sigma(run_simulation_reference(sc), expected)

    def test_reference_engine_takes_a_delay_within_one_tdc_step(self):
        # 20 ps off the 1462 ps separation: the load check accepts it,
        # so the reference engine's interferometer must too
        ifm = dataclasses.replace(small_scenario().interferometer, delay=1.482e-9)
        sc = small_scenario(interferometer=ifm, duration=0.01, seed=55)
        assert_within_4_sigma(
            run_simulation_reference(sc), analytic_expected_tallies(sc)
        )


def test_traced_bindings_resolve():
    """The benchmark's tracer patches these module attributes by name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for binding in (b for paths in tracer.WRAPPED.values() for b in paths):
        module, attr = binding.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), attr)), binding


class TestSimulateAndAnalyze:
    def test_report_is_wired_to_the_run(self, batch_run):
        sc, _ = batch_run
        outcome, report = simulate_and_analyze(sc, engine="batch")
        assert report.q_z == pytest.approx(
            outcome.tallies.m_z / outcome.tallies.n_z
        )
        if report.skl > 0:
            assert report.skr == pytest.approx(report.skl / outcome.elapsed_s)
            assert report.yield_ == pytest.approx(
                report.skl / outcome.symbols_sent
            )

    def test_reference_engine_selectable(self):
        sc = small_scenario(duration=0.01)
        outcome, report = simulate_and_analyze(sc, engine="reference")
        assert outcome.symbols_sent == sc.n_bursts * 20
        assert report.skl >= 0

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            simulate_and_analyze(small_scenario(), engine="gpu")


def per_slot_run(scenario):
    """The batch engine evaluated slot by slot: a class for every slot,
    a click test for every slot and detector, the phase, parity and
    eligibility of every burst, and bins attributed through the
    row-major reference. run_simulation must reproduce it exactly, from
    the same RNG stream."""
    model = build_link_model(scenario)
    slots = scenario.params.symbols_per_burst
    n_bursts = scenario.n_bursts
    block = fringe_block_bursts(scenario)

    root = np.random.default_rng(scenario.seed)
    n_chunks = (n_bursts + CHUNK_BURSTS - 1) // CHUNK_BURSTS
    theta_rng, *chunk_rngs = root.spawn(1 + n_chunks)
    starts = servo_starts(scenario)
    walks = pipeline._theta_walk(scenario, starts, theta_rng)

    cum_priors = np.cumsum(model.priors)
    cum_priors[-1] = 1.0
    qz_any = 1.0 - static_outcome(model.z_table)[:, COL_NONE]
    kx, eta_b = none_terms(model.x_table)

    totals = np.zeros(COUNT_ROW, np.int64)
    sent = np.zeros((3, 2), np.int64)
    eligible_total = 0
    for chunk, (rng, walk) in enumerate(zip(chunk_rngs, walks)):
        lo = chunk * CHUNK_BURSTS
        idx = np.arange(lo, min(lo + CHUNK_BURSTS, n_bursts), dtype=np.int64)
        eligible = ~servo_excluded(scenario, starts, idx)
        parity = burst_parity(idx, block)
        cos_b = np.cos(math.pi * parity + walk)

        shape = (idx.size, slots)
        cls = np.searchsorted(cum_priors, rng.random(shape), side="right")
        clicked_z = rng.random(shape) < qz_any[cls]
        q_x = 1.0 - kx * np.exp(-eta_b * cos_b[:, None])
        clicked_x = rng.random(shape) < np.take_along_axis(q_x, cls, axis=1)

        eligible_total += int(eligible.sum())
        if eligible.any():
            sent_cls = np.bincount(cls[eligible].ravel(), minlength=N_CLASSES)
            sent += sent_cls.reshape(3, 2, 2).sum(axis=2)

        for detector, clicked in ((Basis.Z, clicked_z), (Basis.X, clicked_x)):
            has = clicked.any(axis=1) & eligible
            if not has.any():
                continue
            rows = np.nonzero(has)[0]
            first = clicked[rows].argmax(axis=1)
            c_sel = cls[rows, first]
            u_att = rng.random(rows.size)
            bins = row_major_attribute_bins(
                model.table(detector), c_sel, cos_b[rows], u_att
            )
            totals += count_clicks(
                CLASS_STATE[c_sel], CLASS_INTENSITY[c_sel], detector, bins,
                parity[rows],
            )

    elapsed = eligible_total * slots * scenario.params.symbol_period
    stats = SiftResult.from_counts(totals, sent, elapsed)
    return RunOutcome(stats, eligible_total, n_bursts)


def detector_scenario(**changes):
    det = dataclasses.replace(small_scenario().detector, **changes)
    return small_scenario(detector=det)


def servo_straddle_scenario():
    """A 600-burst stabilization window that starts 300 bursts before
    the end of the first chunk and runs on into the second."""
    period = small_scenario().params.burst_period
    ifm = dataclasses.replace(
        small_scenario().interferometer,
        stabilization_interval=(CHUNK_BURSTS - 300) * period,
    )
    sc = small_scenario(
        duration=1.2, interferometer=ifm, servo_bursts_per_event=600
    )
    assert servo_starts(sc).tolist() == [0, CHUNK_BURSTS - 300]
    return sc


def tail_block_scenario():
    """Seven slots per burst, which do not divide a block of uniforms:
    each full chunk ends in a one-burst tail block, and the short last
    chunk is a single block."""
    sc = small_scenario(
        duration=0.8, params=ProtocolParams(symbols_per_burst=7)
    )
    rows = pipeline.BLOCK_SLOTS // 7
    assert CHUNK_BURSTS % rows == 1 and CHUNK_BURSTS < sc.n_bursts
    assert sc.n_bursts - CHUNK_BURSTS < rows
    return sc


def attribution_slices_scenario():
    """Two chunks, the first with several slices of X first clicks to
    attribute (over 12000 at 0 dB and efficiency 0.5)."""
    return detector_scenario(efficiency=0.5).with_loss(0.0).replace(duration=1.0)


IDENTITY_SCENARIOS = {
    "small": small_scenario,
    "drift_servo": lambda: drifting_scenario(duration=0.5),
    "multi_chunk_drift": multi_chunk_drift_scenario,
    "blind_dark0": lambda: detector_scenario(efficiency=0.0, dark_prob_per_ns=0.0),
    "blind_dark1e-6": lambda: detector_scenario(
        efficiency=0.0, dark_prob_per_ns=1e-6
    ),
    "0db_eff0.5": lambda: detector_scenario(efficiency=0.5).with_loss(0.0),
    "attribution_slices": attribution_slices_scenario,
    "gap_bits2": lambda: matched_framing(0, 2),
    "fringe_block1": lambda: small_scenario(fringe_block_x_symbols=1),
    "sparse_cells": lambda: small_scenario(
        params=ProtocolParams(p_mu1=0.99, p_z=0.3)
    ),
    "mid_chunk_end": lambda: small_scenario(duration=1.3771),
    "servo_straddles_chunk": servo_straddle_scenario,
    "tail_block": tail_block_scenario,
}


@pytest.fixture(params=list(IDENTITY_SCENARIOS), scope="module")
def identity_scenario(request):
    return IDENTITY_SCENARIOS[request.param]()


class TestCandidateEvaluation:
    """run_simulation looks classes and clicks up only at candidate
    slots; its outcome must equal the per-slot evaluation bit for bit."""

    def test_matches_per_slot_evaluation(self, identity_scenario):
        fast = run_simulation(identity_scenario)
        slow = per_slot_run(identity_scenario)
        assert fast.tallies == slow.tallies
        assert fast.tallies.sent_counts == slow.tallies.sent_counts
        assert fast.sift_stats == slow.sift_stats
        assert fast.eligible_bursts == slow.eligible_bursts
        assert fast.symbols_sent == slow.symbols_sent
        assert fast == slow  # timings take no part in equality

    def test_x_clicks_span_several_attribution_slices(self, monkeypatch):
        rows = []
        inner = pipeline.outcome_probs

        def counting(table, cls, cos_t):
            rows.append(len(cls))
            return inner(table, cls, cos_t)

        monkeypatch.setattr(pipeline, "outcome_probs", counting)
        sc = attribution_slices_scenario()
        run_simulation(sc)
        assert sc.n_bursts > CHUNK_BURSTS
        assert rows[:2] == [pipeline.ATTRIBUTION_ROWS] * 2
        assert max(rows) == pipeline.ATTRIBUTION_ROWS

    def test_click_bounds_hold_at_every_phase(self, identity_scenario):
        theta = np.linspace(0.0, 2.0 * math.pi, 2001)
        cos_t = np.concatenate([np.linspace(-1.0, 1.0, 2001), np.cos(theta)])
        cls = np.repeat(np.arange(N_CLASSES), cos_t.size)
        cos_t = np.tile(cos_t, N_CLASSES)
        for sc in (
            identity_scenario,
            load_preset("link-7db"),
            load_preset("link-14db"),
        ):
            model = build_link_model(sc)
            for basis in Basis:
                k, eta_b = none_terms(model.table(basis))
                bounds = pipeline._click_bounds(k, eta_b)
                # the expression of the engine's exact test
                q = 1.0 - k[cls] * np.exp(-eta_b[cls] * cos_t)
                assert (q <= bounds[cls]).all(), basis

    @pytest.mark.parametrize(
        "make",
        [lambda: load_preset("link-7db"), lambda: load_preset("link-14db"),
         *IDENTITY_SCENARIOS.values()],
        ids=["link-7db", "link-14db", *IDENTITY_SCENARIOS],
    )
    def test_direct_path_none_terms_equal_its_static_table(self, make):
        # the engine's Z test reads 1 - K; the static table it replaced
        # read 1 - P(none), so bit identity rests on this equality
        table = build_link_model(make()).z_table
        k, eta_b = none_terms(table)
        assert not eta_b.any()
        np.testing.assert_array_equal(
            1.0 - k, 1.0 - static_outcome(table)[:, COL_NONE]
        )


class TestAttribution:
    """Bins come from a per-class table on the direct path and from
    outcome_probs at each click's phase on the interferometer path;
    both must equal the row-major attribution of every click."""

    @staticmethod
    def clicks(table, seed):
        rng = np.random.default_rng(seed)
        cos_t = np.concatenate([[1.0, -1.0, 0.0], rng.uniform(-1.0, 1.0, 997)])
        cls = np.repeat(np.arange(N_CLASSES), cos_t.size)
        cos_t = np.tile(cos_t, N_CLASSES)
        u = rng.random(cls.size)
        # uniforms exactly on each class's cumulative bin edges
        cum = pipeline._click_cum(static_outcome(table).T)
        u[: 3 * N_CLASSES] = cum.T.ravel()
        cls[: 3 * N_CLASSES] = np.repeat(np.arange(N_CLASSES), 3)
        return cls, cos_t, u

    @pytest.mark.parametrize("preset", ["link-7db", "link-14db"])
    def test_z_table_equals_the_per_click_rows(self, preset):
        table = build_link_model(load_preset(preset)).z_table
        cls, cos_t, u = self.clicks(table, seed=1)
        z_cum = pipeline._click_cum(static_outcome(table).T)
        per_click = row_major_outcome_probs(table, cls, cos_t)
        want = np.cumsum(per_click[:, :3] / (1.0 - per_click[:, 4:]), axis=1)
        np.testing.assert_array_equal(np.take(z_cum, cls, axis=1), want.T)
        np.testing.assert_array_equal(
            pipeline._bins(np.take(z_cum, cls, axis=1), u),
            row_major_attribute_bins(table, cls, cos_t, u),
        )

    @pytest.mark.parametrize("preset", ["link-7db", "link-14db"])
    def test_x_bins_equal_the_row_major_attribution(self, preset):
        table = build_link_model(load_preset(preset)).x_table
        cls, cos_t, u = self.clicks(table, seed=2)
        cum = pipeline._click_cum(pipeline.outcome_probs(table, cls, cos_t).T)
        np.testing.assert_array_equal(
            pipeline._bins(cum, u), row_major_attribute_bins(table, cls, cos_t, u)
        )


class TestLedgerCells:
    def test_cell_starts_follow_class_index(self):
        # run_simulation counts the ledger at class_edges[1::2], which
        # holds only if (state, intensity) cell j is classes 2j and 2j + 1
        for state in State:
            for intensity in IntensityClass:
                for route in Basis:
                    c = class_index(state, intensity, route)
                    assert c // 2 == int(state) * 2 + int(intensity)
                    assert CLASS_STATE[c] == state
                    assert CLASS_INTENSITY[c] == intensity

    @staticmethod
    def class_uniforms():
        """Cumulative priors of a scenario with sparse cells, uniforms
        exactly on each of them (where the class lookup, side="right",
        moves to the next class) among random ones, and their classes."""
        model = build_link_model(
            small_scenario(params=ProtocolParams(p_mu1=0.99, p_z=0.3))
        )
        cum_priors = np.cumsum(model.priors)
        cum_priors[-1] = 1.0
        u = np.random.default_rng(3).random((400, 20))
        u.flat[: N_CLASSES - 1] = cum_priors[:-1]
        return cum_priors, u, np.searchsorted(cum_priors, u, side="right")

    def test_threshold_counts_equal_class_counts(self):
        cum_priors, u, cls = self.class_uniforms()
        want = np.bincount(cls.ravel(), minlength=N_CLASSES)
        at_least = pipeline._count_at_least(
            u, cum_priors[1:-1:2], np.empty(u.shape, bool)
        )
        got = -np.diff([u.size, *at_least, 0]).reshape(3, 2)
        np.testing.assert_array_equal(got, want.reshape(3, 2, 2).sum(axis=2))

    def test_edge_counts_equal_the_binary_search(self):
        cum_priors, u, cls = self.class_uniforms()
        got = pipeline._classes(u.ravel(), cum_priors[:-1])
        np.testing.assert_array_equal(got, cls.ravel())

