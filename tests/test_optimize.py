"""Grid search over source parameters on the analytic path."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest

import tbqkd.optimize as optimize
import tbqkd.slotmodel as slotmodel
from tbqkd import load_preset
from tbqkd.errors import EmptyGridError
from tbqkd.optimize import (
    GridSpec,
    expected_keyrate,
    expected_tally_counts,
    optimize_params,
    write_grid_csv,
)
from tbqkd.slotmodel import (
    ExpectedTallies,
    analytic_expected_tallies,
    build_link_model,
    x_segments,
)

from conftest import small_scenario


def quiet_7db(duration: float):
    base = load_preset("link-7db")
    ifm = dataclasses.replace(base.interferometer, drift_sigma=0.0)
    return base.replace(
        duration=duration, interferometer=ifm, servo_bursts_per_event=0
    )


class TestExpectedTallyCounts:
    def test_rounding_and_error_clamp(self):
        exp = ExpectedTallies(
            means={
                "n_z_mu1": 10.6, "n_z_mu2": 3.2, "m_z_mu1": 10.8, "m_z_mu2": 0.4,
                "n_x_mu1": 5.0, "n_x_mu2": 1.0, "m_x_mu1": 0.2, "m_x_mu2": 0.0,
            },
            variances={},
            drift_variances={},
            elapsed_s=2.0,
            eligible_bursts=100,
            symbols_sent=2000,
        )
        t = expected_tally_counts(exp)
        assert t.n_z_mu1 == 11
        # rounding pushed m above n; the clamp restores m <= n
        assert t.m_z_mu1 == 11
        assert t.m_z_mu2 == 0
        assert t.elapsed_s == 2.0


class TestGridSearch:
    def test_single_point_grid_returns_it(self):
        sc = small_scenario(duration=1.0)
        grid = GridSpec(mu1=[0.5], mu2=[0.19], p_mu1=[0.63], p_z=[0.9])
        result = optimize_params(sc, grid)
        assert len(result.points) == 1
        assert result.best.mu1 == 0.5 and result.best.mu2 == 0.19
        assert result.best_skl == result.points[0].skl
        assert result.best_skl == expected_keyrate(
            sc.replace(params=result.best)
        ).skl

    def test_invalid_combinations_are_skipped(self):
        sc = small_scenario(duration=1.0)
        grid = GridSpec(mu1=[0.5], mu2=[0.19, 0.7], p_mu1=[0.63], p_z=[0.9])
        result = optimize_params(sc, grid)
        assert [p.mu2 for p in result.points] == [0.19]

    def test_empty_grid(self):
        sc = small_scenario(duration=1.0)
        with pytest.raises(EmptyGridError):
            optimize_params(
                sc, GridSpec(mu1=[0.2], mu2=[0.5], p_mu1=[0.63], p_z=[0.9])
            )

    def test_tie_break_is_lexicographic(self):
        # a block this short yields skl 0 everywhere, so the tie-break
        # must pick the smallest tuple
        sc = small_scenario(duration=0.5)
        grid = GridSpec(
            mu1=[0.6, 0.5], mu2=[0.19, 0.15], p_mu1=[0.63], p_z=[0.9]
        )
        result = optimize_params(sc, grid)
        assert all(p.skl == 0 for p in result.points)
        assert (result.best.mu1, result.best.mu2) == (0.5, 0.15)

    def test_axes_are_deduplicated_and_sorted(self):
        grid = GridSpec(
            mu1=[0.5, 0.5], mu2=[0.19, 0.15], p_mu1=[0.63], p_z=[0.9]
        )
        assert grid.axes() == ((0.5,), (0.15, 0.19), (0.63,), (0.9,))


def drifting_0db(duration: float):
    """small_scenario at 0 dB with a hot detector, drift and 4-burst
    servo windows every 20 ms: some grid points have a positive key."""
    base = small_scenario()
    return base.replace(
        duration=duration,
        detector=dataclasses.replace(base.detector, efficiency=0.8),
        interferometer=dataclasses.replace(
            base.interferometer, drift_sigma=0.5, stabilization_interval=0.02
        ),
        servo_bursts_per_event=4,
    ).with_loss(0.0)


# two p_z values give two fringe block lengths, so two oracle passes of
# two points each; mu2 = 0.6 is not below mu1 and is skipped
GROUPED_GRIDS = {
    "two_groups": GridSpec(
        mu1=[0.5], mu2=[0.19, 0.6], p_mu1=[0.5, 0.63], p_z=[0.5, 0.9]
    ),
    "one_point": GridSpec(mu1=[0.5], mu2=[0.19], p_mu1=[0.63], p_z=[0.9]),
}


def record_passes(monkeypatch) -> list:
    """Wrap optimize.grouped_expected_tallies; each oracle pass appends
    its scenarios and results."""
    passes = []
    inner = optimize.grouped_expected_tallies

    def recording(scenarios):
        out = inner(scenarios)
        passes.append((list(scenarios), out))
        return out

    monkeypatch.setattr(optimize, "grouped_expected_tallies", recording)
    return passes


def counted_phased_classes(sc) -> int:
    """Classes whose X-path outcomes the oracle evaluates per node."""
    phased = build_link_model(sc).x_table.mean_cos.any(axis=0)
    return int(np.count_nonzero(slotmodel._X_COUNTED & phased))


def record_outcome_probs(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """Wrap slotmodel.outcome_probs; each call appends the shape of its
    classes and the number of outcomes it evaluates."""
    calls = []
    inner = slotmodel.outcome_probs

    def recording(table, cls, cos_t):
        calls.append((np.shape(cls), np.broadcast(cls, cos_t).size))
        return inner(table, cls, cos_t)

    monkeypatch.setattr(slotmodel, "outcome_probs", recording)
    return calls


class TestGroupedGrid:
    """optimize_params evaluates the points that share a lock schedule in
    one oracle pass; each point must come out as its own call would."""

    @pytest.fixture(scope="class", params=list(GROUPED_GRIDS))
    def run(self, request):
        sc = drifting_0db(2.0)
        with pytest.MonkeyPatch.context() as mp:
            passes = record_passes(mp)
            result = optimize_params(sc, GROUPED_GRIDS[request.param])
        return request.param, sc, result, passes

    def test_one_pass_per_fringe_block_length(self, run):
        name, _, result, passes = run
        sizes = {"two_groups": [2, 2], "one_point": [1]}[name]
        assert [len(scenarios) for scenarios, _ in passes] == sizes
        for scenarios, _ in passes:
            assert len({sc.params.p_z for sc in scenarios}) == 1
        assert len(result.points) == sum(sizes)

    def test_grouped_tallies_equal_single_calls(self, run):
        # bit for bit: every field of every point
        _, _, _, passes = run
        for scenarios, expected in passes:
            for sc, got in zip(scenarios, expected):
                assert got == analytic_expected_tallies(sc)

    def test_chunk_boundaries_do_not_depend_on_grouping(self, monkeypatch):
        # 100 nodes divide no set size of either group, so a chunk
        # straddles the means set and the first drift set, and each
        # group's last chunk is short enough to serve both of its points
        monkeypatch.setattr(slotmodel, "EVAL_NODES", 100)
        passes = record_passes(monkeypatch)
        calls = record_outcome_probs(monkeypatch)
        sc = drifting_0db(2.0)
        optimize_params(sc, GROUPED_GRIDS["two_groups"])
        assert [len(scenarios) for scenarios, _ in passes] == [2, 2]
        for scenarios, _ in passes:
            first = scenarios[0]
            nodes = slotmodel._quadrature_nodes(first, *x_segments(first), True)
            sizes = [pos.size for pos, _, _ in nodes]
            assert sizes[0] % 100 != 0 and sizes[1] % 100 != 0
            assert 0 < (sizes[0] + 2 * sizes[1]) % 100 <= 50
        # X-path evaluations take the classes as a column, per point
        rows = {shape[0] for shape, _ in calls if len(shape) == 2}
        assert rows == {counted_phased_classes(sc) * k for k in (1, 2)}
        for scenarios, expected in passes:
            for point, got in zip(scenarios, expected):
                assert got == analytic_expected_tallies(point)

    @pytest.mark.parametrize(
        "second, field",
        [
            (lambda: load_preset("link-14db").replace(duration=5.0), "channel"),
            (lambda: load_preset("link-7db").replace(duration=2.0), "duration"),
        ],
        ids=["other_link", "other_duration"],
    )
    def test_scenarios_beyond_the_grid_axes_are_refused(self, second, field):
        # the pass reads the link and the lock schedule from the first
        # scenario only, so it may not silently serve another's
        first = load_preset("link-7db").replace(duration=5.0)
        with pytest.raises(ValueError, match=f"differs in {field}$"):
            slotmodel.grouped_expected_tallies([first, second()])

    def test_points_and_best_equal_single_keyrates(self, run):
        name, sc, result, _ = run
        for point in result.points:
            params = dataclasses.replace(
                sc.params, mu1=point.mu1, mu2=point.mu2, p_mu1=point.p_mu1,
                p_z=point.p_z,
            )
            assert point.skl == expected_keyrate(sc.replace(params=params)).skl
        assert result.best_report == expected_keyrate(sc.replace(params=result.best))
        if name == "two_groups":
            assert result.best_skl > 0


class TestOneMemoryBound:
    """The oracle lays the X-path node sets end to end and evaluates them
    in chunks of EVAL_NODES nodes, whatever the points it groups."""

    @pytest.mark.parametrize(
        "preset, duration, grid, n_calls",
        [
            ("link-7db", 300.0, False, 5),
            ("link-7db", 300.0, True, 11),
            ("link-14db", 5.0, True, 3),
        ],
        ids=["oracle-300s", "grid-300s", "grid-5s"],
    )
    def test_one_memory_bound(self, preset, duration, grid, n_calls, monkeypatch):
        # no evaluation exceeds EVAL_NODES nodes of each counted phased
        # class. Beyond the two static outcome calls, a 300 s preset's
        # 9072 nodes take three chunks, the last of which serves all four
        # points of a grid at once; a 5 s grid takes one chunk
        sc = load_preset(preset).replace(duration=duration)
        calls = record_outcome_probs(monkeypatch)
        if grid:
            p = sc.params
            spec = GridSpec(
                mu1=[p.mu1], mu2=[p.mu2, p.mu2 + 0.04],
                p_mu1=[p.p_mu1, p.p_mu1 + 0.1], p_z=[p.p_z],
            )
            assert len(optimize_params(sc, spec).points) == 4
        else:
            analytic_expected_tallies(sc)
        assert len(calls) == n_calls
        assert any(len(shape) == 2 for shape, _ in calls)
        bound = slotmodel.EVAL_NODES * counted_phased_classes(sc)
        assert max(size for _, size in calls) <= bound


@pytest.fixture(scope="module")
def result():
    grid = GridSpec(
        mu1=[0.5], mu2=[0.10, 0.15, 0.19, 0.26], p_mu1=[0.63], p_z=[0.9]
    )
    return optimize_params(quiet_7db(120.0), grid)


@pytest.mark.slow
class TestReferenceLinkOptimum:
    def test_optimal_decoy_ratio_in_band(self, result):
        ratio = result.best.mu2 / result.best.mu1
        assert 0.25 <= ratio <= 0.55

    def test_optimum_beats_the_operating_point(self, result):
        operating = next(p for p in result.points if p.mu2 == 0.19)
        assert result.best_skl >= operating.skl
        assert result.best_skl > 0

    def test_full_grid_is_reported(self, result):
        assert [p.mu2 for p in result.points] == [0.10, 0.15, 0.19, 0.26]
        assert all(p.skl >= 0 for p in result.points)


class TestGridCsv:
    def test_round_trip_rows(self, tmp_path):
        sc = small_scenario(duration=0.5)
        grid = GridSpec(mu1=[0.5], mu2=[0.15, 0.19], p_mu1=[0.63], p_z=[0.9])
        result = optimize_params(sc, grid)
        path = tmp_path / "grid.csv"
        write_grid_csv(result.points, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0].keys() == {"mu1", "mu2", "p_mu1", "p_z", "skl"}
        assert [float(r["mu2"]) for r in rows] == [0.15, 0.19]
        assert all(int(r["skl"]) >= 0 for r in rows)
