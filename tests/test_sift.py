"""Event-to-symbol matching, tally bookkeeping, QBER estimators."""

from __future__ import annotations

import numpy as np
import pytest

from tbqkd import (
    Basis,
    Bin,
    DetectionEvent,
    IntensityClass,
    State,
    Symbol,
    TallyCounts,
    qber_x,
    qber_z,
    read_tally_csv,
    sift,
    write_tally_csv,
)
from tbqkd.errors import DomainError, EmptyTallyError, UnmatchedEventError
from tbqkd.sift import (
    CROSS_BASIS,
    OUTSIDE,
    SIDEBAND,
    SIFTED,
    TALLY_KEYS,
    TALLY_PAIRS,
    count_clicks,
    sift_rule,
)


PERIOD = 200e-9  # symbol period, s
# a fringe-parity block longer than any burst here, which keeps every
# burst at parity 0
BLOCK = 100


def sym(state, b=0, s=0, intensity=IntensityClass.Signal):
    return Symbol(state, intensity, phase=0.0, burst_index=b, slot_index=s)


def ev(b=0, s=0, bin=Bin.EARLY, basis=Basis.Z, t=0):
    return DetectionEvent(
        timestamp_ps=t, burst_index=b, slot_index=s, bin=bin, basis=basis
    )


class TestSift:
    def test_correct_z_detection(self):
        res = sift([ev(bin=Bin.EARLY)], [sym(State.Z0)], PERIOD, BLOCK)
        assert res.tallies.n_z_mu1 == 1 and res.tallies.m_z_mu1 == 0

    def test_wrong_bin_counts_as_error(self):
        res = sift([ev(bin=Bin.LATE)], [sym(State.Z0)], PERIOD, BLOCK)
        assert res.tallies.n_z_mu1 == 1 and res.tallies.m_z_mu1 == 1

    def test_decoy_routed_to_mu2_counters(self):
        res = sift(
            [ev(bin=Bin.LATE)],
            [sym(State.Z1, intensity=IntensityClass.Decoy)],
            PERIOD,
            BLOCK,
        )
        assert res.tallies.n_z_mu2 == 1 and res.tallies.m_z_mu2 == 0

    def test_x_central_click_sifts(self):
        res = sift(
            [ev(bin=Bin.CENTRAL, basis=Basis.X)],
            [sym(State.XPlus)],
            PERIOD,
            fringe_block_bursts=50,
        )
        assert res.tallies.n_x_mu1 == 1 and res.tallies.m_x_mu1 == 0

    def test_fringe_minimum_block_counts_errors(self):
        # burst 50 sits in the first odd parity block of length 50
        res = sift(
            [ev(b=50, bin=Bin.CENTRAL, basis=Basis.X)],
            [sym(State.XPlus, b=50)],
            PERIOD,
            fringe_block_bursts=50,
        )
        assert res.tallies.n_x_mu1 == 1 and res.tallies.m_x_mu1 == 1

    def test_x_sidebands_discarded(self):
        res = sift(
            [ev(bin=Bin.EARLY, basis=Basis.X), ev(s=1, bin=Bin.LATE, basis=Basis.X)],
            [sym(State.XPlus), sym(State.XPlus, s=1)],
            PERIOD,
            fringe_block_bursts=50,
        )
        assert res.tallies.n_x == 0
        assert res.discarded_sideband == 2

    def test_cross_basis_discarded(self):
        res = sift(
            [ev(bin=Bin.CENTRAL, basis=Basis.X), ev(s=1, bin=Bin.EARLY, basis=Basis.Z)],
            [sym(State.Z0), sym(State.XPlus, s=1)],
            PERIOD,
            BLOCK,
        )
        assert res.tallies.n_z == 0 and res.tallies.n_x == 0
        assert res.discarded_cross_basis == 2

    def test_outside_bin_discarded(self):
        res = sift([ev(bin=Bin.OUTSIDE)], [sym(State.Z0)], PERIOD, BLOCK)
        assert res.tallies.n_z == 0 and res.discarded_outside == 1

    def test_elapsed_time_counts_every_sent_symbol(self):
        # stabilization windows are never simulated: a burst's clicks
        # all sift, and the stabilization counter stays 0
        sent = [sym(State.Z0, b=3), sym(State.Z1, b=3, s=1)]
        res = sift([ev(b=3, bin=Bin.EARLY)], sent, PERIOD, BLOCK)
        assert res.tallies.n_z == 1 and res.discarded_stabilization == 0
        assert res.tallies.elapsed_s == 2 * PERIOD

    def test_unmatched_event_raises(self):
        with pytest.raises(UnmatchedEventError):
            sift([ev(b=9)], [sym(State.Z0, b=0)], PERIOD, BLOCK)

    def test_duplicate_sent_record_rejected(self):
        with pytest.raises(DomainError):
            sift([], [sym(State.Z0), sym(State.Z1)], PERIOD, BLOCK)

    def test_every_event_lands_in_exactly_one_counter(self):
        sent = [
            sym(State.Z0, s=0),
            sym(State.XPlus, s=1),
            sym(State.Z1, s=2),
            sym(State.XPlus, s=3),
            sym(State.Z0, b=7, s=0),
        ]
        events = [
            ev(s=0, bin=Bin.EARLY),
            ev(s=1, bin=Bin.CENTRAL, basis=Basis.X),
            ev(s=2, bin=Bin.CENTRAL, basis=Basis.X),
            ev(s=3, bin=Bin.EARLY, basis=Basis.X),
            ev(s=0, bin=Bin.OUTSIDE),
            ev(b=7, s=0, bin=Bin.EARLY),
        ]
        res = sift(events, sent, PERIOD, fringe_block_bursts=4)
        t = res.tallies
        split = (
            t.n_z,
            t.n_x,
            res.discarded_cross_basis,
            res.discarded_outside,
            res.discarded_sideband,
            res.discarded_stabilization,
        )
        assert split == (2, 1, 1, 1, 1, 0)
        assert sum(split) == len(events)
        assert t.symbols_sent == len(sent)


# (state, detector, bin) -> (reason, error at fringe parity 0, at parity 1),
# written out from the counting rules in the sift module docstring: a
# Z-detector click on a Z state is sifted, an error when its bin is not
# the sent bit's; an X-detector central click on XPlus is sifted, an
# error in a fringe-minimum block; outside clicks, cross-basis clicks and
# X-detector side bins are discarded, outside first.
Z, X = Basis.Z, Basis.X
E, C, L, O = Bin.EARLY, Bin.CENTRAL, Bin.LATE, Bin.OUTSIDE
RULES = {
    (State.Z0, Z, E): (SIFTED, False, False),
    (State.Z0, Z, C): (SIFTED, True, True),
    (State.Z0, Z, L): (SIFTED, True, True),
    (State.Z0, Z, O): (OUTSIDE, False, False),
    (State.Z1, Z, E): (SIFTED, True, True),
    (State.Z1, Z, C): (SIFTED, True, True),
    (State.Z1, Z, L): (SIFTED, False, False),
    (State.Z1, Z, O): (OUTSIDE, False, False),
    (State.XPlus, Z, E): (CROSS_BASIS, False, False),
    (State.XPlus, Z, C): (CROSS_BASIS, False, False),
    (State.XPlus, Z, L): (CROSS_BASIS, False, False),
    (State.XPlus, Z, O): (OUTSIDE, False, False),
    (State.Z0, X, E): (CROSS_BASIS, False, False),
    (State.Z0, X, C): (CROSS_BASIS, False, False),
    (State.Z0, X, L): (CROSS_BASIS, False, False),
    (State.Z0, X, O): (OUTSIDE, False, False),
    (State.Z1, X, E): (CROSS_BASIS, False, False),
    (State.Z1, X, C): (CROSS_BASIS, False, False),
    (State.Z1, X, L): (CROSS_BASIS, False, False),
    (State.Z1, X, O): (OUTSIDE, False, False),
    (State.XPlus, X, E): (SIDEBAND, False, False),
    (State.XPlus, X, C): (SIFTED, False, True),
    (State.XPlus, X, L): (SIDEBAND, False, False),
    (State.XPlus, X, O): (OUTSIDE, False, False),
}


class TestSiftRule:
    def test_truth_table(self):
        combos = [
            (state, intensity, detector, bin_, parity)
            for (state, detector, bin_) in RULES
            for intensity in IntensityClass
            for parity in (0, 1)
        ]
        assert len(combos) == 96
        key, error, reason = sift_rule(*np.array(combos).T)
        for i, (state, intensity, detector, bin_, parity) in enumerate(combos):
            want_reason, *want_error = RULES[state, detector, bin_]
            label = (state.name, intensity.name, detector.name, bin_.name, parity)
            assert reason[i] == want_reason, label
            assert error[i] == want_error[parity], label
            if want_reason != SIFTED:
                assert key[i] == -1, label
                continue
            mu = "mu1" if intensity == IntensityClass.Signal else "mu2"
            name = f"n_{detector.name.lower()}_{mu}"
            assert TALLY_KEYS[key[i]] == name, label
            m_index = dict(TALLY_PAIRS)[key[i]]
            assert m_index == key[i] + 2, label
            assert TALLY_KEYS[m_index] == "m" + name[1:], label

    def test_counts_follow_the_rule_and_account_for_every_click(self):
        rng = np.random.default_rng(4)
        n = 500
        clicks = (
            rng.integers(0, 3, n),
            rng.integers(0, 2, n),
            rng.integers(0, 2, n),
            rng.integers(0, 4, n),
            rng.integers(0, 2, n),
        )
        counts, discards = np.split(count_clicks(*clicks), [len(TALLY_KEYS)])
        key, error, reason = sift_rule(*clicks)
        want = np.zeros(len(TALLY_KEYS), dtype=np.int64)
        np.add.at(want, key[key >= 0], 1)
        np.add.at(want, key[error] + 2, 1)
        assert counts.tolist() == want.tolist()
        assert discards.tolist() == np.bincount(reason, minlength=4).tolist()
        n_keys = counts[[TALLY_KEYS.index(k) for k in TALLY_KEYS if k[0] == "n"]]
        assert n_keys.sum() == discards[SIFTED]
        assert discards.sum() == n


class TestQber:
    @staticmethod
    def fringe(max_counts, min_counts):
        """A tally of max_counts signal X clicks in fringe-maximum blocks
        and min_counts decoy X clicks in fringe-minimum blocks."""
        return TallyCounts(n_x_mu1=max_counts, n_x_mu2=min_counts, m_x_mu2=min_counts)

    def test_qber_z_arithmetic(self):
        t = TallyCounts(n_z_mu1=70, n_z_mu2=30, m_z_mu1=2, m_z_mu2=1)
        assert qber_z(t) == pytest.approx(0.03)

    def test_qber_z_zero_errors(self):
        assert qber_z(TallyCounts(n_z_mu1=100)) == 0.0

    def test_qber_z_empty_raises(self):
        with pytest.raises(EmptyTallyError):
            qber_z(TallyCounts())

    def test_qber_x_ideal_fringe(self):
        assert qber_x(self.fringe(99, 1)) == pytest.approx(0.01)

    def test_qber_x_visibility_relation(self):
        v = 0.98
        max_c, min_c = 1_000_000, round(1_000_000 * (1 - v) / (1 + v))
        assert qber_x(self.fringe(max_c, min_c)) == pytest.approx(
            (1 - v) / 2, abs=1e-6
        )

    def test_qber_x_min_zero(self):
        assert qber_x(self.fringe(50, 0)) == 0.0

    def test_qber_x_max_zero(self):
        assert qber_x(self.fringe(0, 3)) == 1.0

    def test_qber_x_no_interference(self):
        assert qber_x(self.fringe(50, 50)) == 0.5

    def test_qber_x_empty_raises(self):
        with pytest.raises(EmptyTallyError):
            qber_x(TallyCounts(n_z_mu1=10))


class TestTallyCounts:
    def test_errors_cannot_exceed_detections(self):
        with pytest.raises(
            DomainError, match=r"need m_z_mu1 <= n_z_mu1, got m_z_mu1 = 6 > n_z_mu1 = 5"
        ):
            TallyCounts(n_z_mu1=5, m_z_mu1=6)

    def test_errors_cannot_be_negative(self):
        with pytest.raises(DomainError, match=r"need 0 <= m_x_mu2, got m_x_mu2 = -1$"):
            TallyCounts(n_x_mu2=5, m_x_mu2=-1)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            TallyCounts(n_z_mu1=-1)

    def test_sent_counts_shape_enforced(self):
        with pytest.raises(DomainError):
            TallyCounts(sent_counts=((1, 2), (3, 4)))

    def test_basis_totals(self):
        t = TallyCounts(n_z_mu1=5, n_z_mu2=3, n_x_mu1=2, n_x_mu2=1, m_x_mu1=1)
        assert t.n_z == 8 and t.n_x == 3
        assert t.m_z == 0 and t.m_x == 1

    def test_csv_round_trip(self, tmp_path):
        tallies = [
            TallyCounts(n_z_mu1=10, m_z_mu1=1, elapsed_s=2.5),
            TallyCounts(n_x_mu2=7, m_x_mu2=3, elapsed_s=0.25),
        ]
        path = tmp_path / "tallies.csv"
        write_tally_csv(path, tallies)
        loaded = read_tally_csv(path)
        for orig, back in zip(tallies, loaded):
            for k in TALLY_KEYS:
                assert getattr(orig, k) == getattr(back, k)
            assert back.elapsed_s == orig.elapsed_s
