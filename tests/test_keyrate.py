"""Finite-key bounds against high-precision and brute-force oracles.

Two independent checks back the one-decoy implementation: every formula
is recomputed at 50 decimal digits with mpmath on a frozen tally, and
the bound directions are validated against exact Poisson-mixture channel
expectations where the true vacuum and single-photon event counts are
known by construction.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbqkd import (
    ProtocolParams,
    SecurityParams,
    TallyCounts,
    decoy_bounds,
    error_correction_leakage,
    finite_bounds,
    finite_key_cost,
    gamma_penalty,
    hoeffding_delta,
    keyrate,
    phase_error_upper,
    secret_key_length,
)
from tbqkd.errors import DomainError

PARAMS = ProtocolParams()
SEC = SecurityParams(eps_sec=1e-9, eps_cor=1e-9, f_ec=1.02)

# mid-size block in the regime the transmitter actually produces
FROZEN = TallyCounts(
    n_z_mu1=97_000,
    n_z_mu2=21_500,
    m_z_mu1=1_950,
    m_z_mu2=430,
    n_x_mu1=3_800,
    n_x_mu2=830,
    m_x_mu1=40,
    m_x_mu2=10,
    elapsed_s=10.0,
)


def oracle_chain(t: TallyCounts, params: ProtocolParams, sec: SecurityParams):
    """The whole analysis rebuilt in 50-digit arithmetic."""
    with mpmath.workdps(50):
        mu1, mu2 = mpmath.mpf(params.mu1), mpmath.mpf(params.mu2)
        p1 = mpmath.mpf(params.p_mu1)
        p2 = 1 - p1
        eps1 = eps2 = mpmath.mpf(sec.eps_sec) / 19

        def tau(n):
            return (
                p1 * mpmath.e ** (-mu1) * mu1**n / mpmath.factorial(n)
                + p2 * mpmath.e ** (-mu2) * mu2**n / mpmath.factorial(n)
            )

        t0, t1 = tau(0), tau(1)

        def delta(n, eps):
            return mpmath.sqrt(n / 2 * mpmath.log(1 / eps))

        def basis(n1, n2, m):
            n = n1 + n2
            d = delta(n, eps1)
            n_minus_2 = mpmath.e**mu2 / p2 * max(0, n2 - d)
            n_plus_1 = mpmath.e**mu1 / p1 * min(n, n1 + d)
            s0_u = min(n, 2 * (m + delta(m, eps2)))
            s0_l = min(max(0, t0 / (mu1 - mu2) * (mu1 * n_minus_2 - mu2 * n_plus_1)), s0_u)
            r2 = (mu2 / mu1) ** 2
            s1_l = (
                t1 * mu1 / (mu2 * (mu1 - mu2))
                * (n_minus_2 - r2 * n_plus_1 - (1 - r2) * s0_u / t0)
            )
            return s0_l, s0_u, min(max(0, s1_l), n)

        sz0_l, sz0_u, sz1_l = basis(t.n_z_mu1, t.n_z_mu2, t.m_z)
        _, _, sx1_l = basis(t.n_x_mu1, t.n_x_mu2, t.m_x)

        dm = delta(t.m_x, eps2)
        v = t1 / (mu1 - mu2) * (
            mpmath.e**mu1 / p1 * min(t.m_x, t.m_x_mu1 + dm)
            - mpmath.e**mu2 / p2 * max(0, t.m_x_mu2 - dm)
        )
        v = min(max(0, v), t.n_x)

        def h(x):
            if x <= 0 or x >= 1:
                return mpmath.mpf(0)
            return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

        b = v / sx1_l
        c, d_ = sx1_l, sz1_l
        spread = (c + d_) * (1 - b) * b / (c * d_ * mpmath.log(2))
        arg = (c + d_) / (c * d_ * (1 - b) * b) * (19 / mpmath.mpf(sec.eps_sec)) ** 2
        phi = min(mpmath.mpf(1) / 2, b + mpmath.sqrt(spread * mpmath.log(arg, 2)))

        q_z = mpmath.mpf(t.m_z) / t.n_z
        lam = sec.f_ec * t.n_z * h(q_z)
        cost = 6 * mpmath.log(19 / mpmath.mpf(sec.eps_sec), 2) + mpmath.log(
            2 / mpmath.mpf(sec.eps_cor), 2
        )
        raw = sz0_l + sz1_l * (1 - h(phi)) - lam - cost
        return {
            "s_z0_lower": float(sz0_l),
            "s_z0_upper": float(sz0_u),
            "s_z1_lower": float(sz1_l),
            "s_x1_lower": float(sx1_l),
            "v_x1_upper": float(v),
            "phi": float(phi),
            "lambda_ec": float(lam),
            "cost": float(cost),
            "skl": int(max(0, mpmath.floor(raw))),
        }


class TestHoeffding:
    def test_matches_high_precision(self):
        for n, eps in [(1e6, 1e-9 / 19), (118_500, 1e-10), (17, 0.3)]:
            with mpmath.workdps(50):
                want = float(mpmath.sqrt(mpmath.mpf(n) / 2 * mpmath.log(1 / mpmath.mpf(eps))))
            assert hoeffding_delta(n, eps) == pytest.approx(want, rel=1e-14)

    def test_vanishes_as_eps_approaches_one(self):
        assert hoeffding_delta(1e6, 1 - 1e-12) < 1.0

    def test_eps_domain(self):
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                hoeffding_delta(100, eps)

    def test_relative_width_shrinks_with_samples(self):
        n = 1e4
        assert hoeffding_delta(10 * n, 1e-9) / (10 * n) < hoeffding_delta(n, 1e-9) / n


class TestFiniteBounds:
    def test_lower_clamps_at_zero(self):
        lo, _ = finite_bounds(0, 1000, 1e-9)
        assert lo == 0.0

    def test_upper_clamps_at_total(self):
        _, up = finite_bounds(1000, 1000, 1e-9)
        assert up == 1000.0

    def test_collapse_in_the_weak_limit(self):
        lo, up = finite_bounds(500, 1000, 1 - 1e-15)
        assert lo == pytest.approx(500, abs=1e-3)
        assert up == pytest.approx(500, abs=1e-3)

    def test_count_must_not_exceed_total(self):
        with pytest.raises(DomainError):
            finite_bounds(11, 10, 1e-9)


class TestAgainstHighPrecisionOracle:
    def test_decoy_bounds(self):
        want = oracle_chain(FROZEN, PARAMS, SEC)
        got = decoy_bounds(FROZEN, PARAMS, SEC)
        assert got.s_z0_lower == pytest.approx(want["s_z0_lower"], rel=1e-12)
        assert got.s_z0_upper == pytest.approx(want["s_z0_upper"], rel=1e-12)
        assert got.s_z1_lower == pytest.approx(want["s_z1_lower"], rel=1e-12)
        assert got.s_x1_lower == pytest.approx(want["s_x1_lower"], rel=1e-12)
        assert got.v_x1_upper == pytest.approx(want["v_x1_upper"], rel=1e-12)

    def test_phase_error(self):
        want = oracle_chain(FROZEN, PARAMS, SEC)
        got = decoy_bounds(FROZEN, PARAMS, SEC)
        phi = phase_error_upper(got.s_z1_lower, got.s_x1_lower, got.v_x1_upper, SEC)
        assert phi == pytest.approx(want["phi"], rel=1e-12)

    def test_secret_key_length(self):
        want = oracle_chain(FROZEN, PARAMS, SEC)
        bounds = decoy_bounds(FROZEN, PARAMS, SEC)
        phi = phase_error_upper(bounds.s_z1_lower, bounds.s_x1_lower, bounds.v_x1_upper, SEC)
        skl, lam = secret_key_length(bounds, phi, FROZEN, SEC)
        assert skl == want["skl"]
        assert lam == pytest.approx(want["lambda_ec"], rel=1e-12)

    def test_fixed_cost(self):
        assert finite_key_cost(SEC) == pytest.approx(
            oracle_chain(FROZEN, PARAMS, SEC)["cost"], rel=1e-14
        )

    def test_full_report(self):
        want = oracle_chain(FROZEN, PARAMS, SEC)
        rep = keyrate(FROZEN, PARAMS, SEC, symbols_sent=4_000_000)
        assert rep.skl == want["skl"]
        assert rep.phi_z_upper == pytest.approx(want["phi"], rel=1e-12)
        assert rep.skr == pytest.approx(want["skl"] / 10.0, rel=1e-12)
        assert rep.yield_ == pytest.approx(want["skl"] / 4_000_000, rel=1e-12)
        assert not rep.degenerate


def poisson_mixture_tally(eta: float, dark: float, n_sent: int, params: ProtocolParams):
    """Exact expected counts for an abstract threshold channel.

    Per slot of intensity k the click probability is
    1 - (1 - dark) * sum_n pois(n|k) (1-eta)^n; vacuum and single-photon
    shares follow the same sum restricted to n = 0 or 1. Vacuum clicks
    are dark-driven and err half the time; photon clicks are noiseless.
    Truncation at n = 50 is far below the rounding scale.
    """
    truth = {}
    counts = {}
    for key, p_k, mu in (("mu1", params.p_mu1, params.mu1), ("mu2", 1 - params.p_mu1, params.mu2)):
        n_k = n_sent * p_k
        pois = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(51)]
        click = [1 - (1 - dark) * (1 - eta) ** n for n in range(51)]
        total = n_k * sum(p * c for p, c in zip(pois, click))
        s0 = n_k * pois[0] * click[0]
        s1 = n_k * pois[1] * click[1]
        counts[f"n_{key}"] = round(total)
        counts[f"m_{key}"] = round(s0 / 2)
        truth[f"s0_{key}"] = s0
        truth[f"s1_{key}"] = s1
    tally = TallyCounts(
        n_z_mu1=counts["n_mu1"],
        n_z_mu2=counts["n_mu2"],
        m_z_mu1=counts["m_mu1"],
        m_z_mu2=counts["m_mu2"],
        n_x_mu1=counts["n_mu1"],
        n_x_mu2=counts["n_mu2"],
        m_x_mu1=counts["m_mu1"],
        m_x_mu2=counts["m_mu2"],
        elapsed_s=1.0,
    )
    s0_true = truth["s0_mu1"] + truth["s0_mu2"]
    s1_true = truth["s1_mu1"] + truth["s1_mu2"]
    return tally, s0_true, s1_true


class TestBoundValidity:
    """The bounds must bracket the exact channel truth."""

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.1, 0.02])
    @pytest.mark.parametrize("dark", [0.0, 1e-5, 1e-3])
    def test_brackets_poisson_truth(self, eta, dark):
        tally, s0_true, s1_true = poisson_mixture_tally(eta, dark, 10**16, PARAMS)
        b = decoy_bounds(tally, PARAMS, SEC)
        slack = 1e-6 * tally.n_z  # concentration widths at this sample size
        assert b.s_z0_lower <= s0_true + slack
        assert b.s_z0_upper >= s0_true - slack
        assert b.s_z1_lower <= s1_true + slack

    def test_noiseless_asymptotic_tightness(self):
        # loss-free, unit-efficiency, dark-free: the single-photon bound
        # recovers the tau1-weighted fraction to within a few percent
        tally, s0_true, s1_true = poisson_mixture_tally(1.0, 0.0, 10**16, PARAMS)
        b = decoy_bounds(tally, PARAMS, SEC)
        assert s0_true == pytest.approx(0.0, abs=1.0)
        assert b.s_z1_lower <= s1_true * (1 + 1e-6)
        assert b.s_z1_lower >= 0.97 * s1_true
        true_fraction = s1_true / tally.n_z
        assert b.s_z1_lower / tally.n_z == pytest.approx(true_fraction, rel=0.03)


class TestDegenerateFlows:
    def test_empty_tally_degenerates_quietly(self):
        rep = keyrate(TallyCounts(), PARAMS, SEC)
        assert rep.degenerate and rep.skl == 0 and rep.phi_z_upper == 0.5

    def test_phi_is_half_when_x_collapses(self):
        assert phase_error_upper(100.0, 0.0, 0.0, SEC) == 0.5

    def test_phi_zero_error_huge_samples(self):
        assert phase_error_upper(1e12, 1e12, 0.0, SEC) < 1e-4

    def test_phi_never_leaves_range(self):
        assert phase_error_upper(10.0, 10.0, 6.0, SEC) == 0.5

    def test_skl_floor_at_zero(self):
        b = decoy_bounds(TallyCounts(n_z_mu1=20, n_z_mu2=9), PARAMS, SEC)
        skl, _ = secret_key_length(b, 0.5, TallyCounts(n_z_mu1=20, n_z_mu2=9), SEC)
        assert skl == 0

    def test_half_phase_error_kills_single_photon_term(self):
        b = decoy_bounds(FROZEN, PARAMS, SEC)
        skl_half, _ = secret_key_length(b, 0.5, FROZEN, SEC)
        want = max(0, math.floor(b.s_z0_lower - error_correction_leakage(FROZEN, SEC) - finite_key_cost(SEC)))
        assert skl_half == want


class TestGammaPenalty:
    def test_matches_high_precision(self):
        a, b, c, d = 1e-9, 0.03, 11_000, 270_000
        with mpmath.workdps(50):
            bb = mpmath.mpf(b)
            spread = (c + d) * (1 - bb) * bb / (c * d * mpmath.log(2))
            arg = (c + d) / (c * d * (1 - bb) * bb) * (19 / mpmath.mpf(a)) ** 2
            want = float(mpmath.sqrt(spread * mpmath.log(arg, 2)))
        assert gamma_penalty(a, b, c, d) == pytest.approx(want, rel=1e-12)

    def test_zero_at_boundary_rates(self):
        assert gamma_penalty(1e-9, 0.0, 100, 100) == 0.0
        assert gamma_penalty(1e-9, 1.0, 100, 100) == 0.0

    def test_needs_positive_samples(self):
        with pytest.raises(DomainError):
            gamma_penalty(1e-9, 0.1, 0, 100)

    def test_shrinks_with_samples(self):
        small = gamma_penalty(1e-9, 0.05, 1e3, 1e4)
        big = gamma_penalty(1e-9, 0.05, 1e4, 1e5)
        assert big < small


# Error fractions r <= 0.5 with m = floor(n * r), so every tally has at
# most as many errors as non-errors (round(3 * 0.5) would give 2 of 3).
valid_tallies = st.builds(
    lambda nz1, nz2, nx1, nx2, rz1, rz2, rx1, rx2: TallyCounts(
        n_z_mu1=nz1,
        n_z_mu2=nz2,
        n_x_mu1=nx1,
        n_x_mu2=nx2,
        m_z_mu1=math.floor(nz1 * rz1),
        m_z_mu2=math.floor(nz2 * rz2),
        m_x_mu1=math.floor(nx1 * rx1),
        m_x_mu2=math.floor(nx2 * rx2),
        elapsed_s=1.0,
    ),
    st.integers(0, 10**7),
    st.integers(0, 10**7),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.floats(0, 0.5),
    st.floats(0, 0.5),
    st.floats(0, 0.5),
    st.floats(0, 0.5),
)


class TestBoundProperties:
    @given(valid_tallies)
    @settings(max_examples=300, deadline=None)
    def test_ordering_and_clamps(self, t):
        b = decoy_bounds(t, PARAMS, SEC)
        assert 0.0 <= b.s_z0_lower <= b.s_z0_upper <= t.n_z
        assert 0.0 <= b.s_z1_lower <= t.n_z
        assert 0.0 <= b.s_x1_lower <= t.n_x
        assert 0.0 <= b.v_x1_upper <= t.n_x

    @given(valid_tallies)
    # q_x exactly 0.5: one fringe-minimum and one fringe-maximum click
    @example(TallyCounts(n_x_mu1=2, m_x_mu1=1, elapsed_s=1.0))
    @settings(max_examples=300, deadline=None)
    def test_report_is_always_finite_and_sane(self, t):
        rep = keyrate(t, PARAMS, SEC)
        assert rep.skl >= 0
        assert 0.0 <= rep.phi_z_upper <= 0.5
        assert 0.0 <= rep.q_z <= 1.0
        assert 0.0 <= rep.q_x <= 0.5
        assert math.isfinite(rep.skr) and math.isfinite(rep.yield_)

    @given(valid_tallies)
    @settings(max_examples=150, deadline=None)
    def test_tenfold_sample_scaling_shrinks_penalty(self, t):
        b = decoy_bounds(t, PARAMS, SEC)
        if b.s_x1_lower <= 0 or b.s_z1_lower <= 0 or b.v_x1_upper >= b.s_x1_lower:
            return
        ratio = b.v_x1_upper / b.s_x1_lower
        if ratio <= 0.0:
            return
        small = gamma_penalty(SEC.eps_sec, ratio, b.s_x1_lower, b.s_z1_lower)
        big = gamma_penalty(SEC.eps_sec, ratio, 10 * b.s_x1_lower, 10 * b.s_z1_lower)
        assert big <= small


class TestReportSerialization:
    def test_json_dict_key_set(self):
        rep = keyrate(FROZEN, PARAMS, SEC)
        assert set(rep.to_json_dict()) == {
            "s_z0_lower", "s_z1_lower", "phi_z_upper", "q_z",
            "lambda_ec", "skl", "skr", "yield",
            "s_x1_lower", "v_x1_upper", "s_z0_upper",
        }

    def test_all_error_x_tally_reports_q_x_one(self):
        # every X click fell in a fringe-minimum block
        t = TallyCounts(n_x_mu1=3, m_x_mu1=3, n_z_mu1=10, elapsed_s=1.0)
        assert keyrate(t, PARAMS, SEC).q_x == 1.0

    def test_empty_x_tally_reports_q_x_zero(self):
        t = TallyCounts(n_z_mu1=10, elapsed_s=1.0)
        assert keyrate(t, PARAMS, SEC).q_x == 0.0

    def test_leakage_formula(self):
        lam = error_correction_leakage(FROZEN, SEC)
        from tbqkd import binary_entropy

        q = FROZEN.m_z / FROZEN.n_z
        assert lam == pytest.approx(1.02 * FROZEN.n_z * binary_entropy(q), rel=1e-14)

    def test_leakage_zero_for_empty_z(self):
        assert error_correction_leakage(TallyCounts(), SEC) == 0.0
