"""Symbol distributions, photon statistics, and entropy helpers."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbqkd import (
    IntensityClass,
    ProtocolParams,
    State,
    Symbol,
    binary_entropy,
    sample_symbol,
    tau_n,
)
from tbqkd.errors import DomainError

PARAMS = ProtocolParams()

# Poisson-mixture photon-number weights for the default source
# (mu1=0.50, mu2=0.19, p_mu1=0.63), frozen from a 50-digit evaluation.
TAU0 = 0.688089195178003
TAU1 = 0.2491923849256979


def tau_highprec(n: int, params: ProtocolParams) -> float:
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p, mu in ((params.p_mu1, params.mu1), (1.0 - params.p_mu1, params.mu2)):
            mu = mpmath.mpf(mu)
            total += mpmath.mpf(p) * mpmath.e ** (-mu) * mu**n / mpmath.factorial(n)
        return float(total)


class TestTauN:
    def test_vacuum_weight(self):
        assert tau_n(0, PARAMS) == pytest.approx(0.688089, abs=1e-6)
        assert tau_n(0, PARAMS) == pytest.approx(TAU0, abs=1e-14)

    def test_single_photon_weight(self):
        assert tau_n(1, PARAMS) == pytest.approx(0.249192, abs=1e-6)
        assert tau_n(1, PARAMS) == pytest.approx(TAU1, abs=1e-14)

    def test_normalization(self):
        total = sum(tau_n(n, PARAMS) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision(self):
        for n in range(11):
            assert tau_n(n, PARAMS) == pytest.approx(
                tau_highprec(n, PARAMS), rel=1e-12
            )

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            tau_n(-1, PARAMS)

    def test_nonnegative(self):
        assert all(tau_n(n, PARAMS) >= 0.0 for n in range(30))


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_three_percent(self):
        assert binary_entropy(0.03) == pytest.approx(0.19439, abs=1e-5)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain_enforced(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric(self, x):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_concave_at_midpoint(self, a, b):
        mid = binary_entropy((a + b) / 2.0)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12


class TestProtocolParamsValidation:
    def test_decoy_must_be_weaker(self):
        with pytest.raises(DomainError):
            ProtocolParams(mu1=0.19, mu2=0.50)
        with pytest.raises(DomainError):
            ProtocolParams(mu1=0.5, mu2=0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_probabilities_strictly_interior(self, p):
        with pytest.raises(DomainError):
            ProtocolParams(p_mu1=p)
        with pytest.raises(DomainError):
            ProtocolParams(p_z=p)

    def test_burst_must_fit_in_period(self):
        with pytest.raises(DomainError):
            ProtocolParams(symbols_per_burst=20, symbol_period=200e-9, burst_period=3e-6)


class TestSampling:
    def test_deterministic(self):
        a = [sample_symbol(np.random.default_rng(42), PARAMS) for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            runs.append([sample_symbol(rng, PARAMS, 0, i) for i in range(500)])
        assert runs[0] == runs[1]
        assert a  # the single-draw path works too

    def test_sample_symbol_agrees_with_vectorized_marginals(self):
        rng = np.random.default_rng(7)
        draws = [sample_symbol(rng, PARAMS, 0, i) for i in range(20_000)]
        x_frac = np.mean([d.state == State.XPlus for d in draws])
        sig_frac = np.mean([d.intensity == IntensityClass.Signal for d in draws])
        assert x_frac == pytest.approx(1 - PARAMS.p_z, abs=4 * 0.3 / math.sqrt(20_000))
        assert sig_frac == pytest.approx(PARAMS.p_mu1, abs=4 * 0.5 / math.sqrt(20_000))

    def test_phases_uniform_and_independent(self):
        rng = np.random.default_rng(5)
        phases = np.array(
            [sample_symbol(rng, PARAMS, 0, i).phase for i in range(50_000)]
        )
        assert phases.min() >= 0.0 and phases.max() < 2 * math.pi
        sigma = (2 * math.pi / math.sqrt(12)) / math.sqrt(phases.size)
        assert phases.mean() == pytest.approx(math.pi, abs=4 * sigma)
        centered = phases - phases.mean()
        lag1 = np.mean(centered[1:] * centered[:-1]) / np.var(phases)
        assert abs(lag1) <= 4 / math.sqrt(phases.size)

    def test_symbol_phase_validation(self):
        with pytest.raises(DomainError):
            Symbol(State.Z0, IntensityClass.Signal, phase=7.0)
