"""Finite-key one-decoy security analysis.

Bounds on vacuum and single-photon event counts are built from the two
intensity tallies via Hoeffding concentration, the phase error rate is
transferred from the X basis with a finite-statistics penalty, and the
secret key length follows the standard one-decoy composition with
error-correction leakage lambda_EC = f_ec * n_Z * h(Q_Z).

Every bound is clamped to its physical range on the way out, so callers
always receive ordered, non-negative values; statistics too poor to
certify anything surface as zero bounds and phi_Z = 0.5 rather than
exceptions mid-pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .protocol import ProtocolParams, binary_entropy, tau_n
from .sift import TallyCounts, qber_x, qber_z

# the concentration budget splits eps_sec across 19 deviation terms
EPS_SPLIT = 19.0


@dataclass(frozen=True)
class SecurityParams:
    eps_sec: float = 1e-9
    eps_cor: float = 1e-9
    f_ec: float = 1.16

    def __post_init__(self) -> None:
        for name in ("eps_sec", "eps_cor"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v}")
        if not (1.0 <= self.f_ec < math.inf):
            raise DomainError(f"f_ec must be finite and >= 1, got {self.f_ec}")


def hoeffding_delta(n: float, eps: float) -> float:
    """Half-width of the concentration interval for n trials."""
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return math.sqrt(n / 2.0 * math.log(1.0 / eps))


def finite_bounds(n_k: float, n: float, eps: float) -> tuple[float, float]:
    """(lower, upper) on the true expected count behind n_k of n total
    events: n_k -/+ delta, clamped to [0, n]."""
    if not (0 <= n_k <= n):
        raise DomainError(f"need 0 <= n_k <= n, got n_k={n_k}, n={n}")
    d = hoeffding_delta(n, eps)
    return max(0.0, n_k - d), min(float(n), n_k + d)


@dataclass(frozen=True)
class DecoyBounds:
    """One-decoy bounds per basis; *_lower/*_upper are event counts."""

    s_z0_lower: float
    s_z0_upper: float
    s_z1_lower: float
    s_x0_upper: float
    s_x1_lower: float
    v_x1_upper: float

    @property
    def degenerate(self) -> bool:
        return self.s_z1_lower <= 0.0 or self.s_x1_lower <= 0.0


def _basis_bounds(
    n1: int,
    n2: int,
    m_total: int,
    params: ProtocolParams,
    eps1: float,
    eps2: float,
    t0: float,
    t1: float,
) -> tuple[float, float, float]:
    """(s0_lower, s0_upper, s1_lower) for one basis."""
    mu1, mu2 = params.mu1, params.mu2
    n = n1 + n2
    lo1, up1 = finite_bounds(n1, n, eps1)
    lo2, up2 = finite_bounds(n2, n, eps1)
    n_minus_2 = math.exp(mu2) / params.p_mu2 * lo2
    n_plus_1 = math.exp(mu1) / params.p_mu1 * up1

    s0_upper = 2.0 * (m_total + hoeffding_delta(m_total, eps2))
    s0_upper = min(float(n), s0_upper)
    s0_lower = t0 / (mu1 - mu2) * (mu1 * n_minus_2 - mu2 * n_plus_1)
    s0_lower = min(max(0.0, s0_lower), s0_upper)

    r2 = (mu2 * mu2) / (mu1 * mu1)
    s1_lower = (
        t1
        * mu1
        / (mu2 * (mu1 - mu2))
        * (n_minus_2 - r2 * n_plus_1 - (1.0 - r2) * s0_upper / t0)
    )
    s1_lower = min(max(0.0, s1_lower), float(n))
    return s0_lower, s0_upper, s1_lower


def decoy_bounds(
    t: TallyCounts, params: ProtocolParams, sec: SecurityParams
) -> DecoyBounds:
    """All one-decoy bounds from a tally set.

    Empty or hopeless tallies come back as zero bounds (degenerate flag)
    instead of raising, so property sweeps and the pipeline can treat
    every tally uniformly.
    """
    eps1 = eps2 = sec.eps_sec / EPS_SPLIT
    t0 = tau_n(0, params)
    t1 = tau_n(1, params)

    s_z0_l, s_z0_u, s_z1_l = _basis_bounds(
        t.n_z_mu1, t.n_z_mu2, t.m_z, params, eps1, eps2, t0, t1
    )
    _, s_x0_u, s_x1_l = _basis_bounds(
        t.n_x_mu1, t.n_x_mu2, t.m_x, params, eps1, eps2, t0, t1
    )

    mu1, mu2 = params.mu1, params.mu2
    _, mup1 = finite_bounds(t.m_x_mu1, t.m_x, eps2)
    mlo2, _ = finite_bounds(t.m_x_mu2, t.m_x, eps2)
    m_plus_1 = math.exp(mu1) / params.p_mu1 * mup1
    m_minus_2 = math.exp(mu2) / params.p_mu2 * mlo2
    v_x1_u = t1 / (mu1 - mu2) * (m_plus_1 - m_minus_2)
    v_x1_u = min(max(0.0, v_x1_u), float(t.n_x))

    return DecoyBounds(
        s_z0_lower=s_z0_l,
        s_z0_upper=s_z0_u,
        s_z1_lower=s_z1_l,
        s_x0_upper=s_x0_u,
        s_x1_lower=s_x1_l,
        v_x1_upper=v_x1_u,
    )


def gamma_penalty(a: float, b: float, c: float, d: float) -> float:
    """Finite-statistics penalty on the transferred phase error rate.

    Vanishes as the single-photon samples c and d grow, and at b = 0."""
    if c <= 0.0 or d <= 0.0:
        raise DomainError("gamma_penalty needs positive sample counts")
    if b <= 0.0 or b >= 1.0:
        return 0.0
    spread = (c + d) * (1.0 - b) * b / (c * d * math.log(2.0))
    arg = (c + d) / (c * d * (1.0 - b) * b) * (EPS_SPLIT / a) ** 2
    log_term = math.log2(arg)
    if log_term <= 0.0:
        return 0.0
    return math.sqrt(spread * log_term)


def phase_error_upper(
    s_z1_lower: float,
    s_x1_lower: float,
    v_x1_upper: float,
    sec: SecurityParams,
) -> float:
    """Upper bound on the Z-basis phase error rate, in [0, 0.5].

    Collapsed single-photon bounds (either basis) give the trivial 0.5."""
    if s_x1_lower <= 0.0 or s_z1_lower <= 0.0:
        return 0.5
    ratio = v_x1_upper / s_x1_lower
    if ratio >= 0.5:
        return 0.5
    phi = ratio + gamma_penalty(sec.eps_sec, ratio, s_x1_lower, s_z1_lower)
    return min(0.5, phi)


def finite_key_cost(sec: SecurityParams) -> float:
    """Fixed security cost subtracted from the key length."""
    return 6.0 * math.log2(EPS_SPLIT / sec.eps_sec) + math.log2(2.0 / sec.eps_cor)


def error_correction_leakage(
    t: TallyCounts, sec: SecurityParams
) -> float:
    """lambda_EC = f_ec * n_Z * h(Q_Z); zero for an empty Z tally."""
    if t.n_z == 0:
        return 0.0
    return sec.f_ec * t.n_z * binary_entropy(qber_z(t))


def secret_key_length(
    bounds: DecoyBounds,
    phi_z: float,
    t: TallyCounts,
    sec: SecurityParams,
) -> tuple[int, float]:
    """(skl, lambda_EC): extractable bits for this block, clamped at 0."""
    lam_ec = error_correction_leakage(t, sec)
    raw = (
        bounds.s_z0_lower
        + bounds.s_z1_lower * (1.0 - binary_entropy(phi_z))
        - lam_ec
        - finite_key_cost(sec)
    )
    return max(0, math.floor(raw)), lam_ec


@dataclass(frozen=True)
class KeyRateReport:
    """Final per-block analysis. yield_ serializes as "yield"."""

    s_z0_lower: float
    s_z1_lower: float
    phi_z_upper: float
    q_z: float
    lambda_ec: float
    skl: int
    skr: float
    yield_: float
    s_x1_lower: float = 0.0
    v_x1_upper: float = 0.0
    s_z0_upper: float = 0.0
    # diagnostics that report.json carries in its meta
    q_x: float = 0.0
    degenerate: bool = False

    def to_json_dict(self) -> dict[str, float]:
        return {
            "s_z0_lower": self.s_z0_lower,
            "s_z1_lower": self.s_z1_lower,
            "phi_z_upper": self.phi_z_upper,
            "q_z": self.q_z,
            "lambda_ec": self.lambda_ec,
            "skl": self.skl,
            "skr": self.skr,
            "yield": self.yield_,
            "s_x1_lower": self.s_x1_lower,
            "v_x1_upper": self.v_x1_upper,
            "s_z0_upper": self.s_z0_upper,
        }


def keyrate(
    t: TallyCounts,
    params: ProtocolParams,
    sec: SecurityParams,
    symbols_sent: int | None = None,
) -> KeyRateReport:
    """Full analysis of one tally block.

    symbols_sent defaults to the tally's own sent_counts total; elapsed
    time comes from the tally. Degenerate statistics produce skl = 0
    with phi_Z = 0.5, never an exception.
    """
    sent = t.symbols_sent if symbols_sent is None else symbols_sent
    bounds = decoy_bounds(t, params, sec)
    phi = phase_error_upper(
        bounds.s_z1_lower, bounds.s_x1_lower, bounds.v_x1_upper, sec
    )
    skl, lam_ec = secret_key_length(bounds, phi, t, sec)
    return KeyRateReport(
        s_z0_lower=bounds.s_z0_lower,
        s_z1_lower=bounds.s_z1_lower,
        phi_z_upper=phi,
        q_z=qber_z(t) if t.n_z > 0 else 0.0,
        lambda_ec=lam_ec,
        skl=skl,
        skr=skl / t.elapsed_s if t.elapsed_s > 0.0 else 0.0,
        yield_=skl / sent if sent > 0 else 0.0,
        q_x=qber_x(t) if t.n_x > 0 else 0.0,
        s_x1_lower=bounds.s_x1_lower,
        v_x1_upper=bounds.v_x1_upper,
        s_z0_upper=bounds.s_z0_upper,
        degenerate=bounds.degenerate or t.n_z == 0,
    )
