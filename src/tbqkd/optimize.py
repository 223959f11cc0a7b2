"""Source-parameter grid search driven by the analytic tally oracle."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

from .config import ScenarioConfig
from .errors import DomainError, EmptyGridError
from .keyrate import KeyRateReport, keyrate
from .protocol import ProtocolParams
from .sift import TALLY_KEYS, TALLY_PAIRS, TallyCounts
from .slotmodel import (
    ExpectedTallies,
    analytic_expected_tallies,
    fringe_block_bursts,
    grouped_expected_tallies,
)


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per source parameter; the search is the full
    cartesian product, skipping the combinations ProtocolParams refuses."""

    mu1: Sequence[float]
    mu2: Sequence[float]
    p_mu1: Sequence[float]
    p_z: Sequence[float]

    def axes(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(sorted(set(ax))) for ax in
                     (self.mu1, self.mu2, self.p_mu1, self.p_z))


@dataclass(frozen=True)
class GridPoint:
    mu1: float
    mu2: float
    p_mu1: float
    p_z: float
    skl: int


@dataclass(frozen=True)
class GridResult:
    best: ProtocolParams
    best_skl: int
    best_report: KeyRateReport
    points: tuple[GridPoint, ...]


def expected_tally_counts(expected: ExpectedTallies) -> TallyCounts:
    """Round real-valued expectations into a TallyCounts (m clamped to n
    so rounding cannot break the m <= n invariant)."""
    vals = [round(expected.means[k]) for k in TALLY_KEYS]
    for i, j in TALLY_PAIRS:
        vals[j] = min(vals[j], vals[i])
    return TallyCounts(elapsed_s=expected.elapsed_s, **dict(zip(TALLY_KEYS, vals)))


def expected_keyrate(scenario: ScenarioConfig) -> KeyRateReport:
    """Key analysis applied to the analytic expected tallies."""
    return _keyrate_of(scenario, analytic_expected_tallies(scenario))


def _keyrate_of(scenario: ScenarioConfig, expected: ExpectedTallies) -> KeyRateReport:
    """Key analysis of the scenario's expected tallies."""
    return keyrate(
        expected_tally_counts(expected),
        scenario.params,
        scenario.security,
        symbols_sent=expected.symbols_sent,
    )


def optimize_params(scenario: ScenarioConfig, grid: GridSpec) -> GridResult:
    """Exhaustive search over (mu1, mu2, p_mu1, p_z) maximizing the
    expected secret key length on the scenario's channel and detector.

    Deterministic: axes are sorted, ties keep the lexicographically
    smallest parameter tuple. Raises EmptyGridError when no combination
    is a valid parameter set.

    The points that share a fringe block length, the one input of the
    lock schedule that a grid point changes, are evaluated in one
    grouped_expected_tallies pass; each point's result is that of its
    own expected_keyrate.
    """
    candidates = []
    for mu1, mu2, p_mu1, p_z in itertools.product(*grid.axes()):
        try:
            params = dataclasses.replace(
                scenario.params, mu1=mu1, mu2=mu2, p_mu1=p_mu1, p_z=p_z
            )
        except DomainError:
            continue
        candidates.append(scenario.replace(params=params))
    if not candidates:
        raise EmptyGridError("grid contains no valid parameter combination")
    groups: dict[int, list[int]] = {}
    for i, sc in enumerate(candidates):
        groups.setdefault(fringe_block_bursts(sc), []).append(i)
    reports: dict[int, KeyRateReport] = {}
    for members in groups.values():
        expected = grouped_expected_tallies([candidates[i] for i in members])
        for i, exp in zip(members, expected):
            reports[i] = _keyrate_of(candidates[i], exp)
    # max keeps the first of equal maxima
    top = max(range(len(candidates)), key=lambda i: reports[i].skl)
    params = [sc.params for sc in candidates]
    return GridResult(
        best=params[top],
        best_skl=reports[top].skl,
        best_report=reports[top],
        points=tuple(
            GridPoint(p.mu1, p.mu2, p.p_mu1, p.p_z, reports[i].skl)
            for i, p in enumerate(params)
        ),
    )
