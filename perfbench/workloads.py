"""The benchmark's two workloads: scenarios, operations and checks.

A workload is set up once from the benchmark seed and then runs whole
rounds of the same operations. Each round holds the workload's primary
operations, which the traced run wraps. simulate-sweep adds small probes
of the engines it does not stress, so that every workload reports every
end-to-end metric. The program receives only the generated scenarios.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import tbqkd.config as config
import tbqkd.optimize as optimize
import tbqkd.pipeline as pipeline
import tbqkd.slotmodel as slotmodel
from tbqkd.config import ScenarioConfig
from tbqkd.link import ChannelModel, DetectorModel, InterferometerModel
from tbqkd.ppg import ClockConfig
from tbqkd.protocol import ProtocolParams
from tbqkd.source import SourceConfig

import checks


@dataclass(frozen=True)
class Sizes:
    """Simulated durations, in seconds of protocol time. Probes and
    cross-check cases are short, so that a run holds dozens of calls of
    each, spread over the whole run. The grid probe stays short enough
    that the oracle's memory stays below that of the batch engine."""

    sweep: float
    grid: float
    cross: float
    framing: float
    probe_grid: float
    probe_reference: float


FULL = Sizes(sweep=60.0, grid=5.0, cross=0.01, framing=0.01,
             probe_grid=1.0, probe_reference=0.002)
TOY = Sizes(sweep=2.0, grid=0.5, cross=0.005, framing=0.005,
            probe_grid=0.2, probe_reference=0.001)

# probes of each kind after every sweep point
PROBES_PER_POINT = 6
# cross-check passes after every grid call and its batch run
CROSS_PER_GRID = 6

SWEEP_POINTS = (("0db", "link-7db", 0.0), ("7db", "link-7db", 7.0),
                ("14db", "link-14db", 14.0))


def small_scenario(**overrides) -> ScenarioConfig:
    """Low loss, drift and servo exclusion off: every slot class collects
    counts within a few thousand bursts."""
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
        duration=0.05,
        seed=11,
        fringe_block_x_symbols=2000,
        servo_bursts_per_event=0,
    )
    return base.replace(**overrides)


def framing_scenario(**overrides) -> ScenarioConfig:
    """Non-canonical framing: two gap bits, so early and late sit three
    bits (2193 ps) apart and the interferometer delay follows."""
    ifm = dataclasses.replace(small_scenario().interferometer, delay=2.193e-9)
    return small_scenario(gap_bits=2, interferometer=ifm, **overrides)


@dataclass
class Op:
    name: str
    kind: str  # sweep | batch | reference | oracle | grid
    fn: Callable[[], Any]
    sc: ScenarioConfig
    primary: bool = True

    @property
    def batch_slots(self) -> int:
        """Slots a batch-engine run simulates: every burst, servo
        windows included."""
        return self.sc.n_bursts * self.sc.params.symbols_per_burst


@dataclass
class OpResult:
    value: Any
    seconds: float
    error: Exception | None


class EventCount:
    """Counts the detection events pipeline passes to sift, so that the
    check can account for every event of a reference run."""

    def __init__(self) -> None:
        self.events = -1

    @contextlib.contextmanager
    def watching(self):
        inner = pipeline.sift

        def counting(events, *args, **kwargs):
            self.events = len(events)
            return inner(events, *args, **kwargs)

        pipeline.sift = counting
        try:
            yield
        finally:
            pipeline.sift = inner


def reference_op(name: str, sc: ScenarioConfig, primary: bool = True) -> Op:
    counter = EventCount()

    def run():
        with counter.watching():
            outcome = pipeline.run_simulation_reference(sc)
        return outcome, counter.events

    return Op(name, "reference", run, sc, primary)


def grid_spec(mu2, p_mu1):
    return optimize.GridSpec(mu1=(0.5,), mu2=mu2, p_mu1=p_mu1, p_z=(0.9,))


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes

    def next_seed(self) -> int:
        return int(self.rng.integers(0, 2**63))

    def setup(self) -> None:
        """Load the scenarios and make the first link-model build."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, first: dict[str, OpResult], toy: bool) -> list[str]:
        raise NotImplementedError


def grid_problems(spec, result) -> list[str]:
    points = [(p.mu1, p.mu2, p.p_mu1, p.p_z, p.skl) for p in result.points]
    b = result.best
    return checks.check_grid(spec.axes(), points,
                             (b.mu1, b.mu2, b.p_mu1, b.p_z), result.best_skl)


def reference_problems(name: str, sc, res: OpResult, exp: dict) -> list[str]:
    """A completed reference run: bookkeeping, event accounting and
    agreement with the oracle within 4 sigma + 2 on every key."""
    outcome, n_events = res.value
    rec = checks.run_record(outcome)
    return (checks.check_run_identities(sc, rec)
            + checks.check_events_accounted(n_events, rec)
            + checks.check_oracle_agreement(name, exp, rec, 4.0, 2.0, True))


class SimulateSweep(Workload):
    """The batch engine on the 7 dB preset at 0 dB, at 7 dB and on the
    14 dB preset: per-slot work is constant, first clicks fall 20-fold.
    Probes of optimize_params and of the reference engine follow each
    sweep point."""

    name = "simulate-sweep"

    def setup(self) -> None:
        self.points = {}
        for label, preset, loss in SWEEP_POINTS:
            sc = config.load_preset(preset)
            if sc.channel.loss_db != loss:
                sc = sc.with_loss(loss)
            self.points[label] = sc.replace(duration=self.sizes.sweep,
                                            seed=self.next_seed())
        self.probe_grid_sc = config.load_preset("link-14db").replace(
            duration=self.sizes.probe_grid)
        p = self.probe_grid_sc.params
        self.probe_grid_spec = grid_spec((p.mu2,), (p.p_mu1,))
        self.probe_ref_sc = small_scenario(
            duration=self.sizes.probe_reference, seed=self.next_seed())
        slotmodel.build_link_model(self.points["0db"])

    def ops(self) -> list[Op]:
        probes = [
            Op("probe.grid", "grid",
               lambda: optimize.optimize_params(self.probe_grid_sc,
                                                self.probe_grid_spec),
               self.probe_grid_sc, primary=False),
            reference_op("probe.reference", self.probe_ref_sc, primary=False),
        ]
        ops = []
        for label, sc in self.points.items():
            ops.append(Op(f"sweep.{label}", "sweep",
                          lambda sc=sc: pipeline.simulate_and_analyze(sc), sc))
            ops += PROBES_PER_POINT * probes
        return ops

    def check(self, first: dict[str, OpResult], toy: bool) -> list[str]:
        problems = []
        rates = []
        for label, sc in self.points.items():
            outcome, _ = first[f"sweep.{label}"].value
            rec = checks.run_record(outcome)
            problems += [f"{label}: {p}" for p in
                         checks.check_run_identities(sc, rec)
                         + checks.check_sent_multinomial(sc, rec)
                         + checks.check_z_first_clicks(sc, rec)]
            rate = checks.block_limit_rate(sc, rec["tallies"], rec["elapsed_s"],
                                           rec["symbols_sent"])
            rates.append((label, rate))
            band = checks.PAPER_BANDS.get(sc.channel.loss_db)
            if band is not None and not toy:
                problems += checks.check_band(label, rate, band)
        problems += checks.check_strictly_decreasing(rates)
        problems += grid_problems(self.probe_grid_spec, first["probe.grid"].value)
        sc = self.probe_ref_sc
        exp = checks.oracle_record(slotmodel.analytic_expected_tallies(sc))
        problems += reference_problems("probe.reference", sc,
                                       first["probe.reference"], exp)
        return problems


class OptimizeCrosscheck(Workload):
    """optimize_params on the 14 dB preset over a 2 x 2 grid holding the
    preset's own point, where the oracle does nearly all the work; then
    the reference engine, the batch engine and the oracle on one small
    scenario and on the non-canonical framing case."""

    name = "optimize-crosscheck"

    def setup(self) -> None:
        preset = config.load_preset("link-14db")
        self.base = preset.replace(duration=self.sizes.grid)
        p = self.base.params
        # the other grid values come from the seed; each lies at least
        # 0.02 (0.05) away from the preset's mu2 (p_mu1)
        sign = self.rng.choice((-1.0, 1.0), size=2)
        mu2 = round(p.mu2 + sign[0] * self.rng.uniform(0.02, 0.06), 4)
        p_mu1 = round(p.p_mu1 + sign[1] * self.rng.uniform(0.05, 0.15), 4)
        self.spec = grid_spec((p.mu2, mu2), (p.p_mu1, p_mu1))
        self.cases = {
            "main": small_scenario(duration=self.sizes.cross, seed=self.next_seed()),
            "framing": framing_scenario(duration=self.sizes.framing,
                                        seed=self.next_seed()),
        }
        slotmodel.build_link_model(self.base)

    def ops(self) -> list[Op]:
        # The batch run behind the oracle cross-check of the grid keeps the
        # preset's own seed: a 3 sigma gate over eight keys, some with
        # means near one, would fail about one draw in fifty, so its
        # realization is fixed, as the acceptance gate fixes its
        # configuration sweep.
        ops = [Op("grid", "grid",
                  lambda: optimize.optimize_params(self.base, self.spec), self.base),
               Op("grid.batch", "batch", lambda: pipeline.run_simulation(self.base),
                  self.base)]
        cross = []
        for case, sc in self.cases.items():
            cross += [
                reference_op(f"{case}.reference", sc),
                Op(f"{case}.batch", "batch",
                   lambda sc=sc: pipeline.run_simulation(sc), sc),
                Op(f"{case}.oracle", "oracle",
                   lambda sc=sc: slotmodel.analytic_expected_tallies(sc), sc),
            ]
        return ops + CROSS_PER_GRID * cross

    def check(self, first: dict[str, OpResult], toy: bool) -> list[str]:
        problems = grid_problems(self.spec, first["grid"].value)
        exp = checks.oracle_record(slotmodel.analytic_expected_tallies(self.base))
        problems += checks.check_oracle_identities(self.base, exp)
        rate = checks.block_limit_rate(self.base, exp["means"], exp["elapsed_s"],
                                       exp["symbols_sent"])
        problems += checks.check_band("oracle 14db", rate, checks.PAPER_BANDS[14.0])
        rec = checks.run_record(first["grid.batch"].value)
        problems += checks.check_run_identities(self.base, rec)
        problems += checks.check_oracle_agreement("grid.batch", exp, rec, 3.0, 0.0, True)
        for case, sc in self.cases.items():
            exp = checks.oracle_record(first[f"{case}.oracle"].value)
            batch = checks.run_record(first[f"{case}.batch"].value)
            found = (checks.check_oracle_identities(sc, exp)
                     + checks.check_run_identities(sc, batch)
                     + checks.check_oracle_agreement("batch", exp, batch, 4.0, 2.0, True))
            ref = first[f"{case}.reference"]
            if ref.error is None:
                found += reference_problems("reference", sc, ref, exp)
            problems += [f"{case}: {p}" for p in found]
        return problems


WORKLOADS = {w.name: w for w in (SimulateSweep, OptimizeCrosscheck)}
