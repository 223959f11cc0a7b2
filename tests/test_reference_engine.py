"""The reference engine's pinned outcomes, its per-slot call chain and
the value semantics of the objects it passes along.

The records below are whole RunOutcomes (timings take no part in
equality) and detector event lists of the event-by-event chain. They pin
the RNG stream, the order of its scalar draws and the gate-started TDC
of link.detect, which counts TDC steps from the gate start and takes a
bin by the half-open regions of link.bin_regions. A change that moves
any of these changes a record here, and must replace the record
knowingly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import tbqkd.link as link
import tbqkd.pipeline as pipeline
from tbqkd import (
    Basis,
    Bin,
    DetectionEvent,
    DetectorModel,
    InterferometerModel,
    IntensityClass,
    OpticalPulse,
    ProtocolParams,
    Pulse,
    RunOutcome,
    SiftResult,
    SourceConfig,
    State,
    Symbol,
    TallyCounts,
    TALLY_KEYS,
    detect_x,
    detect_z,
    run_simulation_reference,
)
from tbqkd.errors import DomainError

from conftest import small_scenario

DURATION = 0.01  # 417 bursts of 20 slots


def _detector(**changes) -> DetectorModel:
    return dataclasses.replace(small_scenario().detector, **changes)


def _drift_servo():
    ifm = dataclasses.replace(
        small_scenario().interferometer,
        drift_sigma=0.5,
        stabilization_interval=0.004,
    )
    return small_scenario(
        duration=DURATION, seed=13, interferometer=ifm, servo_bursts_per_event=4
    )


IDENTITY_SET = {
    "small": lambda: small_scenario(duration=DURATION),
    "gap_bits2": lambda: small_scenario(
        duration=DURATION,
        seed=12,
        gap_bits=2,
        interferometer=dataclasses.replace(
            small_scenario().interferometer, delay=2.193e-9
        ),
    ),
    "drift_servo": _drift_servo,
    "blind_dark1e-6": lambda: small_scenario(
        duration=DURATION,
        seed=14,
        detector=_detector(efficiency=0.0, dark_prob_per_ns=1e-6),
    ),
    "0db_eff0.5": lambda: small_scenario(
        duration=DURATION, seed=15, detector=_detector(efficiency=0.5)
    ).with_loss(0.0),
    "infinite_extinction": lambda: small_scenario(
        duration=DURATION,
        seed=16,
        source=SourceConfig(extinction_ratio_db=math.inf, im1_transmission_x=0.5),
    ),
    "jitter0": lambda: small_scenario(
        duration=DURATION, seed=17, detector=_detector(jitter_sigma=0.0)
    ),
}

# per scenario: tallies in TALLY_KEYS order, sent_counts, elapsed_s,
# the four discard counters of SiftResult, eligible and total bursts,
# symbols sent
RECORDS = {
    "small": dict(
        tallies=(54, 8, 1, 0, 3, 0, 0, 0),
        sent=((2394, 1388), (2354, 1394), (511, 299)),
        elapsed_s=0.001668,
        discards=(39, 0, 1, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
    "gap_bits2": dict(
        tallies=(58, 17, 2, 0, 1, 1, 0, 0),
        sent=((2396, 1375), (2419, 1340), (544, 266)),
        elapsed_s=0.001668,
        discards=(40, 0, 4, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
    "drift_servo": dict(
        tallies=(49, 12, 1, 0, 2, 0, 0, 0),
        sent=((2291, 1332), (2346, 1368), (467, 296)),
        elapsed_s=0.00162,
        discards=(43, 0, 1, 0),
        eligible_bursts=405,
        total_bursts=417,
        symbols_sent=8100,
    ),
    "blind_dark1e-6": dict(
        tallies=(0, 0, 0, 0, 0, 0, 0, 0),
        sent=((2315, 1419), (2396, 1394), (504, 312)),
        elapsed_s=0.001668,
        discards=(0, 0, 0, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
    "0db_eff0.5": dict(
        tallies=(240, 67, 3, 2, 23, 2, 0, 0),
        sent=((2311, 1347), (2369, 1440), (548, 325)),
        elapsed_s=0.001668,
        discards=(294, 1, 13, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
    "infinite_extinction": dict(
        tallies=(54, 9, 0, 0, 9, 1, 0, 0),
        sent=((2343, 1383), (2421, 1376), (485, 332)),
        elapsed_s=0.001668,
        discards=(43, 0, 2, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
    "jitter0": dict(
        tallies=(66, 6, 0, 1, 1, 1, 0, 0),
        sent=((2331, 1425), (2386, 1371), (525, 302)),
        elapsed_s=0.001668,
        discards=(34, 0, 1, 0),
        eligible_bursts=417,
        total_bursts=417,
        symbols_sent=8340,
    ),
}


def pinned_outcome(rec: dict) -> RunOutcome:
    tallies = TallyCounts(
        **dict(zip(TALLY_KEYS, rec["tallies"])),
        sent_counts=rec["sent"],
        elapsed_s=rec["elapsed_s"],
    )
    return RunOutcome(
        sift_stats=SiftResult(tallies, *rec["discards"]),
        eligible_bursts=rec["eligible_bursts"],
        total_bursts=rec["total_bursts"],
    )


@pytest.mark.parametrize("name", list(IDENTITY_SET))
def test_outcome_equals_the_pinned_record(name):
    rec = RECORDS[name]
    outcome = run_simulation_reference(IDENTITY_SET[name]())
    assert outcome == pinned_outcome(rec)
    assert outcome.symbols_sent == rec["symbols_sent"]
    assert outcome.elapsed_s == rec["elapsed_s"]


# one detector call on each path: two bursts of 20 gates, no dead time,
# so every slot can click; darks at 5e-3 per ns fill some empty gates
DET = DetectorModel(efficiency=0.5, dead_time=0.0, dark_prob_per_ns=5e-3)
FRAMING = small_scenario().framing
TIMING = ProtocolParams()  # 20 slots 200 ns apart, bursts every 24 us
GATES = TIMING.burst_slots(0) + TIMING.burst_slots(1)


def _pulse(b, s, label, mean):
    bit = FRAMING.early if label == Bin.EARLY else FRAMING.late
    start = TIMING.burst_slots(b)[s][2] + bit * FRAMING.clock.bit_duration_ps
    return OpticalPulse(
        start_ps=start,
        width_ps=FRAMING.clock.bit_duration_ps,
        mean_photons=mean,
        phase=0.3,
        bin_label=label,
        burst_index=b,
        slot_index=s,
    )


def _z_pulses():
    """An early pulse in every third slot, a late one in the next, and
    an empty gate in the third."""
    out = []
    for b, s, _ in GATES:
        if s % 3 < 2:
            out.append(_pulse(b, s, (Bin.EARLY, Bin.LATE)[s % 3], 2.0))
    return out


def _x_groups():
    """XPlus pairs in even slots, a lone early pulse in odd ones."""
    groups = []
    for b, s, _ in GATES:
        group = [_pulse(b, s, Bin.EARLY, 1.0)]
        if s % 2 == 0:
            group.append(_pulse(b, s, Bin.LATE, 1.0))
        groups.append(group)
    return groups


DETECT_Z_EVENTS = [
    (201890, "LATE", False),
    (600252, "EARLY", False),
    (1200588, "EARLY", False),
    (2001890, "LATE", False),
    (2601806, "LATE", False),
    (3201764, "LATE", False),
    (3801680, "LATE", False),
    (24201680, "LATE", False),
    (24600336, "EARLY", False),
    (24801680, "LATE", False),
    (25004788, "OUTSIDE", True),
    (26601848, "LATE", False),
    (27000168, "EARLY", False),
    (27201680, "LATE", False),
    (27600168, "EARLY", False),
    (27801764, "LATE", False),
]
DETECT_X_EVENTS = [
    (1428, "CENTRAL", False),
    (400462, "EARLY", False),
    (600546, "EARLY", False),
    (801680, "CENTRAL", False),
    (1001554, "CENTRAL", False),
    (1601806, "CENTRAL", False),
    (1802142, "CENTRAL", False),
    (2002100, "CENTRAL", False),
    (2200126, "EARLY", False),
    (2401764, "CENTRAL", False),
    (3601176, "OUTSIDE", True),
    (24401680, "CENTRAL", False),
    (24801890, "CENTRAL", False),
    (25211508, "OUTSIDE", True),
    (26001974, "CENTRAL", False),
    (26401890, "CENTRAL", False),
    (27201848, "CENTRAL", False),
    (27600210, "EARLY", False),
]


def _event_list(events):
    return [(ev.timestamp_ps, ev.bin.name, ev.is_dark) for ev in events]


def test_detect_z_events_equal_the_pinned_list():
    events = detect_z(_z_pulses(), DET, GATES, np.random.default_rng(5), FRAMING)
    assert all(ev.basis == Basis.Z for ev in events)
    assert _event_list(events) == DETECT_Z_EVENTS


def test_detect_x_events_equal_the_pinned_list():
    ifm = InterferometerModel(delay=FRAMING.separation_ps * 1e-12)
    events = detect_x(
        _x_groups(), ifm, 0.7, DET, GATES, np.random.default_rng(6), FRAMING
    )
    assert all(ev.basis == Basis.X for ev in events)
    assert _event_list(events) == DETECT_X_EVENTS


# the bindings the benchmark's tracer patches on the reference path
PER_SLOT = ("sample_symbol", "serialize_word", "modulate", "transmit", "receiver_basis")
PER_BURST = ("detect_z", "detect_x")


def test_chain_runs_event_by_event(monkeypatch):
    """One call per eligible slot of each per-slot op, one detector call
    per eligible burst and path, one interfere per X-routed slot and one
    sift per run."""
    calls = dict.fromkeys((*PER_SLOT, *PER_BURST, "sift", "interfere"), 0)
    x_routed = 0

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            nonlocal x_routed
            calls[name] += 1
            out = inner(*args, **kwargs)
            if name == "receiver_basis" and out == Basis.X:
                x_routed += 1
            return out

        monkeypatch.setattr(module, name, wrapper)

    for name in (*PER_SLOT, *PER_BURST, "sift"):
        counting(pipeline, name)
    counting(link, "interfere")

    sc = IDENTITY_SET["drift_servo"]()
    outcome = run_simulation_reference(sc)
    assert outcome == pinned_outcome(RECORDS["drift_servo"])
    slots = sc.params.symbols_per_burst
    assert 0 < outcome.eligible_bursts < sc.n_bursts
    for name in PER_SLOT:
        assert calls[name] == outcome.eligible_bursts * slots, name
    for name in PER_BURST:
        assert calls[name] == outcome.eligible_bursts, name
    assert 0 < x_routed < outcome.eligible_bursts * slots
    assert calls["interfere"] == x_routed
    assert calls["sift"] == 1


# one instance of each object the chain passes along, and a field to
# change in it
OBJECTS = {
    "OpticalPulse": (
        lambda: OpticalPulse(1462, 731, 0.25, 1.5, Bin.LATE, 3, 7),
        "mean_photons",
        0.5,
    ),
    "Pulse": (lambda: Pulse(731, 731, Bin.EARLY, 2, 5), "start_ps", 0),
    "Symbol": (
        lambda: Symbol(State.XPlus, IntensityClass.Decoy, 2.5, 4, 9),
        "phase",
        0.5,
    ),
    "DetectionEvent": (
        lambda: DetectionEvent(4200, 1, 2, Bin.CENTRAL, Basis.X, True),
        "timestamp_ps",
        4242,
    ),
}


@pytest.mark.parametrize("name", list(OBJECTS))
class TestObjectSemantics:
    def test_fields_are_frozen(self, name):
        make, field, value = OBJECTS[name]
        obj = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field)

    def test_equality_and_hash_are_by_value(self, name):
        make, field, value = OBJECTS[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        changed = dataclasses.replace(a, **{field: value})
        assert changed != a and getattr(changed, field) == value
        assert dataclasses.astuple(changed) != dataclasses.astuple(a)

    def test_repr_names_every_field(self, name):
        obj = OBJECTS[name][0]()
        fields = ", ".join(
            f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(obj)
        )
        assert repr(obj) == f"{name}({fields})"


def test_negative_mean_photons_is_refused():
    with pytest.raises(DomainError, match="mean_photons"):
        OpticalPulse(
            start_ps=0,
            width_ps=731,
            mean_photons=-1e-9,
            phase=0.0,
            bin_label=Bin.EARLY,
        )


def test_replace_runs_the_checks():
    pulse = OBJECTS["OpticalPulse"][0]()
    with pytest.raises(DomainError, match="mean_photons"):
        dataclasses.replace(pulse, mean_photons=-1.0)
    symbol = OBJECTS["Symbol"][0]()
    with pytest.raises(DomainError, match="phase"):
        dataclasses.replace(symbol, phase=2.0 * math.pi)
    with pytest.raises(DomainError, match="phase"):
        Symbol(State.Z0, IntensityClass.Signal, -0.1)
