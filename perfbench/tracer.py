"""In-memory span tracer that wraps tbqkd functions from outside.

A wrapped function is replaced, for the duration of `Tracer.installed()`,
under the module attribute its callers look it up by: `pipeline` calls
`modulate` as `tbqkd.pipeline.modulate`, so that is the binding patched,
while `slotmodel` calls its own `outcome_probs` as
`tbqkd.slotmodel.outcome_probs`. Every binding of one function records
spans under one layer name. Spans (name, start, end, parent) are kept in
flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

# layer name -> the module attributes its callers look it up by
WRAPPED = {
    "config.load_preset": ("tbqkd.config.load_preset",),
    "slotmodel.build_link_model": (
        "tbqkd.slotmodel.build_link_model",
        "tbqkd.pipeline.build_link_model",
    ),
    "slotmodel.analytic_expected_tallies": (
        "tbqkd.slotmodel.analytic_expected_tallies",
        "tbqkd.optimize.analytic_expected_tallies",
    ),
    "slotmodel.outcome_probs": (
        "tbqkd.slotmodel.outcome_probs",
        "tbqkd.pipeline.outcome_probs",
    ),
    "slotmodel.servo_excluded": (
        "tbqkd.slotmodel.servo_excluded",
        "tbqkd.pipeline.servo_excluded",
    ),
    "pipeline.simulate_and_analyze": ("tbqkd.pipeline.simulate_and_analyze",),
    "pipeline.run_simulation": ("tbqkd.pipeline.run_simulation",),
    "pipeline.run_simulation_reference": (
        "tbqkd.pipeline.run_simulation_reference",
    ),
    "protocol.sample_symbol": ("tbqkd.pipeline.sample_symbol",),
    "ppg.serialize_word": ("tbqkd.pipeline.serialize_word",),
    "source.modulate": ("tbqkd.pipeline.modulate",),
    "link.transmit": ("tbqkd.pipeline.transmit",),
    "link.receiver_basis": ("tbqkd.pipeline.receiver_basis",),
    "link.detect_z": ("tbqkd.pipeline.detect_z",),
    "link.detect_x": ("tbqkd.pipeline.detect_x",),
    "link.interfere": ("tbqkd.link.interfere",),
    "sift.sift": ("tbqkd.pipeline.sift",),
    "optimize.optimize_params": ("tbqkd.optimize.optimize_params",),
    "optimize.expected_keyrate": ("tbqkd.optimize.expected_keyrate",),
    "keyrate.keyrate": ("tbqkd.pipeline.keyrate", "tbqkd.optimize.keyrate"),
}

# layer name -> (counter name, function of the call's arguments)
ARG_COUNTERS = {
    "slotmodel.outcome_probs": ("rows", lambda args: len(args[1])),
    "sift.sift": ("events", lambda args: len(args[0])),
}


def _resolve(path: str) -> tuple[object, str]:
    module, attr = path.rsplit(".", 1)
    return importlib.import_module(module), attr


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = list(WRAPPED)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        nid = self._name_id[layer]
        counter = ARG_COUNTERS.get(layer)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            if counter is not None:
                self.counters[f"{layer}.{counter[0]}"] += counter[1](args)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every caller binding for the duration of the block."""
        saved = []
        try:
            for layer, paths in WRAPPED.items():
                for path in paths:
                    module, attr = _resolve(path)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one phase."""
        return len(self.name)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16)
        dur = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        ) * 1e-9
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return name, dur, parent

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per layer: calls, total seconds and self seconds of the spans
        with index in [lo, hi). Self time is a span's duration minus the
        durations of its direct children; children of one span never
        overlap because the workload runs in one thread."""
        name, dur, parent = self._arrays()
        hi = len(name) if hi is None else hi
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(name)
        )
        self_t = dur - child
        sel = slice(lo, hi)
        out = {}
        for nid, layer in enumerate(self.names):
            mask = name[sel] == nid
            out[layer] = {
                "calls": int(mask.sum()),
                "s": float(dur[sel][mask].sum()),
                "self_s": float(self_t[sel][mask].sum()),
                "durations": dur[sel][mask],
            }
        return out

    def median_duration(self, layer: str, lo: int = 0, hi: int | None = None) -> float:
        d = self.layer_totals(lo, hi)[layer]["durations"]
        return float(statistics.median(d)) if len(d) else 0.0

    def save(self, path) -> None:
        name, dur, parent = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=parent,
        )
