"""Benchmark of the tbqkd simulator: one workload per invocation.

    python3 perfbench/run.py --workload simulate-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; tbqkd is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
taken from spans recorded around the program's functions, and the
tracing overhead. --toy runs the workload once at toy size. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "sim_slots_per_s": "slots/s",
    "grid_s": "s",
    "reference_slots_per_s": "slots/s",
    "peak_rss_mb": "MB",
}

# layer -> the span fields reported for it
LAYER_FIELDS = {
    "config.load_preset": ("s",),
    "slotmodel.build_link_model": ("s", "calls"),
    "slotmodel.analytic_expected_tallies": ("s", "self_s"),
    "slotmodel.outcome_probs": ("s",),
    "slotmodel.servo_excluded": ("s",),
    "pipeline.run_simulation": ("self_s",),
    "pipeline.run_simulation_reference": ("self_s",),
    "protocol.sample_symbol": ("s", "calls"),
    "ppg.serialize_word": ("s", "calls"),
    "source.modulate": ("s", "calls"),
    "link.transmit": ("s", "calls"),
    "link.receiver_basis": ("s", "calls"),
    "link.detect_z": ("s", "calls"),
    "link.detect_x": ("s", "calls"),
    "link.interfere": ("s", "calls"),
    "sift.sift": ("s", "calls"),
    "keyrate.keyrate": ("s", "calls"),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{f}": FIELD_UNITS[f]
             for layer, fields in LAYER_FIELDS.items() for f in fields}
    units["slotmodel.outcome_probs.rows"] = "rows"
    units["sift.events"] = "count"
    for label in ("0db", "7db", "14db"):
        units[f"pipeline.slots.{label}"] = "slots"
        units[f"pipeline.first_clicks.{label}"] = "count"
        units[f"pipeline.sifted_per_click.{label}"] = "ratio"
    units["optimize.expected_keyrate.s"] = "s"
    units["optimize.points"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def cap_threads() -> None:
    """numpy's thread pools at most as wide as the CPUs this process may
    use; must run before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_program():
    """Import tbqkd from the checkout's src directory, and nowhere else."""
    if not (SRC / "tbqkd" / "__init__.py").is_file():
        sys.exit(f"benchmark: no tbqkd sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import tbqkd

    if Path(tbqkd.__file__).resolve().parent != SRC / "tbqkd":
        sys.exit(f"benchmark: tbqkd imported from {tbqkd.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int, toy: bool) -> float:
    """Median set-up time over fresh processes, each importing tbqkd,
    loading the workload's scenarios and building the first link model."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    if toy:
        cmd.append("--toy")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@functools.cache
def glibc_malloc_trim():
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_free_heap() -> None:
    """Hand freed heap pages back to the OS, so that one operation's peak
    resident memory does not carry the heap left free by the one before
    (glibc keeps it mapped, in amounts that vary from run to run). Done
    only before the sweep and grid operations, which set the workloads'
    peaks: the page faults it causes in the next call add a quarter to
    the time of a call of a few milliseconds."""
    gc.collect()
    trim = glibc_malloc_trim()
    if trim is not None:
        trim(0)


def run_op(op):
    """One call of an operation, timed."""
    from tbqkd.errors import DelayMismatchError

    from workloads import OpResult

    if op.kind in ("sweep", "grid"):
        release_free_heap()
    t0 = time.perf_counter()
    try:
        value, error = op.fn(), None
    except DelayMismatchError as exc:  # the framing fault; see README
        value, error = None, exc
    return OpResult(value, time.perf_counter() - t0, error)


def same_results(name: str, a, b) -> list[str]:
    """Repeated operations on one scenario must give identical outputs."""
    import checks

    if a.error is not None or b.error is not None:
        same = type(a.error) is type(b.error)
        return [] if same else [f"{name}: repeated run failed differently"]
    va, vb = a.value, b.value
    if isinstance(va, tuple):  # (RunOutcome, report) or (RunOutcome, events)
        va, vb = va[0], vb[0]
    if hasattr(va, "tallies"):
        return checks.check_same(name, checks.run_record(va), checks.run_record(vb))
    if hasattr(va, "means"):
        return checks.check_same(name, checks.oracle_record(va), checks.oracle_record(vb))
    return [] if va == vb else [f"{name}: repeated run differs from the first"]


def mean_calls(results: list) -> list[tuple]:
    """Per operation name: the operation, the mean wall time of its
    completed calls and the result of one of them (all are identical)."""
    calls: dict[str, list] = {}
    for op, res in results:
        if res.error is None:
            calls.setdefault(op.name, []).append((op, res))
    return [(c[0][0], statistics.fmean(res.seconds for _, res in c), c[0][1])
            for c in calls.values()]


def end_to_end(results: list) -> dict[str, float]:
    """Each time is the mean over the run's calls of one operation. The
    shared host's speed swings by a third within seconds and drifts by a
    tenth over minutes; the calls of each operation are spread over the
    whole run, and their mean, the operation's throughput over the run,
    varied less from run to run than their median, their fastest call or
    the mean of their faster half. Batch throughput is the slots of every
    batch-engine operation over the sum of their mean times."""
    means = mean_calls(results)
    batch = [(op, t) for op, t, _ in means if op.kind in ("sweep", "batch")]
    return {
        "sim_slots_per_s": (sum(op.batch_slots for op, _ in batch)
                            / sum(t for _, t in batch)),
        "grid_s": min(t for op, t, _ in means if op.kind == "grid"),
        "reference_slots_per_s": max(res.value[0].symbols_sent / t
                                     for op, t, res in means
                                     if op.kind == "reference"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, setup_mark: int, n_rounds: int, traced: list,
              overhead: float) -> dict[str, float]:
    import checks

    setup = tracer.layer_totals(0, setup_mark)
    rounds = tracer.layer_totals(setup_mark)
    out = {}
    for layer, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{layer}.{f}"] = setup[layer][f] + rounds[layer][f] / n_rounds
    counters = tracer.counters
    out["slotmodel.outcome_probs.rows"] = counters["slotmodel.outcome_probs.rows"] / n_rounds
    out["sift.events"] = counters["sift.sift.events"] / n_rounds
    for label in ("0db", "7db", "14db"):
        runs = [(op, checks.run_record(res.value[0])) for op, res in traced
                if op.name == f"sweep.{label}"]
        clicks = sum(checks.first_clicks(r) for _, r in runs)
        out[f"pipeline.slots.{label}"] = sum(op.batch_slots for op, _ in runs) / n_rounds
        out[f"pipeline.first_clicks.{label}"] = clicks / n_rounds
        out[f"pipeline.sifted_per_click.{label}"] = (
            sum(checks.sifted(r) for _, r in runs) / clicks if clicks else 0.0)
    out["optimize.expected_keyrate.s"] = tracer.median_duration(
        "optimize.expected_keyrate", setup_mark)
    out["optimize.points"] = sum(len(res.value.points) for op, res in traced
                                 if op.kind == "grid") / n_rounds
    out["trace.overhead_pct"] = overhead
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate-sweep", "optimize-crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="one round at toy size, for the self-test")
    args = parser.parse_args(argv)

    cap_threads()
    import_program()
    from tracer import Tracer
    from workloads import FULL, TOY, WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, TOY if args.toy else FULL)
    tracer = Tracer()
    metrics: dict[str, float] = {}
    if args.trace:
        with tracer.installed():
            wl.setup()
    else:
        metrics["setup_s"] = measure_setup(args.workload, args.seed, args.toy)
        wl.setup()
    setup_mark = tracer.mark()

    ops = wl.ops()
    results: list = []   # every operation, in order
    traced: list = []    # traced operations only
    plain_s = traced_s = 0.0
    # Operations run in the workload's order, so that probes and short
    # operations spread over the run. The traced run calls each primary
    # operation twice, untraced and then traced. The run holds the whole
    # number of rounds nearest to --seconds: a further round starts only
    # if it would end closer to --seconds than stopping now, judged by
    # the mean round so far.
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (not args.toy and (time.perf_counter() - start)
                          * (1.0 + 0.5 / rounds) < args.seconds):
        for op in ops:
            res = run_op(op)
            results.append((op, res))
            if args.trace and op.primary:
                plain_s += res.seconds
                with tracer.installed():
                    res = run_op(op)
                traced_s += res.seconds
                traced.append((op, res))
                results.append((op, res))
        rounds += 1

    # everything below is outside the timed sections
    first = {}
    problems = []
    for op, res in results:
        if op.name in first:
            problems += same_results(op.name, first[op.name], res)
        else:
            first[op.name] = res
    problems += wl.check(first, args.toy)
    failed = sum(res.error is not None for _, res in results)

    if args.trace:
        metrics = per_layer(tracer, setup_mark, rounds, traced,
                            100.0 * (traced_s / plain_s - 1.0))
        units = per_layer_units()
    else:
        metrics.update(end_to_end(results))
        units = END_TO_END

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {rounds} round(s), {len(results)} operations, "
          f"{failed} failed", file=sys.stderr)
    times: dict[str, list] = {}
    for op, res in results:
        times.setdefault(op.name, []).append(res.seconds)
    for name, secs in times.items():
        print(f"  {name}: mean {statistics.fmean(secs):.4f} s over {len(secs)}",
              file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    (OUT_DIR / f"times-{stem}.json").write_text(json.dumps(times))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
