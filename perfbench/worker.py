"""Child process of the benchmark: prepares, measures or probes one workload.

    python worker.py prepare --workload W --seed N --work DIR
    python worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1 --result FILE
    python worker.py probe   --workload W --work DIR

`run.py` starts each mode in a fresh single-threaded interpreter. `measure`
makes one untimed warm-up call, then times calls until `--seconds` of call
time have passed and the workload's input cycle is complete. The reference
kernel is sampled between calls every SAMPLE_EVERY_S, and the end-to-end
timings are scaled by it to nominal machine speed (see reference.py). Every
output is checked after its call, outside the timed region; a call that
raises or fails its check counts as failed. With `--trace 1` the first half of
the time runs untraced and the second half traced, which gives the per-layer
metrics (raw span times) and the tracing overhead. `probe` prints `ready`
after its first call, then one reference-kernel sample.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
from spans import Tracer, install, layer_metrics
from workloads import WORKLOADS


SAMPLE_EVERY_S = 0.25  # reference-kernel sampling period; speed bursts last seconds


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("DETKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """Timed calls of one measurement phase."""

    def __init__(self):
        self.durations: list[float] = []
        self.call_items: list[int] = []   # items per call, 0 for a failed call
        self.samples: list[tuple[int, float]] = []  # reference kernel, see reference.py
        self.items = 0
        self.attempted = 0
        self.failed = 0

    def scaled(self) -> list[float]:
        return reference.scale(self.durations, self.samples)

    def items_per_s(self, durations: list[float]) -> float:
        total = sum(durations)
        return self.items / total if total else 0.0


def measure(wl, seconds: float, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    last_sample = -math.inf
    while sum(phase.durations) < seconds or wl.calls_made % wl.cycle:
        if time.perf_counter() - last_sample >= SAMPLE_EVERY_S:
            phase.samples.append((len(phase.durations), reference.sample()))
            last_sample = time.perf_counter()
        inp = wl.next_input()
        span = None
        if tracer is not None:
            tracer.call_id += 1
            span = tracer.begin("bench.call")
        start = time.perf_counter()
        try:
            out = wl.call(inp)
            ok = True
        except Exception:  # a failing call is counted, not fatal
            traceback.print_exc()
            ok = False
        phase.durations.append(time.perf_counter() - start)
        if span is not None:
            tracer.end(span)
        phase.attempted += 1
        if ok:
            try:
                wl.check(inp, out)
            except Exception:  # any error while checking an output fails that output
                traceback.print_exc()
                ok = False
        phase.call_items.append(wl.items(inp) if ok else 0)
        if ok:
            phase.items += wl.items(inp)
        else:
            phase.failed += 1
    phase.samples.append((len(phase.durations), reference.sample()))
    return phase


def end_to_end(wl, phase: Phase, durations: list[float]) -> dict:
    ms = sorted(1e3 * d for d in durations)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": (phase.items_per_s(durations), "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (percentile(ms, wl.tail_pct), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def cmd_measure(args, wl) -> dict:
    wl.load()
    wl.call(wl.next_input())   # warm-up: lazy set-up finishes before timing
    wl.calls_made = 0
    if not args.trace:
        phase = measure(wl, args.seconds)
        metrics = end_to_end(wl, phase, phase.scaled())
        raw = end_to_end(wl, phase, phase.durations)
        phases = [phase]
    else:
        untraced = measure(wl, args.seconds / 2)
        tracer = Tracer(budget_ms=wl.budget_ms)
        wl.tracer = tracer
        install(tracer)
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None
        traced_rate = traced.items_per_s(traced.scaled())
        overhead = untraced.items_per_s(untraced.scaled()) / traced_rate - 1 if traced_rate else 0.0
        metrics = layer_metrics(tracer, traced.items, overhead)
        raw = {}
        tracer.write(Path(args.result).with_suffix(".spans.ndjson"))
        phases = [untraced, traced]
    calls = sum(len(p.durations) for p in phases)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "calls": calls,
        "items": sum(p.items for p in phases),
        "tail_pct": wl.tail_pct,
        "untraced_targets": tracer.missing if args.trace else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "call_ms": [[1e3 * d for d in p.durations] for p in phases],
        "reference_s": [p.samples for p in phases],
        "call_items": [p.call_items for p in phases],
        "inputs": wl.properties(),
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure", "probe"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    # one stderr sink and format for library logging, whatever a commit configures
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s %(message)s")

    wl = WORKLOADS[args.workload](args.seed, args.work)
    if args.mode == "prepare":
        wl.prepare()
    elif args.mode == "probe":
        wl.probe()
        print("ready", flush=True)
        print(reference.sample(), flush=True)
    else:
        result = cmd_measure(args, wl)
        args.result.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
