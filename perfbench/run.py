"""detkit's benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload search|sweep|assign|distill \\
        --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the library in `src/`. Each run
works in `.perfbench/<workload>-<seed>-t<trace>/` and uses three kinds of
fresh, single-threaded child interpreters (see worker.py):

1. `prepare` writes the seeded inputs;
2. `measure` times the workload and checks every output it times;
3. with `--trace 0`, `probe` is started PROBES times to time set-up: from
   starting an interpreter to the end of its first call on a small input,
   which covers importing detkit and any lazy set-up. setup_s is the median.

Timings are scaled to nominal machine speed by a reference kernel sampled
around them (reference.py); raw values are printed beside them and kept in
`result.json`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. The lines before it print every
metric with its unit, the tail percentile and sample count, failed_frac and
the run environment. Children's standard error goes to `worker.log` in the
run's directory. The run exits non-zero, printing no result, if the library
is missing or a child fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the reference kernel in this process stays single-threaded like the children
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
import reference  # noqa: E402  (numpy reads the thread settings at import)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "sweep", "assign", "distill")
PROBES = 7
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        # the search thread pool and BLAS stay single-threaded whatever the shell sets
        "DETKIT_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(args: list[str], log, timeout: float) -> None:
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=child_env(),
                   stdin=subprocess.DEVNULL, stdout=log, stderr=log, timeout=timeout, check=True)


def probe_seconds(workload: str, work: Path, log) -> tuple[float, float]:
    """Wall time from spawning an interpreter until it reports its first call
    done, raw and scaled to nominal speed by the reference kernel sampled
    before the spawn (here) and after the first call (in the child)."""
    before = reference.sample()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "probe",
                             "--workload", workload, "--work", str(work)],
                            env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=log, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        after = float(proc.stdout.readline() or "inf")
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise subprocess.CalledProcessError(rc, "probe")
    return elapsed, elapsed * reference.NOMINAL_S / min(before, after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "detkit" / "__init__.py").is_file():
        print(f"error: no detkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    result_path = run_dir / "result.json"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(inputs)]
    with open(run_dir / "worker.log", "w") as log:
        try:
            run_child(["prepare", *common], log, CHILD_TIMEOUT_S)
            run_child(["measure", *common, "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--result", str(result_path)], log, CHILD_TIMEOUT_S)
            setups = [] if args.trace else [probe_seconds(args.workload, inputs, log)
                                            for _ in range(PROBES)]
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            log.flush()
            tail = (run_dir / "worker.log").read_text().splitlines()[-20:]
            print(f"error: {e}\n" + "\n".join(tail), file=sys.stderr)
            return 1
    shutil.rmtree(inputs, ignore_errors=True)

    result = json.loads(result_path.read_text())
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
        result["raw_metrics"]["setup_s"] = {"value": statistics.median(r for r, _ in setups), "unit": "s"}
        result["setup_samples_s"] = setups
        result_path.write_text(json.dumps(result, indent=2) + "\n")

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} | nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']}")
    raw = result["raw_metrics"]
    for name, m in metrics.items():
        note = f"  (raw {raw[name]['value']:.6g})" if name in raw and raw[name] != m else ""
        if name == "call_ms_tail":
            note += f"  (p{result['tail_pct']} of {result['calls']} calls)"
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<36} {failed_frac:>14.6g} frac  "
          f"({result['failed']} of {result['attempted']} calls)")
    print(f"  inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
