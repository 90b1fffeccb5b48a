"""Alternating parent/change perfbench pairs, written as one BENCH_*.json.

    python tools/bench_pairs.py --workload search --parent DIR --change DIR \
        --seeds 60-64 --seconds 20 --out BENCH_search.json \
        --parent-label "..." --change-label "..."

`--parent` and `--change` are two checkouts (e.g. from `git archive`). For each
seed both run `perfbench/run.py --trace 0` from their own root, one after the
other; which side goes first alternates from seed to seed, so a drift of the
machine's speed over the session falls on both sides alike. The file records
every run's end-to-end metrics (the `end_to_end` list of this repository's
`BENCHMARK.json`), per side the median and quartiles of each, the share of
seeds whose change run has the higher `items_per_s`, the ratio of the medians
and the median of the per-seed ratios.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """One perfbench run from `root`: its first line (the environment) and its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout.splitlines()
    return out[0], json.loads(out[-1])


def environment(header: str) -> dict:
    """`nproc=2 python=3.11.7 numpy=... blas=...` from a run's first line, plus
    the thread counts perfbench pins in its children."""
    rest, _, blas = header.split("|", 1)[1].partition(" blas=")
    found = dict(part.split("=", 1) for part in rest.split())
    return {"nproc": int(found["nproc"]), "python": found["python"], "numpy": found["numpy"],
            "blas": blas.strip(), "threads": dict.fromkeys(THREADS, "1")}


def quartiles(values: list[float]) -> dict:
    # one run (a single seed) is its own median and quartiles
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seeds", required=True, help="one seed or a range, e.g. 60-64")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    args = parser.parse_args(argv)

    # the end-to-end metrics the benchmark declares, so the file shows each one it is judged by
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]]
    roots = {"parent": args.parent, "change": args.change}
    runs, header = [], ""
    for i, seed in enumerate(seeds(args.seeds)):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            header, result = run(roots[side], args.workload, seed, args.seconds)
            if result["correct"] is not True:
                print(f"{side} seed {seed}: correct is {result['correct']}", file=sys.stderr)
                return 1
            row = {"side": side, "seed": seed, "failed": result["failed"], "attempted": result["attempted"]}
            row.update({m: round(result["metrics"][m]["value"], 4) for m in metrics})
            runs.append(row)
            print(json.dumps(row), file=sys.stderr)

    by_side = {side: [r for r in runs if r["side"] == side] for side in roots}
    per_seed = {(r["seed"], r["side"]): r["items_per_s"] for r in runs}
    ratios = [per_seed[s, "change"] / per_seed[s, "parent"] for s in seeds(args.seeds)]
    wins = sum(ratio > 1 for ratio in ratios)
    summary = {side: {m: quartiles([r[m] for r in rows]) for m in metrics} for side, rows in by_side.items()}
    doc = {
        "workload": args.workload,
        "sides": {"parent": args.parent_label, "change": args.change_label},
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": "parent and change alternate which runs first, one pair per seed",
        "environment": environment(header),
        "runs": runs,
        "summary": summary,
        "items_per_s_wins": f"{wins}/{len(seeds(args.seeds))}",
        "items_per_s_ratio_of_medians": round(summary["change"]["items_per_s"]["median"]
                                              / summary["parent"]["items_per_s"]["median"], 3),
        # a drift of machine speed over the session moves both sides of a pair alike
        "items_per_s_median_pair_ratio": round(statistics.median(ratios), 3),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
