#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/.

Run only when a template or proxy change is intentional; review the diff
before committing, since these files freeze the lowering of every block
template, the proxy score of each of those genomes and of the s preset, the
archives of seeded searches, and the stdout of every demo under demos/.

    PYTHONPATH=src python tools/make_goldens.py
"""
import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from detkit.cost import builtin_profile, cost_report
from detkit.genome import BlockSpec, DetectorGenome, preset_genome
from detkit.graph import build_graph
from detkit.search import SearchConfig, entropy_score, search

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def backbone_only(*blocks, input_res=(64, 64)):
    return DetectorGenome(backbone=tuple(blocks), neck=None, head=None, input_res=input_res)


def tiny_neck(fusion_style, extra_upsample, extra_downsample, headless=False):
    """The tiny preset with a depth-2 neck of this style and these dense links."""
    g = preset_genome("tiny")
    neck = replace(g.neck, depth=2, fusion_style=fusion_style, extra_upsample=extra_upsample,
                   extra_downsample=extra_downsample)
    return replace(g, neck=neck, head=None if headless else g.head)


CASES = {
    "convbnact": lambda: backbone_only(BlockSpec("ConvBnAct", 3, 8, stride=2, depth=2)),
    "focus": lambda: backbone_only(BlockSpec("Focus", 3, 16, stride=2)),
    "res_d2": lambda: backbone_only(BlockSpec("Res", 16, 32, stride=2, depth=2)),
    "mob_d2": lambda: backbone_only(BlockSpec("Mob", 16, 24, stride=2, depth=2)),
    "csp_d2": lambda: backbone_only(BlockSpec("Csp", 16, 32, stride=2, depth=2)),
    "spp": lambda: backbone_only(BlockSpec("Spp", 32, 32, stride=1, kernel=5)),
    "tiny_full": lambda: preset_genome("tiny"),
    "tiny_csp_links": lambda: tiny_neck("Csp", extra_upsample=True, extra_downsample=True),
    "tiny_conv_headless": lambda: tiny_neck("Conv", extra_upsample=False, extra_downsample=False,
                                            headless=True),
}

# the proxy is pinned on every lowering case and on the s preset
SCORE_CASES = dict(CASES, s=lambda: preset_genome("s"))

# a small search on the s preset whose budget leaves some children infeasible
SEARCH_CONFIG = dict(population=6, generations=5, mutations_per_child=1,
                     latency_budget_ms=4.2, seed=0, device_profile=builtin_profile("t4-like"))

# the benchmark's search: s, pop 16, gen 10, one mutation per child, budget
# 1.25x the seed's modeled t4-like latency; one archive per seed
BENCH_SEEDS = (0, 1, 2)


def bench_search_doc(seed: int) -> dict:
    """The benchmark search's config document; `json.dump` writes the budget
    so that it reads back as the same float."""
    profile = builtin_profile("t4-like")
    budget = 1.25 * cost_report(build_graph(preset_genome("s")), profile).latency_ms
    return {"population": 16, "generations": 10, "mutations_per_child": 1,
            "latency_budget_ms": budget, "seed": seed, "device_profile": "t4-like"}


def bench_search_golden(seed: int) -> str:
    cfg = SearchConfig.from_json(json.dumps(bench_search_doc(seed)))
    return search(preset_genome("s"), cfg).to_ndjson()


def scores_golden() -> str:
    """One line per score case: its proxy value and per-scale terms."""
    lines = []
    for name, make in SCORE_CASES.items():
        score = entropy_score(build_graph(make()))
        lines.append(json.dumps({"case": name, "value": score.value,
                                 "per_scale": list(score.per_scale)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def search_golden() -> str:
    return search(preset_genome("s"), SearchConfig(**SEARCH_CONFIG)).to_ndjson()


def demo_golden(demo: Path) -> str:
    """The demo's stdout, run as its docstring says; every demo is deterministic."""
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"{demo.name} failed:\n{run.stderr}")
    return run.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, make in CASES.items():
        path = GOLDEN / f"{name}.ndjson"
        path.write_text(build_graph(make()).to_ndjson())
        print(f"wrote {path}")
    path = GOLDEN / "scores.ndjson"
    path.write_text(scores_golden())
    print(f"wrote {path}")
    path = GOLDEN / "search_s_seed0.ndjson"
    path.write_text(search_golden())
    print(f"wrote {path}")
    for seed in BENCH_SEEDS:
        path = GOLDEN / f"search_s_bench_seed{seed}.ndjson"
        path.write_text(bench_search_golden(seed))
        print(f"wrote {path}")
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        path = GOLDEN / "demos" / f"{demo.stem}.txt"
        path.write_text(demo_golden(demo))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
