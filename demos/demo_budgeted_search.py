"""Budgeted architecture search on the toy space: score candidates without
training, keep the feasible Pareto set, and show seed determinism.

    python demos/demo_budgeted_search.py
"""
import logging

from detkit.cost import builtin_profile, cost_report
from detkit.genome import preset_genome
from detkit.graph import build_graph
from detkit.search import SearchConfig, search

logging.basicConfig(level=logging.INFO, format="%(message)s")


def neck_to_head(rows):
    """Neck FLOPs over head FLOPs: the paper's "large neck, small head" as a number."""
    flops = {"neck": 0, "head": 0}
    for row in rows:
        part = row.name.split(".")[0]
        if part in flops:
            flops[part] += row.flops
    return flops["neck"] / flops["head"]


seed_genome = preset_genome("tiny")
profile = builtin_profile("t4-like")
seed_report = cost_report(build_graph(seed_genome), profile)
seed_latency = seed_report.latency_ms
print(f"seed genome: modeled latency {seed_latency:.3f} ms")

cfg = SearchConfig(
    population=8,
    generations=12,
    mutations_per_child=1,
    latency_budget_ms=1.25 * seed_latency,
    seed=7,
    device_profile=profile,
)
archive = search(seed_genome, cfg)

print(f"\narchive: {len(archive.entries)} non-dominated genomes within "
      f"{cfg.latency_budget_ms:.3f} ms")
for entry in archive.sorted_entries():
    widths = [b.out_ch for b in entry.genome.backbone]
    print(f"  score {entry.score.value:12.1f}  latency {entry.latency_ms:6.3f} ms  "
          f"flops {entry.flops/1e9:5.2f} G  backbone widths {widths}")

best = archive.best
best_report = cost_report(build_graph(best.genome), profile)  # an archive entry keeps totals only
print(f"\nbest genome raises the proxy by "
      f"{best.score.value - archive.history[0][0][0]:.1f} over the seed")
print(f"it uses {best.latency_ms / cfg.latency_budget_ms:.1%} of the latency budget; "
      f"neck:head FLOPs {neck_to_head(best_report.per_node):.1f} "
      f"(seed {neck_to_head(seed_report.per_node):.1f})")

rerun = search(seed_genome, cfg)
print(f"same seed reruns byte-identically: {rerun.to_ndjson() == archive.to_ndjson()}")
