"""Span tracer for the traced benchmark run.

The tracer wraps detkit's public functions from outside the library: each
wrapper is installed under the name its caller looks up (a module global, a
class attribute or a dispatch-table entry), records one span per call and, for
a few functions, updates counters from the call's arguments and result.
Spans are (name, start, end, parent, call id) rows kept in memory and written
out once the run ends. A span's self time is its duration minus the time its
child spans cover.

Nothing is patched unless `install` is called, so the untraced run executes
the library exactly as a user would.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, budget_ms: float | None = None):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = -1
        self.enabled = True
        self.budget_ms = budget_ms
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # traced names the library no longer defines
        self._seen: tuple[int, set] = (-1, set())  # graphs built in the current call

    # --- recording ----------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.call_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a traced wrapper.

        A target the library no longer has is recorded in `missing` and skipped,
        so a refactor leaves that layer's metrics at 0 instead of breaking the run.
        """
        if not (attr in owner if isinstance(owner, dict) else hasattr(owner, attr)):
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, observe)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, observe))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self seconds and call count."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")


# --- counters derived from wrapped arguments and results -----------------------


def _observe_cli(tracer, args, kwargs, result):
    argv = list(args[0])
    for flag in ("--input", "--space", "--config"):
        if flag in argv:
            path = Path(argv[argv.index(flag) + 1])
            if path.is_file():
                tracer.counts["cli.input_bytes"] += path.stat().st_size


def _observe_mutate(tracer, args, kwargs, result):
    tracer.counts["search.mutate.noop"] += result == args[0]


def _observe_graph(tracer, args, kwargs, result):
    tracer.counts["graph.nodes"] += len(result.nodes)
    key = (args[0], args[1] if len(args) > 1 else kwargs.get("input_res"))
    if tracer._seen[0] != tracer.call_id:
        tracer._seen = (tracer.call_id, set())
    seen = tracer._seen[1]
    if key not in seen:
        seen.add(key)
        tracer.counts["search.unique"] += 1


def _observe_cost(tracer, args, kwargs, result):
    if tracer.budget_ms is not None and result.latency_ms is not None:
        tracer.counts["search.feasible"] += result.latency_ms <= tracer.budget_ms


def _observe_cost_matrix(tracer, args, kwargs, result):
    tracer.counts["assign.pairs"] += result.costs.size
    tracer.counts["assign.candidates"] += int(result.candidate_mask.sum())


def _observe_assignment(tracer, args, kwargs, result):
    tracer.counts["assign.predictions"] += len(result.assigned_gt)
    tracer.counts["assign.positives"] += sum(a is not None for a in result.assigned_gt)


def _observe_conv(tracer, args, kwargs, result):
    n, out_ch, h_out, w_out = result.dims
    _, in_per_group, kh, kw = args[1].weights.shape
    tracer.counts["tensorops.conv2d_forward.flop"] += 2 * n * out_ch * h_out * w_out * in_per_group * kh * kw


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its caller looks it up."""
    from detkit import assign, cli, cost, genome, graph, losses, reparam, search, tensorops

    p = tracer.patch
    p(cli, "main", "cli.main", _observe_cli)
    p(cli, "genome_from_json", "genome.genome_from_json")
    p(genome, "genome_from_json", "genome.genome_from_json")
    p(genome.DetectorGenome, "validate", "genome.validate")
    p(cli, "search", "search.search")
    p(search, "mutate", "search.mutate", _observe_mutate)
    p(search, "build_graph", "graph.build_graph", _observe_graph)
    p(graph, "build_graph", "graph.build_graph", _observe_graph)
    p(graph.OpGraph, "topo_order", "graph.topo_order")
    p(search, "entropy_score", "search.entropy_score")
    p(search, "cost_report", "cost.cost_report", _observe_cost)
    p(cost, "cost_report", "cost.cost_report", _observe_cost)
    p(cost.CostReport, "to_json", "cost.to_json")
    p(cli, "align_cost", "assign.align_cost", _observe_cost_matrix)
    p(cli, "dynamic_k_assign", "assign.dynamic_k_assign", _observe_assignment)
    p(cli, "sinkhorn_assign", "assign.sinkhorn_assign", _observe_assignment)
    p(assign, "pairwise_iou", "assign.pairwise_iou")
    p(losses, "align_project", "losses.align_project")
    # distill_loss dispatches through this table, not the module global
    p(getattr(losses, "_DISTILL_KINDS", {}), "cwd", "losses.cwd_loss")
    p(losses, "cwd_loss", "losses.cwd_loss")
    p(losses, "qfl", "losses.qfl")
    p(losses, "dfl", "losses.dfl")
    p(losses, "giou_loss", "losses.giou_loss")
    p(losses, "conv2d_forward", "tensorops.conv2d_forward", _observe_conv)
    p(reparam, "conv2d_forward", "tensorops.conv2d_forward", _observe_conv)
    p(tensorops, "conv2d_forward", "tensorops.conv2d_forward", _observe_conv)
    p(losses, "channel_stats", "tensorops.channel_stats")
    p(reparam, "reparam_fold", "reparam.reparam_fold")
    p(reparam, "rep_branches_forward", "reparam.rep_branches_forward")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-item layer metrics, keyed by their BENCHMARK.json names."""
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def per_item_ms(name):
        return (_ratio(1e3 * self_s.get(name, 0.0), items), "ms/item")

    def per_item_calls(name):
        return (_ratio(calls.get(name, 0), items), "calls/item")

    conv_s = self_s.get("tensorops.conv2d_forward", 0.0)
    conv_gflop = c["tensorops.conv2d_forward.flop"] / 1e9
    return {
        "cli.main.self_ms": per_item_ms("cli.main"),
        "cli.input_mb": (_ratio(c["cli.input_bytes"] / 1e6, items), "MB/item"),
        "genome.validate.calls": per_item_calls("genome.validate"),
        "genome.validate.self_ms": per_item_ms("genome.validate"),
        "genome.genome_from_json.self_ms": per_item_ms("genome.genome_from_json"),
        "graph.build_graph.calls": per_item_calls("graph.build_graph"),
        "graph.build_graph.self_ms": per_item_ms("graph.build_graph"),
        "graph.nodes_per_graph": (_ratio(c["graph.nodes"], calls.get("graph.build_graph", 0)), "nodes"),
        "graph.topo_order.calls": per_item_calls("graph.topo_order"),
        "graph.topo_order.self_ms": per_item_ms("graph.topo_order"),
        "search.search.self_ms": per_item_ms("search.search"),
        "search.mutate.calls": per_item_calls("search.mutate"),
        "search.mutate.self_ms": per_item_ms("search.mutate"),
        "search.mutate.noop_frac": (_ratio(c["search.mutate.noop"], calls.get("search.mutate", 0)), "frac"),
        "search.entropy_score.calls": per_item_calls("search.entropy_score"),
        "search.entropy_score.self_ms": per_item_ms("search.entropy_score"),
        "search.unique_frac": (_ratio(c["search.unique"], calls.get("graph.build_graph", 0)), "frac"),
        "search.feasible_frac": (_ratio(c["search.feasible"], calls.get("cost.cost_report", 0)), "frac"),
        "cost.cost_report.calls": per_item_calls("cost.cost_report"),
        "cost.cost_report.self_ms": per_item_ms("cost.cost_report"),
        "cost.to_json.self_ms": per_item_ms("cost.to_json"),
        "assign.align_cost.self_ms": per_item_ms("assign.align_cost"),
        "assign.pairwise_iou.self_ms": per_item_ms("assign.pairwise_iou"),
        "assign.dynamic_k_assign.self_ms": per_item_ms("assign.dynamic_k_assign"),
        "assign.sinkhorn_assign.self_ms": per_item_ms("assign.sinkhorn_assign"),
        "assign.pairs": (_ratio(c["assign.pairs"], items), "pairs/item"),
        "assign.candidate_frac": (_ratio(c["assign.candidates"], c["assign.pairs"]), "frac"),
        "assign.positive_frac": (_ratio(c["assign.positives"], c["assign.predictions"]), "frac"),
        "losses.align_project.self_ms": per_item_ms("losses.align_project"),
        "losses.cwd_loss.self_ms": per_item_ms("losses.cwd_loss"),
        "losses.qfl.self_ms": per_item_ms("losses.qfl"),
        "losses.dfl.self_ms": per_item_ms("losses.dfl"),
        "losses.giou_loss.self_ms": per_item_ms("losses.giou_loss"),
        "tensorops.conv2d_forward.calls": per_item_calls("tensorops.conv2d_forward"),
        "tensorops.conv2d_forward.self_ms": per_item_ms("tensorops.conv2d_forward"),
        "tensorops.conv2d_forward.gflop": (_ratio(conv_gflop, items), "GFLOP/item"),
        "tensorops.conv2d_forward.gflops_per_s": (_ratio(conv_gflop, conv_s), "GFLOP/s"),
        "tensorops.channel_stats.self_ms": per_item_ms("tensorops.channel_stats"),
        "reparam.reparam_fold.self_ms": per_item_ms("reparam.reparam_fold"),
        "reparam.rep_branches_forward.self_ms": per_item_ms("reparam.rep_branches_forward"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
