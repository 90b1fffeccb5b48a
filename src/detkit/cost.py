"""Exact FLOPs / parameter counting and roofline-style latency modeling.

Conventions (stated because published counters disagree):

- FLOPs count multiplies and adds separately, i.e. 2 per multiply-accumulate.
  A conv node contributes 2 * kh * kw * (in_ch / groups) * out_ch * Hout * Wout.
- Elementwise adds and concats contribute their output element counts.
- Normalization and activation attributes are free by default; strict mode
  counts 2 ops/element for normalization and 1 op/element for activations,
  for sensitivity analysis.
- Pooling, resampling, and data rearrangement are free.
- Parameters: conv kh * kw * (in_ch / groups) * out_ch, plus out_ch if the node
  has a bias, plus 2 * out_ch if it carries an unfolded normalization.

All counts are exact integers. Latency is modeled per node as
max(flops / flops_per_ms, bytes / bytes_per_ms) plus a fixed per-node
overhead; it is a deterministic roofline stand-in for hardware measurement,
not a benchmark.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ValidationError
from .graph import OpGraph, OpNode

__all__ = [
    "DeviceProfile",
    "NodeCost",
    "CostReport",
    "count_flops",
    "count_params",
    "estimate_latency",
    "cost_report",
    "builtin_profile",
    "BUILTIN_PROFILES",
]

BYTES_PER_VALUE = 4  # float32 activations and weights


@dataclass(frozen=True)
class DeviceProfile:
    """Throughput coefficients of a modeled device."""

    name: str
    flops_per_ms: float
    bytes_per_ms: float
    per_op_overhead_ms: float = 0.0

    def __post_init__(self):
        if self.flops_per_ms <= 0 or self.bytes_per_ms <= 0:
            raise ValidationError("flops_per_ms and bytes_per_ms must be positive")
        if self.per_op_overhead_ms < 0:
            raise ValidationError("per_op_overhead_ms must be >= 0")

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "flops_per_ms": self.flops_per_ms,
                "bytes_per_ms": self.bytes_per_ms,
                "per_op_overhead_ms": self.per_op_overhead_ms,
            },
            indent=2,
        ) + "\n"

    @staticmethod
    def from_json(text: str) -> "DeviceProfile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"profile is not valid JSON: {e}") from e
        for key in ("name", "flops_per_ms", "bytes_per_ms"):
            if key not in doc:
                raise ValidationError("missing required field", path=key)
        return DeviceProfile(
            name=str(doc["name"]),
            flops_per_ms=float(doc["flops_per_ms"]),
            bytes_per_ms=float(doc["bytes_per_ms"]),
            per_op_overhead_ms=float(doc.get("per_op_overhead_ms", 0.0)),
        )


# Illustrative profiles, not measurements: coefficients were picked so the
# shipped small-scale genome lands near published small-detector latencies.
BUILTIN_PROFILES = {
    "t4-like": DeviceProfile("t4-like", flops_per_ms=1.15e10, bytes_per_ms=1.3e9,
                             per_op_overhead_ms=0.002),
    "x86-like": DeviceProfile("x86-like", flops_per_ms=1.1e9, bytes_per_ms=2.5e8,
                              per_op_overhead_ms=0.01),
}


def builtin_profile(name: str) -> DeviceProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown profile {name!r}; built-ins: {', '.join(sorted(BUILTIN_PROFILES))}"
        ) from None


@dataclass(frozen=True)
class NodeCost:
    name: str
    kind: str
    flops: int
    params: int
    bytes: int
    latency_ms: float | None = None


@dataclass(frozen=True)
class CostReport:
    """Totals plus the per-node breakdown they are summed from."""

    flops: int
    params: int
    latency_ms: float | None
    per_node: tuple[NodeCost, ...]

    def to_json(self) -> str:
        doc = {
            "flops": self.flops,
            "params": self.params,
            "latency_ms": self.latency_ms,
            "per_node": [
                {
                    "name": n.name,
                    "kind": n.kind,
                    "flops": n.flops,
                    "params": n.params,
                    "bytes": n.bytes,
                    "latency_ms": n.latency_ms,
                }
                for n in self.per_node
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_table(self) -> str:
        header = f"{'node':<40}{'kind':<16}{'flops':>16}{'params':>12}{'bytes':>14}{'lat_ms':>10}"
        lines = [header, "-" * len(header)]
        for n in self.per_node:
            lat = f"{n.latency_ms:.4f}" if n.latency_ms is not None else "-"
            lines.append(f"{n.name:<40}{n.kind:<16}{n.flops:>16}{n.params:>12}{n.bytes:>14}{lat:>10}")
        total_lat = f"{self.latency_ms:.4f}" if self.latency_ms is not None else "-"
        lines.append("-" * len(header))
        lines.append(f"{'TOTAL':<40}{'':<16}{self.flops:>16}{self.params:>12}{'':>14}{total_lat:>10}")
        return "\n".join(lines) + "\n"


def _node_flops(graph: OpGraph, n: OpNode, strict: bool) -> int:
    if n.kind == "conv":
        in_ch = graph.node(n.inputs[0]).out_shape[1]
        _, out_ch, h, w = n.out_shape
        flops = 2 * n.kernel * n.kernel * (in_ch // n.groups) * out_ch * h * w
        if strict:
            if n.norm:
                flops += 2 * n.out_elements
            if n.act is not None:
                flops += n.out_elements
        return flops
    if n.kind in ("add", "concat"):
        flops = n.out_elements
        if strict and n.act is not None:
            flops += n.out_elements
        return flops
    # input / identity / upsample / maxpool / space_to_depth move data only
    return 0


def _node_params(graph: OpGraph, n: OpNode) -> int:
    if n.kind != "conv":
        return 0
    in_ch = graph.node(n.inputs[0]).out_shape[1]
    out_ch = n.out_shape[1]
    params = n.kernel * n.kernel * (in_ch // n.groups) * out_ch
    if n.bias:
        params += out_ch
    if n.norm:
        params += 2 * out_ch
    return params


def _node_bytes(graph: OpGraph, n: OpNode, params: int) -> int:
    moved = n.out_elements + sum(graph.node(s).out_elements for s in n.inputs)
    return BYTES_PER_VALUE * (moved + params)


def _node_latency(flops: int, nbytes: int, profile: DeviceProfile) -> float:
    return max(flops / profile.flops_per_ms, nbytes / profile.bytes_per_ms) + profile.per_op_overhead_ms


def count_flops(graph: OpGraph, strict: bool = False) -> int:
    """Total FLOPs of a shape-resolved graph; exact integer arithmetic."""
    return sum(_node_flops(graph, n, strict) for n in graph.nodes)


def count_params(graph: OpGraph) -> int:
    """Total trainable parameter count of a graph."""
    return sum(_node_params(graph, n) for n in graph.nodes)


def estimate_latency(report: CostReport, profile: DeviceProfile) -> float:
    """Roofline latency: in-order sum over the report's rows of the per-node max
    of compute and memory time plus a fixed dispatch overhead. Equals
    `cost_report(graph, profile).latency_ms` for the same profile."""
    return sum(_node_latency(n.flops, n.bytes, profile) for n in report.per_node)


def cost_report(graph: OpGraph, profile: DeviceProfile | None = None,
                strict: bool = False) -> CostReport:
    """Full per-node breakdown; attaches modeled latency when a profile is given."""
    rows = []
    for n in graph.nodes:
        flops = _node_flops(graph, n, strict)
        params = _node_params(graph, n)
        nbytes = _node_bytes(graph, n, params)
        latency = None if profile is None else _node_latency(flops, nbytes, profile)
        rows.append(NodeCost(n.name, n.kind, flops, params, nbytes, latency))
    return CostReport(
        flops=sum(r.flops for r in rows),
        params=sum(r.params for r in rows),
        latency_ms=None if profile is None else sum(r.latency_ms for r in rows),
        per_node=tuple(rows),
    )
