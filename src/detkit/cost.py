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

import math
from dataclasses import dataclass
from functools import reduce
from json.encoder import encode_basestring_ascii
from operator import add
from typing import NamedTuple

from .errors import ValidationError
from .fields import load_json, number, string, within
from .graph import OpGraph

__all__ = [
    "DeviceProfile",
    "NodeCost",
    "CostReport",
    "cost_report",
    "cost_rows",
    "builtin_profile",
    "BUILTIN_PROFILES",
    "fold_sum",
]

BYTES_PER_VALUE = 4  # float32 activations and weights


def fold_sum(values, start=0):
    """`values` added one by one, left to right, onto `start`: what `sum`
    computes on CPython up to 3.11. From 3.12 a float `sum` is compensated
    and can differ in the last bits, so every float total that reaches an
    output is this fold and reads the same on every Python."""
    return reduce(add, values, start)


@dataclass(frozen=True)
class DeviceProfile:
    """Throughput coefficients of a modeled device."""

    name: str
    flops_per_ms: float
    bytes_per_ms: float
    per_op_overhead_ms: float = 0.0

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("flops_per_ms", "bytes_per_ms"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"must be positive, got {getattr(self, name)}", path=name)
        if not self.per_op_overhead_ms >= 0:
            raise ValidationError(f"must be >= 0, got {self.per_op_overhead_ms}", path="per_op_overhead_ms")

    @staticmethod
    def from_json(text: str) -> "DeviceProfile":
        return DeviceProfile.from_doc(load_json(text, "profile"))

    @staticmethod
    def from_doc(doc, path: str = "") -> "DeviceProfile":
        """Read a profile object; `path` is its place in an enclosing document."""
        with within(path):
            return DeviceProfile(
                name=string(doc, "name"),
                flops_per_ms=number(doc, "flops_per_ms"),
                bytes_per_ms=number(doc, "bytes_per_ms"),
                per_op_overhead_ms=number(doc, "per_op_overhead_ms", default=DeviceProfile.per_op_overhead_ms),
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


class NodeCost(NamedTuple):
    name: str
    kind: str
    flops: int
    params: int
    bytes: int
    latency_ms: float | None = None


def _json_number(x: float | None) -> str:
    """A latency as `json.dumps` writes it: NaN and the infinities as the
    literals it allows, and an int (the sum of no rows) as an int."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    return "null" if x is None else int.__repr__(x)


def _latency_cell(x: float | None, digits: int = 4, width: int = 10) -> str:
    """A latency for a column of `width` characters: fixed-point with `digits`
    decimals where that fits, else scientific with at most `digits` digits, as
    many as fit in `width - 1` characters and so leave a space before the
    column. The table's column is 10 wide at 4 digits."""
    if x is None:
        return "-"
    text = f"{x:.{digits}f}"
    if len(text) <= width:
        return text
    # a three-digit exponent or a minus sign costs one digit each
    fit = digits - max(0, len(f"{x:.{digits}e}") - (width - 1))
    return f"{x:.{max(0, fit)}e}"


@dataclass(frozen=True)
class CostReport:
    """Totals plus the per-node breakdown they are summed from."""

    flops: int
    params: int
    latency_ms: float | None
    per_node: tuple[NodeCost, ...]

    @staticmethod
    def from_rows(rows, timed: bool) -> "CostReport":
        """Totals as in-order sums over `rows`; latency only when `timed`."""
        if not rows:
            return CostReport(0, 0, 0 if timed else None, ())
        _, _, flops, params, _, latencies = zip(*rows)
        return CostReport(sum(flops), sum(params), fold_sum(latencies) if timed else None, tuple(rows))

    def to_json(self) -> str:
        """The report as one JSON object in `json.dumps(indent=2)` layout, each
        row from one template: strings through json's own escaper, ints and
        floats by their `__repr__`. `detkit cost` writes this text."""
        enc, irepr = encode_basestring_ascii, int.__repr__
        rows = ",\n".join([
            f'    {{\n      "name": {enc(name)},\n      "kind": {enc(kind)},\n'
            f'      "flops": {irepr(flops)},\n      "params": {irepr(params)},\n'
            f'      "bytes": {irepr(nbytes)},\n      "latency_ms": {_json_number(latency)}\n    }}'
            for name, kind, flops, params, nbytes, latency in self.per_node])
        per_node = f"\n{rows}\n  " if rows else ""  # json.dumps writes an empty list as []
        return (f'{{\n  "flops": {irepr(self.flops)},\n  "params": {irepr(self.params)},\n'
                f'  "latency_ms": {_json_number(self.latency_ms)},\n  "per_node": [{per_node}]\n}}\n')

    def to_table(self) -> str:
        header = f"{'node':<40}{'kind':<16}{'flops':>16}{'params':>12}{'bytes':>14}{'lat_ms':>10}"
        lines = [header, "-" * len(header)]
        for n in self.per_node:
            lines.append(f"{n.name:<40}{n.kind:<16}{n.flops:>16}{n.params:>12}{n.bytes:>14}"
                         f"{_latency_cell(n.latency_ms):>10}")
        lines.append("-" * len(header))
        lines.append(f"{'TOTAL':<40}{'':<16}{self.flops:>16}{self.params:>12}{'':>14}"
                     f"{_latency_cell(self.latency_ms):>10}")
        return "\n".join(lines) + "\n"


def _node_latency(flops: int, nbytes: int, profile: DeviceProfile) -> float:
    return max(flops / profile.flops_per_ms, nbytes / profile.bytes_per_ms) + profile.per_op_overhead_ms


def cost_report(graph: OpGraph, profile: DeviceProfile | None = None,
                strict: bool = False) -> CostReport:
    """Full per-node breakdown; attaches modeled latency when a profile is given."""
    return CostReport.from_rows(cost_rows(graph, profile, strict), timed=profile is not None)


def cost_rows(graph: OpGraph, profile: DeviceProfile | None = None,
              strict: bool = False) -> list[NodeCost]:
    """`cost_report`'s per-node rows without its totals; latency only when a
    profile is given.

    One pass over the nodes, which reads each input's element and channel
    counts by position: a node's id is its index in `graph.nodes`."""
    nodes = graph.nodes
    elements = []
    rows = []
    # tuple.__new__ builds the same NodeCost as its constructor, without the
    # Python-level __new__ that a NamedTuple's constructor calls
    append, new_row = rows.append, tuple.__new__
    for name, kind, inputs, (batch, out_ch, h, w), kernel, _, groups, bias, norm, act, _ in nodes:
        out = batch * out_ch * h * w
        elements.append(out)
        moved = out
        for src in inputs:
            moved += elements[src]
        if kind == "conv":
            params = kernel * kernel * (nodes[inputs[0]].out_shape[1] // groups) * out_ch
            flops = 2 * params * h * w  # the weights alone, before bias and norm
            if strict:
                if norm:
                    flops += 2 * out
                if act is not None:
                    flops += out
            if bias:
                params += out_ch
            if norm:
                params += 2 * out_ch
        elif kind in ("add", "concat"):
            flops, params = out, 0
            if strict and act is not None:
                flops += out
        else:  # input / upsample / maxpool / space_to_depth move data only
            flops = params = 0
        nbytes = BYTES_PER_VALUE * (moved + params)
        latency = None if profile is None else _node_latency(flops, nbytes, profile)
        append(new_row(NodeCost, (name, kind, flops, params, nbytes, latency)))
    return rows
