"""Lowering genomes to operator DAGs.

Nodes are composite operators: a conv node carries its normalization and
activation as attributes (both cost-free by default, see the cost module), so
one ConvBnAct stage is exactly one node. The lowering of every stage kind and
of the fusion template is deterministic and frozen by golden-file tests; the
block internals follow the originating network families (inverted residual,
residual bottleneck, cross-stage partial) since the genome vocabulary only
names the families.

Fusion template. The neck takes the three backbone pyramid features and runs
four fusion blocks: a mid-level top-down node, the stride-8 output, the
stride-16 output, and the stride-32 output. Resampling is cost-free (nearest
upsample, 2x2 max-pool downsample); all trainable fusion happens inside the
blocks. extra_downsample adds the two dense skip links that carry shallow
features down; extra_upsample adds the dense link that carries the deepest
feature back up into the stride-16 output node. One table lists the blocks
in lowering order with the features each reads, and each block, with the
resample nodes in front of it, is its own segment (see `segments`).

A fusion block projects its concatenated inputs to a hidden width
h = w // 4 + 52 (a narrow bottleneck with a floor so shallow wide necks and
deep narrow necks stay comparable), runs `depth` residual units of two 3x3
convs each, and aggregates. Style "Conv" is a single 3x3 merge;
"Csp"/"CspReparam" concatenate stem and last unit; "CspReparamElan"
concatenates the stem and every intermediate unit. Reparam styles mark their
3x3 convs as foldable multi-branch units (rep=True); the deploy-view cost is
identical to the plain style, which is the point of folding.

Parts. Every lowering here is a part: `lower(gb, inputs, prefix, *args)`
emits its nodes on the input ids `inputs`, names each under `prefix` (but
for a fusion entry's resample nodes, see `_fusion_entry`) and returns its
output ids. Apart from the names, its nodes depend only on `args` and its
input shapes. A segment (see `segments`) is a chain of parts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import ValidationError
from .genome import DetectorGenome

__all__ = ["OpNode", "OpGraph", "GraphBuilder", "build_graph", "segments", "stage_segments",
           "neck_segments", "stage_parts"]

ACT = "silu"


def _round8(x: float) -> int:
    return max(8, int(round(x / 8.0)) * 8)


def neck_hidden_width(w: int) -> int:
    """Hidden width of a neck fusion block for per-scale output width w."""
    return w // 4 + 52


class OpNode(NamedTuple):
    """One primitive operator with resolved shapes.

    kind is one of: input, conv, add, concat, upsample, maxpool,
    space_to_depth. Conv nodes use symmetric padding kernel // 2.
    A node has no id field: its id is its index in `OpGraph.nodes`.
    """

    name: str
    kind: str
    inputs: tuple[int, ...]
    out_shape: tuple[int, int, int, int]
    kernel: int = 1
    stride: int = 1
    groups: int = 1
    bias: bool = False
    norm: bool = False
    act: str | None = None
    rep: bool = False

    @property
    def out_elements(self) -> int:
        n, c, h, w = self.out_shape
        return n * c * h * w


@dataclass(frozen=True)
class OpGraph:
    """An acyclic operator graph with designated output and pyramid nodes.

    A node's id is its index in `nodes`, and storage order is dependency
    order: every input id of node i lies in [0, i) (the order `GraphBuilder`
    emits), which makes the graph acyclic, and every output and pyramid id
    names a node. Shapes are checked by `GraphBuilder` as it emits each node,
    not here.
    """

    nodes: tuple[OpNode, ...]
    outputs: tuple[int, ...]
    pyramid: tuple[int, ...] = ()

    def __post_init__(self):
        for i, n in enumerate(self.nodes):
            for src in n.inputs:
                if not 0 <= src < i:
                    raise ValidationError(
                        f"node {n.name} (id {i}) reads node id {src}; inputs need ids in [0, {i})")
        for nid in self.outputs + self.pyramid:
            if not 0 <= nid < len(self.nodes):
                raise ValidationError(f"designated node id {nid} not in graph")

    def topo_order(self) -> range:
        """Dependency order: the node ids, which are storage positions."""
        return range(len(self.nodes))

    def to_ndjson(self) -> str:
        """One node per line; used as the golden-file format."""
        import json

        lines = []
        for n in self.nodes:
            rec = {
                "name": n.name,
                "kind": n.kind,
                "inputs": [self.nodes[s].name for s in n.inputs],
                "out_shape": list(n.out_shape),
            }
            if n.kind == "conv":
                rec.update(kernel=n.kernel, stride=n.stride, groups=n.groups,
                           bias=n.bias, norm=n.norm, act=n.act, rep=n.rep)
            elif n.kind in ("maxpool", "space_to_depth"):
                rec.update(kernel=n.kernel, stride=n.stride)
            elif n.act is not None:
                rec.update(act=n.act)
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"


class GraphBuilder:
    """Incrementally builds a valid OpGraph; every method resolves shapes."""

    def __init__(self):
        self._nodes: list[OpNode] = []

    def _emit(self, name, kind, inputs, out_shape, kernel=1, stride=1, groups=1, bias=False,
              norm=False, act=None, rep=False) -> int:
        # tuple.__new__ builds the same OpNode as its constructor, without the
        # Python-level __new__ that a NamedTuple's constructor calls
        nodes = self._nodes
        nodes.append(tuple.__new__(OpNode, (name, kind, inputs, out_shape, kernel, stride,
                                            groups, bias, norm, act, rep)))
        return len(nodes) - 1

    def shape(self, nid: int) -> tuple[int, int, int, int]:
        return self._nodes[nid].out_shape

    def input(self, shape, name: str = "input") -> int:
        return self._emit(name, "input", (), tuple(shape))

    def conv(self, src: int, out_ch: int, name: str, kernel: int = 3, stride: int = 1,
             groups: int = 1, bias: bool = False, norm: bool = True,
             act: str | None = ACT, rep: bool = False) -> int:
        b, c, h, w = self.shape(src)
        if out_ch < 1:
            raise ValidationError(f"{name}: out_ch must be positive, got {out_ch}")
        if c % groups != 0 or out_ch % groups != 0:
            raise ValidationError(f"{name}: channels {c}->{out_ch} not divisible by groups {groups}")
        if stride == 2 and (h % 2 or w % 2):
            raise ValidationError(f"{name}: stride-2 conv needs even spatial dims, got {h}x{w}")
        h_out = (h + 2 * (kernel // 2) - kernel) // stride + 1
        w_out = (w + 2 * (kernel // 2) - kernel) // stride + 1
        return self._emit(name, "conv", (src,), (b, out_ch, h_out, w_out),
                          kernel, stride, groups, bias, norm, act, rep)

    def add(self, srcs, name: str, act: str | None = None) -> int:
        shapes = [self.shape(s) for s in srcs]
        if any(s != shapes[0] for s in shapes):
            raise ValidationError(f"{name}: add inputs differ: {shapes}")
        return self._emit(name, "add", tuple(srcs), shapes[0], act=act)

    def concat(self, srcs, name: str) -> int:
        shapes = [self.shape(s) for s in srcs]
        b, _, h, w = shapes[0]
        if any((s[0], s[2], s[3]) != (b, h, w) for s in shapes):
            raise ValidationError(f"{name}: concat spatial dims differ: {shapes}")
        out = (b, sum(s[1] for s in shapes), h, w)
        return self._emit(name, "concat", tuple(srcs), out)

    def upsample(self, src: int, name: str) -> int:
        b, c, h, w = self.shape(src)
        return self._emit(name, "upsample", (src,), (b, c, 2 * h, 2 * w), stride=2)

    def maxpool(self, src: int, name: str, kernel: int = 2, stride: int = 2) -> int:
        b, c, h, w = self.shape(src)
        if stride == 2:
            if h % 2 or w % 2:
                raise ValidationError(f"{name}: stride-2 pool needs even spatial dims, got {h}x{w}")
            out = (b, c, h // 2, w // 2)
        else:
            out = (b, c, h, w)  # stride 1 pools pad to keep dims
        return self._emit(name, "maxpool", (src,), out, kernel, stride)

    def space_to_depth(self, src: int, name: str) -> int:
        b, c, h, w = self.shape(src)
        if h % 2 or w % 2:
            raise ValidationError(f"{name}: space_to_depth needs even spatial dims, got {h}x{w}")
        return self._emit(name, "space_to_depth", (src,), (b, 4 * c, h // 2, w // 2), 2, 2)

    def finish(self, outputs, pyramid=()) -> OpGraph:
        return OpGraph(nodes=tuple(self._nodes), outputs=tuple(outputs), pyramid=tuple(pyramid))


# --- backbone stage lowerings -------------------------------------------------


def _conv_unit(gb: GraphBuilder, inputs, prefix: str, out_ch: int, kernel: int, stride: int) -> tuple[int]:
    return (gb.conv(inputs[0], out_ch, name=f"{prefix}.conv", kernel=kernel, stride=stride),)


def _lower_focus(gb: GraphBuilder, inputs, prefix: str, spec, _hidden_ratio) -> tuple[int]:
    x = gb.space_to_depth(inputs[0], name=f"{prefix}.s2d")
    return (gb.conv(x, spec.out_ch, name=f"{prefix}.conv", kernel=spec.kernel, stride=1),)


def _res_unit(gb: GraphBuilder, inputs, prefix: str, out_ch: int, kernel: int, stride: int) -> tuple[int]:
    # residual bottleneck: 1x1 reduce, kxk spatial, 1x1 expand; projection
    # shortcut on the shape-changing first repeat
    (x,) = inputs
    hid = _round8(out_ch * 0.75)
    y = gb.conv(x, hid, name=f"{prefix}.conv1", kernel=1)
    y = gb.conv(y, hid, name=f"{prefix}.conv2", kernel=kernel, stride=stride)
    y = gb.conv(y, out_ch, name=f"{prefix}.conv3", kernel=1, act=None)
    if stride == 1 and gb.shape(x)[1] == out_ch:
        shortcut = x
    else:
        shortcut = gb.conv(x, out_ch, name=f"{prefix}.proj", kernel=1, stride=stride, act=None)
    return (gb.add([y, shortcut], name=f"{prefix}.add", act=ACT),)


def _mob_unit(gb: GraphBuilder, inputs, prefix: str, out_ch: int, kernel: int, stride: int) -> tuple[int]:
    # inverted residual: 1x1 expand, kxk depthwise, 1x1 project
    (x,) = inputs
    exp = _round8(out_ch * 2.0)
    y = gb.conv(x, exp, name=f"{prefix}.expand", kernel=1)
    y = gb.conv(y, exp, name=f"{prefix}.dw", kernel=kernel, stride=stride, groups=exp)
    y = gb.conv(y, out_ch, name=f"{prefix}.project", kernel=1, act=None)
    if stride == 1 and gb.shape(x)[1] == out_ch:
        return (gb.add([y, x], name=f"{prefix}.add"),)
    return (y,)


# the stage kinds lowered as `depth` repeat units, the first applying the
# stage stride and the in->out channel change; a unit's args are (out_ch, kernel, stride)
_UNIT_LOWERING = {"ConvBnAct": _conv_unit, "Res": _res_unit, "Mob": _mob_unit}


def _lower_csp_stage(gb: GraphBuilder, inputs, prefix: str, spec, hidden_ratio: float) -> tuple[int]:
    # cross-stage partial: downsample conv, two 1x1 stems, a chain of
    # 1x1 + kxk residual bottlenecks on one path, merge by concat + 1x1
    (x,) = inputs
    if spec.stride == 2:
        x = gb.conv(x, spec.out_ch, name=f"{prefix}.down", kernel=spec.kernel, stride=2)
    elif spec.in_ch != spec.out_ch:
        x = gb.conv(x, spec.out_ch, name=f"{prefix}.proj", kernel=1)
    hid = _round8(spec.out_ch * hidden_ratio)
    a = gb.conv(x, hid, name=f"{prefix}.stem_a", kernel=1)
    bypass = gb.conv(x, hid, name=f"{prefix}.stem_b", kernel=1)
    y = a
    for r in range(spec.depth):
        p = f"{prefix}.b{r}"
        z = gb.conv(y, hid, name=f"{p}.conv1", kernel=1)
        z = gb.conv(z, hid, name=f"{p}.conv2", kernel=spec.kernel)
        y = gb.add([z, y], name=f"{p}.add")
    cat = gb.concat([y, bypass], name=f"{prefix}.concat")
    return (gb.conv(cat, spec.out_ch, name=f"{prefix}.merge", kernel=1),)


def _lower_spp(gb: GraphBuilder, inputs, prefix: str, spec, _hidden_ratio) -> tuple[int]:
    # chained stride-1 pools over a reduced width, then re-expand
    hid = _round8(spec.in_ch * 0.5)
    y = gb.conv(inputs[0], hid, name=f"{prefix}.reduce", kernel=1)
    p1 = gb.maxpool(y, name=f"{prefix}.pool1", kernel=spec.kernel, stride=1)
    p2 = gb.maxpool(p1, name=f"{prefix}.pool2", kernel=spec.kernel, stride=1)
    p3 = gb.maxpool(p2, name=f"{prefix}.pool3", kernel=spec.kernel, stride=1)
    cat = gb.concat([y, p1, p2, p3], name=f"{prefix}.concat")
    return (gb.conv(cat, spec.out_ch, name=f"{prefix}.expand", kernel=1),)


# the stage kinds lowered whole; a stage's args are (spec, hidden ratio), the ratio None but for Csp
_STAGE_LOWERING = {"Csp": _lower_csp_stage, "Focus": _lower_focus, "Spp": _lower_spp}


def stage_parts(spec, i: int, hidden_ratio: float | None) -> tuple:
    """Backbone stage i's parts in lowering order, as `(lower, prefix, args)`:
    its repeat units `backbone.s{i}.r{r}`, or for a kind lowered whole (Csp,
    Spp, Focus) the one stage `backbone.s{i}`."""
    unit = _UNIT_LOWERING.get(spec.kind)
    if unit is not None:
        return tuple([(unit, f"backbone.s{i}.r{r}", (spec.out_ch, spec.kernel, spec.stride if r == 0 else 1))
                      for r in range(spec.depth)])
    lower = _STAGE_LOWERING.get(spec.kind)
    if lower is None:
        raise ValidationError(f"unsupported block kind {spec.kind!r}", path=f"backbone[{i}].kind")
    return ((lower, f"backbone.s{i}", (spec, hidden_ratio)),)


# --- neck ---------------------------------------------------------------------

# The fusion template, one row per block in lowering order: the block's name,
# the index of its width in NeckConfig.widths, and its inputs in concat order.
# An input is (feature, resample node, flag): the feature is a backbone tap
# (c3, c4, c5 at strides 8, 16, 32) or an earlier block; a resample node
# upsamples ("up_*") or max-pools ("down_*") it first; an input with a flag is
# a dense link, read only when that NeckConfig flag is on.
_FUSION_TEMPLATE = (
    ("mid4", 1, (("c4", None, None), ("c5", "up_c5", None), ("c3", "down_c3", "extra_downsample"))),
    ("out3", 0, (("c3", None, None), ("mid4", "up_mid4", None))),
    # the dense up link: the deepest backbone feature re-enters the bottom-up pass
    ("out4", 1, (("mid4", None, None), ("out3", "down_out3", None),
                 ("c5", "up_c5_dense", "extra_upsample"))),
    ("out5", 2, (("c5", None, None), ("out4", "down_out4", None),
                 ("mid4", "down_mid4", "extra_downsample"))),
)


@lru_cache(maxsize=None)
def _fusion_rows(extra_upsample: bool, extra_downsample: bool) -> tuple:
    """The template without the dense links these flags leave off: per block,
    its name, width index, resample nodes and the features it reads, as
    indices into (c3, c4, c5, then the blocks in order)."""
    on = {None: True, "extra_upsample": extra_upsample, "extra_downsample": extra_downsample}
    features = ["c3", "c4", "c5"] + [name for name, _, _ in _FUSION_TEMPLATE]
    rows = []
    for name, w, inputs in _FUSION_TEMPLATE:
        used = [(features.index(feature), r) for feature, r, flag in inputs if on[flag]]
        rows.append((name, w, tuple(r for _, r in used), tuple(i for i, _ in used)))
    return tuple(rows)


def _fusion_entry(gb: GraphBuilder, inputs, prefix: str, resamples, width: int, style: str) -> tuple[int]:
    """The entry of a neck block: resample its inputs, concatenate them and
    project to the block's stem (for style "Conv", its one merge conv, which
    is the whole block). The entry is the only part that reads the block's
    input widths. Its resample nodes are named `neck.{resample}`, not under
    `prefix`: a resample node such as `up_c5` is named for what it reads."""
    inputs = [x if r is None else (gb.upsample if r.startswith("up") else gb.maxpool)(x, name=f"neck.{r}")
              for x, r in zip(inputs, resamples)]
    cat = gb.concat(inputs, name=f"{prefix}.concat_in") if len(inputs) > 1 else inputs[0]
    if style == "Conv":
        return (gb.conv(cat, width, name=f"{prefix}.merge", kernel=3),)
    return (gb.conv(cat, neck_hidden_width(width), name=f"{prefix}.stem", kernel=1),)


def _fusion_body(gb: GraphBuilder, inputs, prefix: str, width: int, style: str, depth: int) -> tuple[int]:
    """The body of a non-"Conv" neck block on its stem: the residual chain,
    the aggregation and the output conv to `width`."""
    (stem,) = inputs
    rep = style in ("CspReparam", "CspReparamElan")
    hid = neck_hidden_width(width)
    parts = [stem]
    y = stem
    for r in range(depth):
        p = f"{prefix}.b{r}"
        z = gb.conv(y, hid, name=f"{p}.conv1", kernel=3, rep=rep)
        z = gb.conv(z, hid, name=f"{p}.conv2", kernel=3, rep=rep)
        y = gb.add([z, y], name=f"{p}.add")
        parts.append(y)
    agg = parts if style == "CspReparamElan" else [stem, y]
    cat_out = gb.concat(agg, name=f"{prefix}.concat_agg")
    return (gb.conv(cat_out, width, name=f"{prefix}.out", kernel=1),)


def _fusion_parts(name: str, resamples, width: int, style: str, depth: int) -> tuple:
    """Neck block `name`'s parts: its `_fusion_entry`, then, but for style
    "Conv", its `_fusion_body`."""
    prefix = f"neck.{name}"
    entry = (_fusion_entry, prefix, (resamples, width, style))
    if style == "Conv":
        return (entry,)
    return entry, (_fusion_body, prefix, (width, style, depth))


# --- head ----------------------------------------------------------------------


def _lower_head(gb: GraphBuilder, inputs, prefix: str, head, num_classes: int) -> tuple[int, ...]:
    outputs = []
    for level, feat in zip((3, 4, 5), inputs):
        width = gb.shape(feat)[1]
        cls_in = reg_in = feat
        for d in range(head.head_depth):
            cls_in = gb.conv(cls_in, width, name=f"{prefix}.p{level}.cls_tower{d}", kernel=3)
            reg_in = gb.conv(reg_in, width, name=f"{prefix}.p{level}.reg_tower{d}", kernel=3)
        cls = gb.conv(cls_in, num_classes, name=f"{prefix}.p{level}.cls", kernel=1,
                      bias=True, norm=False, act=None)
        reg = gb.conv(reg_in, 4 * head.reg_bins, name=f"{prefix}.p{level}.reg", kernel=1,
                      bias=True, norm=False, act=None)
        outputs.extend([cls, reg])
    return tuple(outputs)


def _head_parts(head, num_classes: int) -> tuple:
    return ((_lower_head, "head", (head, num_classes)),)


# --- entry point ----------------------------------------------------------------


def segments(genome: DetectorGenome, taps: tuple[int, int, int] | None) -> list[tuple]:
    """A genome's segments in lowering order: each backbone stage, then the
    neck's four fusion blocks (mid4, out3, out4, out5) and the head, if
    present; `taps` is `genome.pyramid_taps()`. The list is
    `stage_segments(genome)` followed by `neck_segments`.

    A segment is `(parts, args, reads)`: `parts(*args)` lists its parts,
    `(lower, prefix, args)` in lowering order (see "Parts" in the module
    docstring), which `build_graph` chains, each part reading the
    previous one's outputs, the first the segment's input features; `reads`
    indexes those features (0 is the graph input, then every segment's
    outputs in order). A stage's parts are `stage_parts`; a fusion block's
    are `_fusion_parts` of its name, resample nodes, width and the neck's
    style and depth, and it reads the features its block fuses, a dense link
    only when its flag is on. How `search` stores segments and parts is
    described in `detkit.search._SegmentCache`.
    """
    return stage_segments(genome) + neck_segments(genome.neck, genome.head, genome.num_classes, taps,
                                                  len(genome.backbone))


def stage_segments(genome: DetectorGenome) -> list[tuple]:
    """The backbone stages' `segments`, in order."""
    return [(stage_parts, (spec, i, genome.csp_hidden_ratio if spec.kind == "Csp" else None), (i,))
            for i, spec in enumerate(genome.backbone)]


def neck_segments(neck, head, num_classes: int, taps: tuple[int, int, int] | None, stages: int) -> list[tuple]:
    """The neck's and head's `segments` (none without a neck) after `stages`
    backbone stages with pyramid `taps`. They depend on nothing else of the
    genome, so a search, whose mutations edit the backbone alone, builds
    them once."""
    if neck is None:
        return []
    feature = [t + 1 for t in taps] + list(range(stages + 1, stages + 1 + len(_FUSION_TEMPLATE)))
    found = [(_fusion_parts, (name, resamples, neck.widths[w], neck.fusion_style, neck.depth),
              tuple([feature[f] for f in reads]))
             for name, w, resamples, reads in _fusion_rows(neck.extra_upsample, neck.extra_downsample)]
    if head is not None:
        found.append((_head_parts, (head, num_classes), (stages + 2, stages + 3, stages + 4)))
    return found


def build_graph(genome: DetectorGenome, input_res: tuple[int, int] | None = None) -> OpGraph:
    """Lower a genome's `segments`, in order, into one validated operator DAG.

    Node order is deterministic for identical genomes. Validation failures
    (channel mismatch, odd spatial dims at stride 2, unsupported kinds) raise
    before any graph is returned.
    """
    genome.validate()
    res = tuple(input_res) if input_res is not None else genome.input_res
    gb = GraphBuilder()
    features = [gb.input((1, genome.backbone[0].in_ch, res[0], res[1]))]
    taps = genome.pyramid_taps()
    for parts, args, reads in segments(genome, taps):
        outputs = [features[i] for i in reads]
        for lower, prefix, part_args in parts(*args):
            outputs = lower(gb, outputs, prefix, *part_args)
        features += outputs
    if genome.neck is not None and genome.head is None:
        outputs = features[-3:]  # the neck's out3, out4 and out5
    pyramid = tuple(features[i + 1] for i in taps) if taps is not None else ()
    return gb.finish(outputs=outputs, pyramid=pyramid)
