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
feature back up into the stride-16 output node.

A fusion block projects its concatenated inputs to a hidden width
h = w // 4 + 52 (a narrow bottleneck with a floor so shallow wide necks and
deep narrow necks stay comparable), runs `depth` residual units of two 3x3
convs each, and aggregates. Style "Conv" is a single 3x3 merge;
"Csp"/"CspReparam" concatenate stem and last unit; "CspReparamElan"
concatenates the stem and every intermediate unit. Reparam styles mark their
3x3 convs as foldable multi-branch units (rep=True); the deploy-view cost is
identical to the plain style, which is the point of folding.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .genome import DetectorGenome, NeckConfig

__all__ = ["OpNode", "OpGraph", "GraphBuilder", "build_graph"]

ACT = "silu"


def _round8(x: float) -> int:
    return max(8, int(round(x / 8.0)) * 8)


def neck_hidden_width(w: int) -> int:
    """Hidden width of a neck fusion block for per-scale output width w."""
    return w // 4 + 52


@dataclass(frozen=True)
class OpNode:
    """One primitive operator with resolved shapes.

    kind is one of: input, conv, add, concat, upsample, maxpool,
    space_to_depth, identity. Conv nodes use symmetric padding kernel // 2.
    """

    nid: int
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

    Node ids are unique and every input id is smaller than the id of the node
    reading it (the order `GraphBuilder` emits), which makes the graph acyclic
    and ascending ids a dependency order, whatever the storage order of
    `nodes`.
    """

    nodes: tuple[OpNode, ...]
    outputs: tuple[int, ...]
    pyramid: tuple[int, ...] = ()

    def __post_init__(self):
        by_id: dict[int, OpNode] = {}
        for n in self.nodes:
            if n.nid in by_id:
                raise ValidationError(f"node {n.name} repeats node id {n.nid}")
            by_id[n.nid] = n
        for n in self.nodes:
            for src in n.inputs:
                if src not in by_id:
                    raise ValidationError(f"node {n.name} reads unknown node id {src}")
                if src >= n.nid:
                    raise ValidationError(
                        f"node {n.name} (id {n.nid}) reads node id {src}; inputs need smaller ids")
        object.__setattr__(self, "_by_id", by_id)

    def node(self, nid: int) -> OpNode:
        return self._by_id[nid]

    def topo_order(self) -> tuple[int, ...]:
        """Dependency order: ascending node ids."""
        return tuple(sorted(self._by_id))

    def validate(self) -> None:
        for n in self.nodes:
            shapes = [self.node(s).out_shape for s in n.inputs]
            _check_node_shapes(n, shapes)
        for nid in self.outputs + self.pyramid:
            if nid not in self._by_id:
                raise ValidationError(f"designated node id {nid} not in graph")

    def to_ndjson(self) -> str:
        """One node per line; used as the golden-file format."""
        import json

        lines = []
        for n in self.nodes:
            rec = {
                "name": n.name,
                "kind": n.kind,
                "inputs": [self.node(s).name for s in n.inputs],
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


def _check_node_shapes(n: OpNode, in_shapes) -> None:
    if n.kind == "input":
        if in_shapes:
            raise ValidationError(f"{n.name}: input node cannot have inputs")
        return
    if not in_shapes:
        raise ValidationError(f"{n.name}: missing inputs")
    if n.kind == "conv":
        (b, c, h, w), = in_shapes
        # grouped conv reads c/groups channels per filter
        if c % n.groups != 0:
            raise ValidationError(f"{n.name}: channels {c} not divisible by groups {n.groups}")
    elif n.kind == "add":
        first = in_shapes[0]
        for s in in_shapes[1:]:
            if s != first:
                raise ValidationError(f"{n.name}: add inputs differ {first} vs {s}")
        if n.out_shape != first:
            raise ValidationError(f"{n.name}: add output shape mismatch")
    elif n.kind == "concat":
        b, _, h, w = in_shapes[0]
        for s in in_shapes[1:]:
            if (s[0], s[2], s[3]) != (b, h, w):
                raise ValidationError(f"{n.name}: concat spatial dims differ")
        total = sum(s[1] for s in in_shapes)
        if n.out_shape != (b, total, h, w):
            raise ValidationError(f"{n.name}: concat channel total mismatch")


class GraphBuilder:
    """Incrementally builds a valid OpGraph; every method resolves shapes."""

    def __init__(self):
        self._nodes: list[OpNode] = []

    def _emit(self, **kw) -> int:
        nid = len(self._nodes)
        node = OpNode(nid=nid, **kw)
        self._nodes.append(node)
        return nid

    def shape(self, nid: int) -> tuple[int, int, int, int]:
        return self._nodes[nid].out_shape

    def input(self, shape, name: str = "input") -> int:
        return self._emit(name=name, kind="input", inputs=(), out_shape=tuple(shape))

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
        return self._emit(name=name, kind="conv", inputs=(src,), out_shape=(b, out_ch, h_out, w_out),
                          kernel=kernel, stride=stride, groups=groups, bias=bias, norm=norm,
                          act=act, rep=rep)

    def add(self, srcs, name: str, act: str | None = None) -> int:
        shapes = [self.shape(s) for s in srcs]
        if any(s != shapes[0] for s in shapes):
            raise ValidationError(f"{name}: add inputs differ: {shapes}")
        return self._emit(name=name, kind="add", inputs=tuple(srcs), out_shape=shapes[0], act=act)

    def concat(self, srcs, name: str) -> int:
        shapes = [self.shape(s) for s in srcs]
        b, _, h, w = shapes[0]
        if any((s[0], s[2], s[3]) != (b, h, w) for s in shapes):
            raise ValidationError(f"{name}: concat spatial dims differ: {shapes}")
        out = (b, sum(s[1] for s in shapes), h, w)
        return self._emit(name=name, kind="concat", inputs=tuple(srcs), out_shape=out)

    def upsample(self, src: int, name: str) -> int:
        b, c, h, w = self.shape(src)
        return self._emit(name=name, kind="upsample", inputs=(src,), out_shape=(b, c, 2 * h, 2 * w), stride=2)

    def maxpool(self, src: int, name: str, kernel: int = 2, stride: int = 2) -> int:
        b, c, h, w = self.shape(src)
        if stride == 2:
            if h % 2 or w % 2:
                raise ValidationError(f"{name}: stride-2 pool needs even spatial dims, got {h}x{w}")
            out = (b, c, h // 2, w // 2)
        else:
            out = (b, c, h, w)  # stride 1 pools pad to keep dims
        return self._emit(name=name, kind="maxpool", inputs=(src,), out_shape=out, kernel=kernel, stride=stride)

    def space_to_depth(self, src: int, name: str) -> int:
        b, c, h, w = self.shape(src)
        if h % 2 or w % 2:
            raise ValidationError(f"{name}: space_to_depth needs even spatial dims, got {h}x{w}")
        return self._emit(name=name, kind="space_to_depth", inputs=(src,),
                          out_shape=(b, 4 * c, h // 2, w // 2), kernel=2, stride=2)

    def identity(self, src: int, name: str) -> int:
        return self._emit(name=name, kind="identity", inputs=(src,), out_shape=self.shape(src))

    def finish(self, outputs, pyramid=()) -> OpGraph:
        g = OpGraph(nodes=tuple(self._nodes), outputs=tuple(outputs), pyramid=tuple(pyramid))
        g.validate()
        return g


# --- backbone stage lowerings -------------------------------------------------


def _lower_conv_stage(gb: GraphBuilder, x: int, spec, prefix: str) -> int:
    for r in range(spec.depth):
        stride = spec.stride if r == 0 else 1
        out_ch = spec.out_ch
        x = gb.conv(x, out_ch, name=f"{prefix}.r{r}.conv", kernel=spec.kernel, stride=stride)
    return x


def _lower_focus(gb: GraphBuilder, x: int, spec, prefix: str) -> int:
    x = gb.space_to_depth(x, name=f"{prefix}.s2d")
    return gb.conv(x, spec.out_ch, name=f"{prefix}.conv", kernel=spec.kernel, stride=1)


def _lower_res_stage(gb: GraphBuilder, x: int, spec, prefix: str) -> int:
    # residual bottleneck: 1x1 reduce, kxk spatial, 1x1 expand; projection
    # shortcut on the shape-changing first repeat
    hid = _round8(spec.out_ch * 0.75)
    for r in range(spec.depth):
        stride = spec.stride if r == 0 else 1
        in_ch = gb.shape(x)[1]
        p = f"{prefix}.r{r}"
        y = gb.conv(x, hid, name=f"{p}.conv1", kernel=1)
        y = gb.conv(y, hid, name=f"{p}.conv2", kernel=spec.kernel, stride=stride)
        y = gb.conv(y, spec.out_ch, name=f"{p}.conv3", kernel=1, act=None)
        if stride == 1 and in_ch == spec.out_ch:
            shortcut = x
        else:
            shortcut = gb.conv(x, spec.out_ch, name=f"{p}.proj", kernel=1, stride=stride, act=None)
        x = gb.add([y, shortcut], name=f"{p}.add", act=ACT)
    return x


def _lower_mob_stage(gb: GraphBuilder, x: int, spec, prefix: str) -> int:
    # inverted residual: 1x1 expand, kxk depthwise, 1x1 project
    exp = _round8(spec.out_ch * 2.0)
    for r in range(spec.depth):
        stride = spec.stride if r == 0 else 1
        in_ch = gb.shape(x)[1]
        p = f"{prefix}.r{r}"
        y = gb.conv(x, exp, name=f"{p}.expand", kernel=1)
        y = gb.conv(y, exp, name=f"{p}.dw", kernel=spec.kernel, stride=stride, groups=exp)
        y = gb.conv(y, spec.out_ch, name=f"{p}.project", kernel=1, act=None)
        if stride == 1 and in_ch == spec.out_ch:
            x = gb.add([y, x], name=f"{p}.add")
        else:
            x = y
    return x


def _lower_csp_stage(gb: GraphBuilder, x: int, spec, prefix: str, hidden_ratio: float) -> int:
    # cross-stage partial: downsample conv, two 1x1 stems, a chain of
    # 1x1 + kxk residual bottlenecks on one path, merge by concat + 1x1
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
    return gb.conv(cat, spec.out_ch, name=f"{prefix}.merge", kernel=1)


def _lower_spp(gb: GraphBuilder, x: int, spec, prefix: str) -> int:
    # chained stride-1 pools over a reduced width, then re-expand
    hid = _round8(spec.in_ch * 0.5)
    y = gb.conv(x, hid, name=f"{prefix}.reduce", kernel=1)
    p1 = gb.maxpool(y, name=f"{prefix}.pool1", kernel=spec.kernel, stride=1)
    p2 = gb.maxpool(p1, name=f"{prefix}.pool2", kernel=spec.kernel, stride=1)
    p3 = gb.maxpool(p2, name=f"{prefix}.pool3", kernel=spec.kernel, stride=1)
    cat = gb.concat([y, p1, p2, p3], name=f"{prefix}.concat")
    return gb.conv(cat, spec.out_ch, name=f"{prefix}.expand", kernel=1)


_STAGE_LOWERING = {
    "ConvBnAct": _lower_conv_stage,
    "Focus": _lower_focus,
    "Res": _lower_res_stage,
    "Mob": _lower_mob_stage,
    "Spp": _lower_spp,
}


# --- neck ---------------------------------------------------------------------


def _fusion_block(gb: GraphBuilder, inputs, width: int, neck: NeckConfig, prefix: str) -> int:
    if neck.fusion_style == "Conv":
        cat = gb.concat(inputs, name=f"{prefix}.concat_in") if len(inputs) > 1 else inputs[0]
        return gb.conv(cat, width, name=f"{prefix}.merge", kernel=3)
    rep = neck.fusion_style in ("CspReparam", "CspReparamElan")
    elan = neck.fusion_style == "CspReparamElan"
    hid = neck_hidden_width(width)
    cat = gb.concat(inputs, name=f"{prefix}.concat_in") if len(inputs) > 1 else inputs[0]
    stem = gb.conv(cat, hid, name=f"{prefix}.stem", kernel=1)
    parts = [stem]
    y = stem
    for r in range(neck.depth):
        p = f"{prefix}.b{r}"
        z = gb.conv(y, hid, name=f"{p}.conv1", kernel=3, rep=rep)
        z = gb.conv(z, hid, name=f"{p}.conv2", kernel=3, rep=rep)
        y = gb.add([z, y], name=f"{p}.add")
        parts.append(y)
    agg = parts if elan else [stem, y]
    cat_out = gb.concat(agg, name=f"{prefix}.concat_agg")
    return gb.conv(cat_out, width, name=f"{prefix}.out", kernel=1)


def _lower_neck(gb: GraphBuilder, c3: int, c4: int, c5: int, neck: NeckConfig):
    w3, w4, w5 = neck.widths
    up_c5 = gb.upsample(c5, name="neck.up_c5")
    mid4_inputs = [c4, up_c5]
    if neck.extra_downsample:
        mid4_inputs.append(gb.maxpool(c3, name="neck.down_c3"))
    mid4 = _fusion_block(gb, mid4_inputs, w4, neck, "neck.mid4")

    up_mid4 = gb.upsample(mid4, name="neck.up_mid4")
    p3 = _fusion_block(gb, [c3, up_mid4], w3, neck, "neck.out3")

    down_p3 = gb.maxpool(p3, name="neck.down_out3")
    out4_inputs = [mid4, down_p3]
    if neck.extra_upsample:
        # dense up link: the deepest backbone feature re-enters the
        # bottom-up pass (upsampled once more than up_c5)
        out4_inputs.append(gb.upsample(c5, name="neck.up_c5_dense"))
    p4 = _fusion_block(gb, out4_inputs, w4, neck, "neck.out4")

    out5_inputs = [c5, gb.maxpool(p4, name="neck.down_out4")]
    if neck.extra_downsample:
        out5_inputs.append(gb.maxpool(mid4, name="neck.down_mid4"))
    p5 = _fusion_block(gb, out5_inputs, w5, neck, "neck.out5")
    return p3, p4, p5


# --- head ----------------------------------------------------------------------


def _lower_head(gb: GraphBuilder, feats, head, num_classes: int):
    outputs = []
    for level, feat in zip((3, 4, 5), feats):
        width = gb.shape(feat)[1]
        cls_in = reg_in = feat
        for d in range(head.head_depth):
            cls_in = gb.conv(cls_in, width, name=f"head.p{level}.cls_tower{d}", kernel=3)
            reg_in = gb.conv(reg_in, width, name=f"head.p{level}.reg_tower{d}", kernel=3)
        cls = gb.conv(cls_in, num_classes, name=f"head.p{level}.cls", kernel=1,
                      bias=True, norm=False, act=None)
        reg = gb.conv(reg_in, 4 * head.reg_bins, name=f"head.p{level}.reg", kernel=1,
                      bias=True, norm=False, act=None)
        outputs.extend([cls, reg])
    return outputs


# --- entry point ----------------------------------------------------------------


def build_graph(genome: DetectorGenome, input_res: tuple[int, int] | None = None) -> OpGraph:
    """Lower a genome to a validated operator DAG.

    Node order is deterministic for identical genomes. Validation failures
    (channel mismatch, odd spatial dims at stride 2, unsupported kinds) raise
    before any graph is returned.
    """
    genome.validate()
    res = tuple(input_res) if input_res is not None else genome.input_res
    gb = GraphBuilder()
    x = gb.input((1, genome.backbone[0].in_ch, res[0], res[1]))

    stage_out = []
    for i, spec in enumerate(genome.backbone):
        if spec.kind == "Csp":
            x = _lower_csp_stage(gb, x, spec, f"backbone.s{i}", genome.csp_hidden_ratio)
        else:
            lower = _STAGE_LOWERING.get(spec.kind)
            if lower is None:
                raise ValidationError(f"unsupported block kind {spec.kind!r}", path=f"backbone[{i}].kind")
            x = lower(gb, x, spec, f"backbone.s{i}")
        stage_out.append(x)

    taps = genome.pyramid_taps()
    pyramid = tuple(stage_out[i] for i in taps) if taps is not None else ()

    if genome.neck is None:
        return gb.finish(outputs=(stage_out[-1],), pyramid=pyramid)

    c3, c4, c5 = pyramid
    p3, p4, p5 = _lower_neck(gb, c3, c4, c5, genome.neck)
    if genome.head is None:
        return gb.finish(outputs=(p3, p4, p5), pyramid=pyramid)

    outputs = _lower_head(gb, (p3, p4, p5), genome.head, genome.num_classes)
    return gb.finish(outputs=outputs, pyramid=pyramid)
