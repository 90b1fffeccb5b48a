"""Detector genomes: the serializable description of backbone, neck, and head.

A genome is immutable. The backbone is an ordered list of stages drawn from a
small block vocabulary (Mob / Res / Csp plus ConvBnAct, Focus, and Spp
utility stages); the neck is a cross-scale fusion template parameterized by
depth, per-scale widths, and fusion style; the head is projection-only when
head_depth is 0. The JSON schema is versioned and validated field by field so
errors name the offending path.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ValidationError
from .fields import boolean, get, integer, integers, load_json, number, objects, string

__all__ = [
    "BLOCK_KINDS",
    "FUSION_STYLES",
    "BlockSpec",
    "NeckConfig",
    "HeadConfig",
    "DetectorGenome",
    "genome_to_doc",
    "genome_to_json",
    "genome_from_json",
    "preset_genome",
]

SCHEMA_VERSION = 1

BLOCK_KINDS = ("Mob", "Res", "Csp", "Focus", "Spp", "ConvBnAct")
FUSION_STYLES = ("Conv", "Csp", "CspReparam", "CspReparamElan")

# Stage kinds whose depth field means "bottleneck repeats" and that may be
# swapped for one another during search.
STACKED_KINDS = ("Mob", "Res", "Csp")

PYRAMID_STRIDES = (8, 16, 32)

# Upper bounds of the integer fields. The largest admissible genome still has
# FLOPs, byte counts and modeled latency well inside float range.
MAX_CHANNELS = 65536  # in_ch, out_ch, neck widths, num_classes, reg_bins
MAX_DEPTH = 1024  # stage, neck and head depths
MAX_KERNEL = 31
MAX_INPUT_RES = 16384


def _check_range(value: int, low: int, high: int, path: str, key: str | None = None) -> None:
    """Raise unless low <= value <= high, at `path`, or at `path.key` when a
    field name is given: the path is formatted only when it raises."""
    if not low <= value <= high:
        raise ValidationError(f"must be in [{low}, {high}]", path=path if key is None else f"{path}.{key}")


@dataclass(frozen=True)
class BlockSpec:
    """One backbone stage: a block kind repeated `depth` times.

    The first repeat applies the stage stride and the in->out channel change;
    later repeats keep out->out at stride 1.
    """

    kind: str
    in_ch: int
    out_ch: int
    stride: int = 1
    depth: int = 1
    kernel: int = 3

    def validate(self, path: str = "block") -> None:
        if self.kind not in BLOCK_KINDS:
            raise ValidationError(f"unsupported kind {self.kind!r}", path=f"{path}.kind")
        _check_range(self.in_ch, 1, MAX_CHANNELS, path, "in_ch")
        _check_range(self.out_ch, 1, MAX_CHANNELS, path, "out_ch")
        if self.stride not in (1, 2):
            raise ValidationError(f"stride must be 1 or 2, got {self.stride}", path=f"{path}.stride")
        _check_range(self.depth, 1, MAX_DEPTH, path, "depth")
        _check_range(self.kernel, 1, MAX_KERNEL, path, "kernel")
        if self.kernel % 2 == 0:
            raise ValidationError(f"kernel must be odd, got {self.kernel}", path=f"{path}.kernel")
        if self.kind == "Focus" and self.stride != 2:
            raise ValidationError("Focus rearranges 2x2 patches and must have stride 2", path=f"{path}.stride")
        if self.kind == "Spp" and self.stride != 1:
            raise ValidationError("Spp must have stride 1", path=f"{path}.stride")
        if self.kind in ("Focus", "Spp") and self.depth != 1:
            raise ValidationError(f"{self.kind} does not repeat, depth must be 1", path=f"{path}.depth")


@dataclass(frozen=True)
class NeckConfig:
    """Cross-scale fusion template: depth is the fusion-block bottleneck repeat
    count, widths are the per-scale output channels (they may differ)."""

    depth: int
    widths: tuple[int, int, int]
    fusion_style: str = "CspReparamElan"
    extra_upsample: bool = False
    extra_downsample: bool = True

    def validate(self, path: str = "neck") -> None:
        _check_range(self.depth, 1, MAX_DEPTH, path, "depth")
        if len(self.widths) != 3 or not all(1 <= w <= MAX_CHANNELS for w in self.widths):
            raise ValidationError(f"widths must be a triple of integers in [1, {MAX_CHANNELS}]",
                                  path=f"{path}.widths")
        if self.fusion_style not in FUSION_STYLES:
            raise ValidationError(f"unsupported fusion_style {self.fusion_style!r}", path=f"{path}.fusion_style")


@dataclass(frozen=True)
class HeadConfig:
    """Detection head. head_depth 0 keeps exactly one classification and one
    regression projection per scale; reg_bins is the box-distribution size."""

    head_depth: int = 0
    reg_bins: int = 16

    def validate(self, path: str = "head") -> None:
        _check_range(self.head_depth, 0, MAX_DEPTH, path, "head_depth")
        _check_range(self.reg_bins, 1, MAX_CHANNELS, path, "reg_bins")


@dataclass(frozen=True)
class DetectorGenome:
    """Full structural description of a detector.

    csp_hidden_ratio sets the hidden-channel fraction of Csp backbone stages;
    the drawing this vocabulary follows does not pin it, so it is a genome
    field rather than a constant.
    """

    backbone: tuple[BlockSpec, ...]
    neck: NeckConfig | None
    head: HeadConfig | None
    num_classes: int = 80
    input_res: tuple[int, int] = (640, 640)
    csp_hidden_ratio: float = 0.5

    def validate(self) -> None:
        if not self.backbone:
            raise ValidationError("backbone must not be empty", path="backbone")
        prev_out = None
        for i, block in enumerate(self.backbone):
            block.validate(path=f"backbone[{i}]")
            if prev_out is not None and block.in_ch != prev_out:
                raise ValidationError(
                    f"in_ch {block.in_ch} != predecessor out_ch {prev_out}",
                    path=f"backbone[{i}].in_ch",
                )
            prev_out = block.out_ch
        _check_range(self.num_classes, 1, MAX_CHANNELS, "num_classes")
        if len(self.input_res) != 2 or not all(1 <= r <= MAX_INPUT_RES for r in self.input_res):
            raise ValidationError(f"input_res must be (H, W) with dims in [1, {MAX_INPUT_RES}]",
                                  path="input_res")
        if not 0.0 < self.csp_hidden_ratio <= 1.0:
            raise ValidationError("csp_hidden_ratio must be in (0, 1]", path="csp_hidden_ratio")
        if self.neck is not None:
            self.neck.validate()
            taps = self.pyramid_taps()
            if taps is None:
                raise ValidationError(
                    "a necked genome must emit pyramid features at strides 8/16/32",
                    path="backbone",
                )
            for r in self.input_res:
                if r % 32 != 0:
                    raise ValidationError(
                        f"input_res {self.input_res} must be divisible by 32 to reach stride 32 exactly",
                        path="input_res",
                    )
        if self.head is not None:
            if self.neck is None:
                raise ValidationError("a head requires a neck", path="head")
            self.head.validate()

    def stage_strides(self) -> tuple[int, ...]:
        """Cumulative stride after each backbone stage."""
        strides = []
        s = 1
        for block in self.backbone:
            s *= block.stride
            strides.append(s)
        return tuple(strides)

    def pyramid_taps(self) -> tuple[int, int, int] | None:
        """Indices of the last stage at strides 8, 16, and 32, or None when
        one is missing or the largest stride is not 32."""
        # a later stage overwrites an earlier one at its stride: each stride
        # keeps its last stage, the one before the next downsample
        last = {s: i for i, s in enumerate(self.stage_strides())}
        c3, c4, c5 = PYRAMID_STRIDES
        if not last or max(last) != c5 or c3 not in last or c4 not in last:
            return None
        return last[c3], last[c4], last[c5]

    def with_backbone(self, backbone) -> "DetectorGenome":
        return replace(self, backbone=tuple(backbone))


# --- JSON schema -----------------------------------------------------------

def genome_to_doc(genome: DetectorGenome) -> dict:
    """A genome as its versioned document: plain dicts, lists and scalars."""
    genome.validate()
    return {
        "schema_version": SCHEMA_VERSION,
        "num_classes": genome.num_classes,
        "input_res": list(genome.input_res),
        "csp_hidden_ratio": genome.csp_hidden_ratio,
        "backbone": [
            {
                "kind": b.kind,
                "in_ch": b.in_ch,
                "out_ch": b.out_ch,
                "stride": b.stride,
                "depth": b.depth,
                "kernel": b.kernel,
            }
            for b in genome.backbone
        ],
        "neck": None
        if genome.neck is None
        else {
            "depth": genome.neck.depth,
            "widths": list(genome.neck.widths),
            "fusion_style": genome.neck.fusion_style,
            "extra_upsample": genome.neck.extra_upsample,
            "extra_downsample": genome.neck.extra_downsample,
        },
        "head": None
        if genome.head is None
        else {"head_depth": genome.head.head_depth, "reg_bins": genome.head.reg_bins},
    }


def genome_to_json(genome: DetectorGenome) -> str:
    """Serialize a genome to its versioned JSON document."""
    return json.dumps(genome_to_doc(genome), indent=2) + "\n"


def genome_from_json(text: str) -> DetectorGenome:
    """Parse and validate a genome document; errors name the failing field."""
    doc = load_json(text, "genome")
    if not isinstance(doc, dict):
        raise ValidationError("document root must be an object")
    version = integer(doc, "schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}", path="schema_version")

    blocks = []
    for i, b in enumerate(objects(doc, "backbone")):
        path = f"backbone[{i}]"
        blocks.append(
            BlockSpec(
                kind=string(b, "kind", path),
                in_ch=integer(b, "in_ch", path),
                out_ch=integer(b, "out_ch", path),
                stride=integer(b, "stride", path, BlockSpec.stride),
                depth=integer(b, "depth", path, BlockSpec.depth),
                kernel=integer(b, "kernel", path, BlockSpec.kernel),
            )
        )

    neck_doc = get(doc, "neck", default=None)
    neck = None
    if neck_doc is not None:
        neck = NeckConfig(
            depth=integer(neck_doc, "depth", "neck"),
            widths=tuple(integers(neck_doc, "widths", "neck", length=3)),
            fusion_style=string(neck_doc, "fusion_style", "neck", NeckConfig.fusion_style),
            extra_upsample=boolean(neck_doc, "extra_upsample", "neck", NeckConfig.extra_upsample),
            extra_downsample=boolean(neck_doc, "extra_downsample", "neck", NeckConfig.extra_downsample),
        )

    head_doc = get(doc, "head", default=None)
    head = None
    if head_doc is not None:
        head = HeadConfig(
            head_depth=integer(head_doc, "head_depth", "head", HeadConfig.head_depth),
            reg_bins=integer(head_doc, "reg_bins", "head", HeadConfig.reg_bins),
        )

    genome = DetectorGenome(
        backbone=tuple(blocks),
        neck=neck,
        head=head,
        num_classes=integer(doc, "num_classes", default=DetectorGenome.num_classes),
        input_res=tuple(integers(doc, "input_res", length=2, default=list(DetectorGenome.input_res))),
        csp_hidden_ratio=number(doc, "csp_hidden_ratio", default=DetectorGenome.csp_hidden_ratio),
    )
    genome.validate()
    return genome


# --- Shipped genomes ---------------------------------------------------------

def preset_genome(name: str) -> DetectorGenome:
    """Built-in genomes.

    "s" is a small-scale detector sized to land near published small-detector
    budgets at 640x640. It is a reconstruction, not ground truth: the exact
    released structures are unpublished, only the overall recipe is known.
    "tiny" is a toy genome for fast search demos and tests.
    """
    if name == "s":
        return DetectorGenome(
            backbone=(
                BlockSpec("ConvBnAct", 3, 32, stride=2, depth=1, kernel=3),
                BlockSpec("Res", 32, 64, stride=2, depth=2, kernel=3),
                BlockSpec("Res", 64, 128, stride=2, depth=5, kernel=3),
                BlockSpec("Res", 128, 256, stride=2, depth=8, kernel=3),
                BlockSpec("Res", 256, 512, stride=2, depth=4, kernel=3),
                BlockSpec("Spp", 512, 512, stride=1, depth=1, kernel=5),
            ),
            neck=NeckConfig(depth=3, widths=(96, 192, 384), fusion_style="CspReparamElan"),
            head=HeadConfig(head_depth=0, reg_bins=16),
            num_classes=80,
            input_res=(640, 640),
        )
    if name == "tiny":
        return DetectorGenome(
            backbone=(
                BlockSpec("Focus", 3, 16, stride=2, depth=1, kernel=3),
                BlockSpec("Res", 16, 24, stride=2, depth=1, kernel=3),
                BlockSpec("Res", 24, 32, stride=2, depth=1, kernel=3),
                BlockSpec("Res", 32, 48, stride=2, depth=1, kernel=3),
                BlockSpec("Csp", 48, 64, stride=2, depth=1, kernel=3),
            ),
            neck=NeckConfig(depth=1, widths=(24, 48, 64), fusion_style="CspReparamElan"),
            head=HeadConfig(head_depth=0, reg_bins=8),
            num_classes=4,
            input_res=(64, 64),
        )
    raise ValidationError(f"unknown preset {name!r}; available: s, tiny")
