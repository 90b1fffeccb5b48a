import json

import pytest

from detkit.errors import ValidationError
from detkit.genome import (
    BlockSpec,
    DetectorGenome,
    HeadConfig,
    NeckConfig,
    genome_from_json,
    genome_to_json,
    preset_genome,
)


def test_default_s_round_trip_is_structurally_equal():
    g = preset_genome("s")
    back = genome_from_json(genome_to_json(g))
    assert back == g


def test_tiny_round_trip():
    g = preset_genome("tiny")
    assert genome_from_json(genome_to_json(g)) == g


def test_missing_neck_widths_names_field():
    doc = json.loads(genome_to_json(preset_genome("s")))
    del doc["neck"]["widths"]
    with pytest.raises(ValidationError, match="neck.widths"):
        genome_from_json(json.dumps(doc))


def test_missing_backbone_field_names_path():
    doc = json.loads(genome_to_json(preset_genome("s")))
    del doc["backbone"][2]["out_ch"]
    with pytest.raises(ValidationError, match=r"backbone\[2\].out_ch"):
        genome_from_json(json.dumps(doc))


def test_hand_written_depth3_width_96_192_384_parses():
    doc = {
        "schema_version": 1,
        "num_classes": 80,
        "input_res": [640, 640],
        "backbone": [
            {"kind": "ConvBnAct", "in_ch": 3, "out_ch": 32, "stride": 2},
            {"kind": "Res", "in_ch": 32, "out_ch": 64, "stride": 2, "depth": 2},
            {"kind": "Res", "in_ch": 64, "out_ch": 128, "stride": 2, "depth": 3},
            {"kind": "Res", "in_ch": 128, "out_ch": 256, "stride": 2, "depth": 3},
            {"kind": "Res", "in_ch": 256, "out_ch": 512, "stride": 2, "depth": 2},
        ],
        "neck": {"depth": 3, "widths": [96, 192, 384]},
        "head": {"head_depth": 0, "reg_bins": 16},
    }
    g = genome_from_json(json.dumps(doc))
    assert g.neck.depth == 3
    assert g.neck.widths == (96, 192, 384)
    assert g.neck.extra_upsample is False and g.neck.extra_downsample is True
    assert g.head.head_depth == 0


def test_channel_chain_violation():
    g = DetectorGenome(
        backbone=(
            BlockSpec("ConvBnAct", 3, 32, stride=2),
            BlockSpec("Res", 64, 64, stride=2),
        ),
        neck=None,
        head=None,
    )
    with pytest.raises(ValidationError, match=r"backbone\[1\].in_ch"):
        g.validate()


def test_neck_requires_full_pyramid():
    g = DetectorGenome(
        backbone=(BlockSpec("ConvBnAct", 3, 32, stride=2),),
        neck=NeckConfig(depth=1, widths=(8, 16, 32)),
        head=None,
    )
    with pytest.raises(ValidationError, match="pyramid"):
        g.validate()


def test_head_requires_neck():
    g = DetectorGenome(
        backbone=(BlockSpec("ConvBnAct", 3, 32, stride=2),),
        neck=None,
        head=HeadConfig(),
    )
    with pytest.raises(ValidationError, match="head"):
        g.validate()


def test_input_res_must_reach_stride_32():
    g = preset_genome("s")
    bad = DetectorGenome(
        backbone=g.backbone, neck=g.neck, head=g.head,
        num_classes=g.num_classes, input_res=(600, 600),
    )
    with pytest.raises(ValidationError, match="input_res"):
        bad.validate()


def test_block_kind_vocabulary_enforced():
    with pytest.raises(ValidationError, match="kind"):
        BlockSpec("Transformer", 3, 8).validate()


def test_focus_must_stride_2():
    with pytest.raises(ValidationError, match="stride"):
        BlockSpec("Focus", 3, 8, stride=1).validate()


def test_pyramid_taps_pick_last_stage_per_stride():
    g = preset_genome("s")
    taps = g.pyramid_taps()
    # the Spp stage is the last stride-32 stage, so it is the deepest tap
    assert taps == (2, 3, 5)


def test_unknown_preset():
    with pytest.raises(ValidationError):
        preset_genome("xxl")


# every `_check_range` site, reached through the JSON reader: (field path in
# the document, bad value, the error's path, its message)
RANGE_SITES = [
    (("backbone", 1, "in_ch"), 0, "backbone[1].in_ch", "must be in [1, 65536]"),
    (("backbone", 2, "out_ch"), 65537, "backbone[2].out_ch", "must be in [1, 65536]"),
    (("backbone", 3, "depth"), 0, "backbone[3].depth", "must be in [1, 1024]"),
    (("backbone", 4, "depth"), 1025, "backbone[4].depth", "must be in [1, 1024]"),
    (("backbone", 0, "kernel"), 0, "backbone[0].kernel", "must be in [1, 31]"),
    (("backbone", 5, "kernel"), 33, "backbone[5].kernel", "must be in [1, 31]"),
    (("neck", "depth"), 0, "neck.depth", "must be in [1, 1024]"),
    (("head", "head_depth"), -1, "head.head_depth", "must be in [0, 1024]"),
    (("head", "head_depth"), 1025, "head.head_depth", "must be in [0, 1024]"),
    (("head", "reg_bins"), 0, "head.reg_bins", "must be in [1, 65536]"),
    (("num_classes",), 65537, "num_classes", "must be in [1, 65536]"),
]


@pytest.mark.parametrize("where, value, path, message", RANGE_SITES)
def test_range_errors_name_their_field(where, value, path, message):
    doc = json.loads(genome_to_json(preset_genome("s")))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(ValidationError) as err:
        genome_from_json(json.dumps(doc))
    assert (err.value.path, err.value.message) == (path, message)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("part, path, message", [
    (BlockSpec("Res", 8, 8, depth=0), "block.depth", "must be in [1, 1024]"),
    (NeckConfig(depth=0, widths=(8, 16, 32)), "neck.depth", "must be in [1, 1024]"),
    (HeadConfig(reg_bins=0), "head.reg_bins", "must be in [1, 65536]"),
])
def test_direct_validate_uses_the_default_path(part, path, message):
    with pytest.raises(ValidationError) as err:
        part.validate()
    assert (err.value.path, err.value.message) == (path, message)


def backbone_of(*strides):
    """A neckless genome whose stages have these strides. `pyramid_taps` reads
    only the strides, so a stride of 4, which `validate` rejects, can stand in
    for a skipped pyramid level."""
    blocks = [BlockSpec("ConvBnAct", 8, 8, stride=s) for s in strides]
    return DetectorGenome(backbone=tuple(blocks), neck=None, head=None)


@pytest.mark.parametrize("strides", [
    (2, 2, 2, 2, 2),  # 8, 16, 32 reached: taps exist (the control)
    (2, 2, 4, 2),  # the stride-4 stage jumps 4 -> 16: no stage at stride 8
    (2, 2, 2, 4),  # 8 -> 32: no stage at stride 16
    (2, 2, 2, 2),  # ends at 16: no stage at stride 32
    (2, 2, 2, 2, 2, 2),  # the largest stride is 64
])
def test_pyramid_taps_need_exactly_strides_8_16_32(strides):
    taps = backbone_of(*strides).pyramid_taps()
    assert taps == ((2, 3, 4) if strides == (2, 2, 2, 2, 2) else None)


def test_pyramid_taps_with_repeated_strides_pick_the_last_stage():
    # stride-1 stages after a downsample share its stride; the last one is the tap
    g = backbone_of(2, 2, 2, 1, 1, 2, 1, 2, 1)
    assert g.stage_strides() == (2, 4, 8, 8, 8, 16, 16, 32, 32)
    assert g.pyramid_taps() == (4, 6, 8)
    # Spp after the stride-32 stage is the stride-32 tap
    s = preset_genome("s")
    assert s.backbone[s.pyramid_taps()[2]].kind == "Spp"
