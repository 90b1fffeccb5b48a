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
