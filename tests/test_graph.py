"""Lowering tests: hand-drawn template expectations plus golden-file freezes."""
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from detkit.errors import ValidationError
from detkit.genome import BlockSpec, DetectorGenome, HeadConfig, NeckConfig, preset_genome
from detkit.graph import GraphBuilder, OpGraph, OpNode, build_graph

GOLDEN = Path(__file__).parent / "golden"


def backbone_only(*blocks, input_res=(64, 64)):
    return DetectorGenome(backbone=tuple(blocks), neck=None, head=None, input_res=input_res)


def tiny_neck(fusion_style, extra_upsample, extra_downsample, headless=False):
    g = preset_genome("tiny")
    neck = replace(g.neck, depth=2, fusion_style=fusion_style, extra_upsample=extra_upsample,
                   extra_downsample=extra_downsample)
    return replace(g, neck=neck, head=None if headless else g.head)


class TestBackboneLowering:
    def test_single_convbnact_stage_is_one_conv_node(self):
        g = backbone_only(BlockSpec("ConvBnAct", 3, 8, stride=1, depth=1))
        graph = build_graph(g)
        convs = [n for n in graph.nodes if n.kind == "conv"]
        assert len(convs) == 1
        assert len(graph.nodes) == 2  # input + conv
        assert convs[0].out_shape == (1, 8, 64, 64)

    def test_res_stage_depth2_matches_hand_drawn_lowering(self):
        # hand lowering of a stride-2 residual stage, depth 2:
        #   repeat 0: conv1x1, conv3x3(s2), conv1x1, proj conv, add  -> 5 nodes
        #   repeat 1: conv1x1, conv3x3, conv1x1, add (identity skip) -> 4 nodes
        g = backbone_only(BlockSpec("Res", 16, 32, stride=2, depth=2))
        graph = build_graph(g)
        per_repeat = 4
        projections = 1
        assert len(graph.nodes) == 1 + per_repeat * 2 + projections
        names = [n.name for n in graph.nodes]
        assert "backbone.s0.r0.proj" in names
        assert "backbone.s0.r1.proj" not in names
        adds = [n for n in graph.nodes if n.kind == "add"]
        assert len(adds) == 2
        out = graph.nodes[graph.outputs[0]]
        assert out.out_shape == (1, 32, 32, 32)

    def test_res_stage_stride1_same_width_has_no_projection(self):
        g = backbone_only(BlockSpec("Res", 32, 32, stride=1, depth=1))
        graph = build_graph(g)
        assert not any(n.name.endswith("proj") for n in graph.nodes)

    def test_mob_stage_residual_only_on_matching_repeat(self):
        g = backbone_only(BlockSpec("Mob", 16, 16, stride=2, depth=2))
        graph = build_graph(g)
        adds = [n.name for n in graph.nodes if n.kind == "add"]
        assert adds == ["backbone.s0.r1.add"]  # r0 strides, r1 keeps shape
        dw = [n for n in graph.nodes if n.name.endswith(".dw")]
        assert all(n.groups == n.out_shape[1] for n in dw)

    def test_focus_halves_and_quadruples_channels_before_conv(self):
        g = backbone_only(BlockSpec("Focus", 3, 16, stride=2, depth=1))
        graph = build_graph(g)
        s2d = next(n for n in graph.nodes if n.kind == "space_to_depth")
        assert s2d.out_shape == (1, 12, 32, 32)
        out = graph.nodes[graph.outputs[0]]
        assert out.out_shape == (1, 16, 32, 32)

    def test_spp_lowering(self):
        g = backbone_only(BlockSpec("Spp", 32, 48, stride=1, depth=1, kernel=5))
        graph = build_graph(g)
        pools = [n for n in graph.nodes if n.kind == "maxpool"]
        assert len(pools) == 3
        assert all(p.kernel == 5 and p.stride == 1 for p in pools)
        cat = next(n for n in graph.nodes if n.kind == "concat")
        assert cat.out_shape[1] == 4 * 16  # 4 parts of the reduced width
        assert graph.nodes[graph.outputs[0]].out_shape == (1, 48, 64, 64)

    def test_odd_spatial_dim_at_stride2_is_an_error(self):
        g = backbone_only(BlockSpec("ConvBnAct", 3, 8, stride=2), input_res=(33, 64))
        with pytest.raises(ValidationError, match="even"):
            build_graph(g)

    def test_determinism_identical_genomes_identical_graphs(self):
        a = build_graph(preset_genome("tiny"))
        b = build_graph(preset_genome("tiny"))
        assert a.to_ndjson() == b.to_ndjson()
        assert a.outputs == b.outputs and a.pyramid == b.pyramid


class TestNeckLowering:
    def test_zerohead_adds_exactly_two_projections_per_scale(self):
        g = preset_genome("tiny")
        graph = build_graph(g)
        head_nodes = [n for n in graph.nodes if n.name.startswith("head.")]
        assert len(head_nodes) == 6
        assert all(n.kind == "conv" and n.kernel == 1 and n.bias and not n.norm for n in head_nodes)
        cls = [n for n in head_nodes if n.name.endswith(".cls")]
        reg = [n for n in head_nodes if n.name.endswith(".reg")]
        assert len(cls) == 3 and len(reg) == 3
        assert all(n.out_shape[1] == g.num_classes for n in cls)
        assert all(n.out_shape[1] == 4 * g.head.reg_bins for n in reg)

    def test_head_depth_adds_tower_convs(self):
        g = preset_genome("tiny")
        g = DetectorGenome(g.backbone, g.neck, HeadConfig(head_depth=2, reg_bins=8),
                           g.num_classes, g.input_res)
        graph = build_graph(g)
        towers = [n for n in graph.nodes if "tower" in n.name]
        assert len(towers) == 2 * 2 * 3  # depth x branches x scales

    def test_extra_upsample_adds_up_fusion_nodes_only(self):
        base = preset_genome("tiny")
        with_up = DetectorGenome(
            base.backbone,
            NeckConfig(base.neck.depth, base.neck.widths, base.neck.fusion_style,
                       extra_upsample=True, extra_downsample=True),
            base.head, base.num_classes, base.input_res)
        g0 = build_graph(base)
        g1 = build_graph(with_up)
        names0 = {n.name for n in g0.nodes}
        names1 = {n.name for n in g1.nodes}
        assert names1 - names0 == {"neck.up_c5_dense"}
        # one extra upsample node; the widened concat keeps its name
        assert len(g1.nodes) == len(g0.nodes) + 1

    def test_removing_extra_upsample_reduces_nodes_keeps_output_shapes(self):
        base = preset_genome("tiny")
        for style in ("Conv", "Csp", "CspReparam", "CspReparamElan"):
            up = DetectorGenome(
                base.backbone,
                NeckConfig(2, base.neck.widths, style, extra_upsample=True),
                base.head, base.num_classes, base.input_res)
            down = DetectorGenome(
                base.backbone,
                NeckConfig(2, base.neck.widths, style, extra_upsample=False),
                base.head, base.num_classes, base.input_res)
            g_up = build_graph(up)
            g_down = build_graph(down)
            assert len(g_down.nodes) < len(g_up.nodes)
            shapes_up = [g_up.nodes[i].out_shape for i in g_up.outputs]
            shapes_down = [g_down.nodes[i].out_shape for i in g_down.outputs]
            assert shapes_up == shapes_down

    def test_neck_output_shapes_follow_widths_and_strides(self):
        g = preset_genome("s")
        graph = build_graph(g)
        by_name = {n.name: n for n in graph.nodes}
        assert by_name["neck.out3.out"].out_shape == (1, 96, 80, 80)
        assert by_name["neck.out4.out"].out_shape == (1, 192, 40, 40)
        assert by_name["neck.out5.out"].out_shape == (1, 384, 20, 20)

    def test_headless_and_neckless_outputs(self):
        # a headless graph ends in the three neck outputs, finest first; a
        # neckless one in its last stage; the pyramid is the backbone taps
        tiny = preset_genome("tiny")
        taps = ["backbone.s2.r0.add", "backbone.s3.r0.add", "backbone.s4.merge"]
        for genome, outputs, pyramid in (
            (replace(tiny, head=None), ["neck.out3.out", "neck.out4.out", "neck.out5.out"], taps),
            (replace(tiny, neck=None, head=None), ["backbone.s4.merge"], taps),
            (backbone_only(BlockSpec("Res", 16, 32, stride=2)), ["backbone.s0.r0.add"], []),
        ):
            graph = build_graph(genome)
            assert [graph.nodes[i].name for i in graph.outputs] == outputs
            assert [graph.nodes[i].name for i in graph.pyramid] == pyramid

    def test_rep_attr_set_only_for_reparam_styles(self):
        base = preset_genome("tiny")
        for style, expected in (("Csp", False), ("CspReparam", True), ("CspReparamElan", True)):
            g = DetectorGenome(
                base.backbone,
                NeckConfig(1, base.neck.widths, style),
                base.head, base.num_classes, base.input_res)
            graph = build_graph(g)
            reps = [n.rep for n in graph.nodes if ".b0.conv" in n.name and n.name.startswith("neck")]
            assert reps and all(r == expected for r in reps)

    def test_elan_concatenates_all_intermediate_units(self):
        base = preset_genome("tiny")
        for style, parts in (("Csp", 2), ("CspReparamElan", 4)):
            g = DetectorGenome(
                base.backbone,
                NeckConfig(3, base.neck.widths, style),
                base.head, base.num_classes, base.input_res)
            graph = build_graph(g)
            agg = next(n for n in graph.nodes if n.name == "neck.out3.concat_agg")
            assert len(agg.inputs) == parts


class TestGoldenLowerings:
    @pytest.mark.parametrize("case,genome", [
        ("convbnact", lambda: backbone_only(BlockSpec("ConvBnAct", 3, 8, stride=2, depth=2))),
        ("focus", lambda: backbone_only(BlockSpec("Focus", 3, 16, stride=2))),
        ("res_d2", lambda: backbone_only(BlockSpec("Res", 16, 32, stride=2, depth=2))),
        ("mob_d2", lambda: backbone_only(BlockSpec("Mob", 16, 24, stride=2, depth=2))),
        ("csp_d2", lambda: backbone_only(BlockSpec("Csp", 16, 32, stride=2, depth=2))),
        ("spp", lambda: backbone_only(BlockSpec("Spp", 32, 32, stride=1, kernel=5))),
        ("tiny_full", lambda: preset_genome("tiny")),
        ("tiny_csp_links", lambda: tiny_neck("Csp", extra_upsample=True, extra_downsample=True)),
        ("tiny_conv_headless", lambda: tiny_neck("Conv", extra_upsample=False, extra_downsample=False,
                                                 headless=True)),
    ])
    def test_lowering_matches_golden(self, case, genome):
        got = build_graph(genome()).to_ndjson()
        path = GOLDEN / f"{case}.ndjson"
        assert path.exists(), f"golden file {path} missing; regenerate with tools/make_goldens.py"
        assert got == path.read_text(), f"lowering of {case} drifted from its golden file"

    def test_make_goldens_help_writes_nothing(self, tmp_path):
        # a copy of the tool writes under tmp_path/tests/golden, never into the repo
        root = Path(__file__).resolve().parent.parent
        (tmp_path / "tools").mkdir()
        tool = shutil.copy(root / "tools" / "make_goldens.py", tmp_path / "tools")
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        run = subprocess.run([sys.executable, tool, "--help"], capture_output=True, text=True, env=env,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage:")
        assert not (tmp_path / "tests").exists()


def test_builder_rejects_channel_mismatch_add():
    gb = GraphBuilder()
    a = gb.input((1, 3, 8, 8))
    b = gb.conv(a, 4, name="c")
    with pytest.raises(ValidationError, match="add"):
        gb.add([a, b], name="bad")


def test_builder_rejects_mixed_spatial_concat():
    gb = GraphBuilder()
    a = gb.input((1, 3, 8, 8))
    b = gb.conv(a, 4, name="c", stride=2)
    with pytest.raises(ValidationError, match="concat"):
        gb.concat([a, b], name="bad")


def _three_node_graph(edit=None):
    """input -> conv -> add(conv, input); `edit` replaces nodes by position."""
    nodes = {
        0: OpNode("in", "input", (), (1, 4, 8, 8)),
        1: OpNode("conv", "conv", (0,), (1, 4, 8, 8), kernel=3),
        2: OpNode("add", "add", (1, 0), (1, 4, 8, 8)),
    }
    nodes.update(edit or {})
    return tuple(nodes.values())


class TestOpNodeRecord:
    def test_fields_cannot_be_assigned(self):
        node = OpNode("in", "input", (), (1, 4, 8, 8))
        with pytest.raises(AttributeError):
            node.kernel = 3

    def test_positional_and_keyword_construction_agree(self):
        positional = OpNode("conv", "conv", (0,), (1, 4, 8, 8), 3)
        keyword = OpNode(name="conv", kind="conv", inputs=(0,), out_shape=(1, 4, 8, 8), kernel=3,
                         stride=1, groups=1, bias=False, norm=False, act=None, rep=False)
        assert positional == keyword
        assert (positional.stride, positional.groups, positional.bias, positional.norm,
                positional.act, positional.rep) == (1, 1, False, False, None, False)

    def test_nodes_are_hashable(self):
        nodes = build_graph(preset_genome("tiny")).nodes
        assert len(set(nodes)) == len(nodes)

    def test_out_elements(self):
        assert OpNode("in", "input", (), (2, 3, 5, 7)).out_elements == 2 * 3 * 5 * 7


class TestOpGraphContract:
    def test_well_formed_graph_is_accepted(self):
        OpGraph(nodes=_three_node_graph(), outputs=(2,))

    @pytest.mark.parametrize("edit, message", [
        ({2: OpNode("add", "add", (1, 7), (1, 4, 8, 8))}, r"node add \(id 2\) reads node id 7;"),
        ({2: OpNode("add", "add", (1, -1), (1, 4, 8, 8))}, r"node add \(id 2\) reads node id -1;"),
        ({1: OpNode("conv", "conv", (2,), (1, 4, 8, 8), kernel=3)}, r"node conv \(id 1\) reads node id 2;"),
        ({1: OpNode("conv", "conv", (1,), (1, 4, 8, 8), kernel=3)}, r"node conv \(id 1\) reads node id 1;"),
    ], ids=["unknown-input", "negative-input", "forward-edge-cycle", "self-loop"])
    def test_bad_edges_raise_naming_the_node(self, edit, message):
        with pytest.raises(ValidationError, match=message):
            OpGraph(nodes=_three_node_graph(edit), outputs=(2,))

    @pytest.mark.parametrize("outputs, pyramid", [
        ((5,), ()), ((-1,), ()), ((2,), (0, 9)), ((2,), (0, -3)),
    ], ids=["output", "negative-output", "pyramid", "negative-pyramid"])
    def test_unknown_designated_id_raises(self, outputs, pyramid):
        with pytest.raises(ValidationError, match="designated node id"):
            OpGraph(nodes=_three_node_graph(), outputs=outputs, pyramid=pyramid)

    def test_reversed_storage_raises_naming_its_first_node(self):
        graph = build_graph(preset_genome("tiny"))
        first = graph.nodes[-1]
        with pytest.raises(ValidationError, match=rf"node {re.escape(first.name)} \(id 0\) reads"):
            OpGraph(nodes=tuple(reversed(graph.nodes)), outputs=graph.outputs, pyramid=graph.pyramid)

    def test_topo_order_is_storage_order(self):
        graph = build_graph(preset_genome("tiny"))
        assert graph.topo_order() == range(len(graph.nodes))
