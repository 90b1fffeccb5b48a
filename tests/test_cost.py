from dataclasses import replace

import pytest

from detkit.cost import (
    CostReport,
    DeviceProfile,
    builtin_profile,
    cost_report,
    count_flops,
    count_params,
    estimate_latency,
)
from detkit.errors import ValidationError
from detkit.genome import NeckConfig, preset_genome
from detkit.graph import GraphBuilder, build_graph


def conv_graph(in_ch=64, out_ch=64, k=3, res=32, stride=1, bias=True):
    gb = GraphBuilder()
    x = gb.input((1, in_ch, res, res))
    y = gb.conv(x, out_ch, name="conv", kernel=k, stride=stride, bias=bias, norm=False, act=None)
    return gb.finish(outputs=(y,))


class TestFlops:
    def test_hand_computed_3x3_conv(self):
        g = conv_graph(64, 64, 3, 32)
        assert count_flops(g) == 75_497_472  # 2 * 9 * 64 * 64 * 32 * 32

    def test_1x1_minimal_conv(self):
        g = conv_graph(1, 1, 1, 1)
        assert count_flops(g) == 2

    def test_zero_out_channels_disallowed(self):
        gb = GraphBuilder()
        x = gb.input((1, 1, 1, 1))
        with pytest.raises(Exception):
            gb.conv(x, 0, name="bad", kernel=1)
            gb.finish(outputs=())

    def test_doubling_widths_quadruples_conv_flops(self):
        assert count_flops(conv_graph(128, 128, 3, 32)) == 4 * count_flops(conv_graph(64, 64, 3, 32))

    def test_strict_mode_counts_norm_and_act(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        y = gb.conv(x, 4, name="c", kernel=1, norm=True, act="silu")
        g = gb.finish(outputs=(y,))
        base = count_flops(g)
        strict = count_flops(g, strict=True)
        assert strict == base + 3 * 4 * 8 * 8  # 2/el for norm + 1/el for act

    def test_elementwise_and_concat_contribute_elements(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        a = gb.conv(x, 4, name="a", kernel=1)
        s = gb.add([a, x], name="sum")
        c = gb.concat([s, x], name="cat")
        g = gb.finish(outputs=(c,))
        flops = count_flops(g)
        conv = 2 * 4 * 4 * 64
        assert flops == conv + 4 * 64 + 8 * 64

    def test_reordering_nodes_does_not_change_totals(self):
        graph = build_graph(preset_genome("tiny"))
        from detkit.graph import OpGraph
        permuted = OpGraph(nodes=tuple(reversed(graph.nodes)), outputs=graph.outputs,
                           pyramid=graph.pyramid)
        assert count_flops(permuted) == count_flops(graph)
        assert count_params(permuted) == count_params(graph)


class TestParams:
    def test_hand_computed_conv_with_bias(self):
        g = conv_graph(64, 64, 3, 32, bias=True)
        assert count_params(g) == 36_928  # 9 * 64 * 64 + 64

    def test_identity_concat_add_have_zero_params(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        i = gb.identity(x, name="id")
        c = gb.concat([i, x], name="cat")
        s = gb.add([x, x], name="sum")
        g = gb.finish(outputs=(c, s))
        assert count_params(g) == 0

    def test_norm_counts_two_per_channel(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        y = gb.conv(x, 8, name="c", kernel=1, norm=True, bias=False)
        g = gb.finish(outputs=(y,))
        assert count_params(g) == 4 * 8 + 2 * 8

    def test_s_genome_params_within_band(self):
        graph = build_graph(preset_genome("s"))
        params = count_params(graph)
        assert abs(params - 16.3e6) / 16.3e6 < 0.15

    def test_s_genome_flops_within_band(self):
        graph = build_graph(preset_genome("s"))
        flops = count_flops(graph)
        assert abs(flops - 37.8e9) / 37.8e9 < 0.15


class TestLatency:
    def test_empty_graph_zero_latency(self):
        report = CostReport(flops=0, params=0, latency_ms=None, per_node=())
        profile = DeviceProfile("p", 1e9, 1e9, per_op_overhead_ms=0.5)
        assert estimate_latency(report, profile) == 0.0

    def test_unit_consistency_single_node(self):
        from detkit.cost import NodeCost
        report = CostReport(flops=1000, params=0, latency_ms=None,
                            per_node=(NodeCost("n", "conv", flops=1000, params=0, bytes=1),))
        profile = DeviceProfile("p", flops_per_ms=1000, bytes_per_ms=1e12, per_op_overhead_ms=0.0)
        assert estimate_latency(report, profile) == pytest.approx(1.0)

    def test_two_identical_nodes_double_latency(self):
        from detkit.cost import NodeCost
        one = NodeCost("n", "conv", flops=500, params=0, bytes=100)
        profile = DeviceProfile("p", flops_per_ms=1000, bytes_per_ms=1000, per_op_overhead_ms=0.01)
        r1 = CostReport(500, 0, None, (one,))
        r2 = CostReport(1000, 0, None, (one, one))
        assert estimate_latency(r2, profile) == pytest.approx(2 * estimate_latency(r1, profile))

    def test_memory_bound_node_uses_bytes_rate(self):
        from detkit.cost import NodeCost
        node = NodeCost("n", "concat", flops=10, params=0, bytes=10_000)
        profile = DeviceProfile("p", flops_per_ms=1e9, bytes_per_ms=1000, per_op_overhead_ms=0.0)
        assert estimate_latency(CostReport(10, 0, None, (node,)), profile) == pytest.approx(10.0)

    def test_invalid_profile(self):
        with pytest.raises(ValidationError):
            DeviceProfile("p", flops_per_ms=0, bytes_per_ms=1)

    def test_profile_json_round_trip(self):
        p = builtin_profile("t4-like")
        back = DeviceProfile.from_json(p.to_json())
        assert back == p

    def test_s_genome_lands_near_published_small_latency(self):
        report = cost_report(build_graph(preset_genome("s")), builtin_profile("t4-like"))
        assert 3.0 < report.latency_ms < 4.6  # illustrative profile, near 3.8


class TestReportInvariants:
    def test_totals_equal_sum_of_per_node(self):
        report = cost_report(build_graph(preset_genome("tiny")), builtin_profile("t4-like"))
        assert report.flops == sum(n.flops for n in report.per_node)
        assert report.params == sum(n.params for n in report.per_node)
        assert report.latency_ms == pytest.approx(sum(n.latency_ms for n in report.per_node))
        assert all(n.flops >= 0 and n.params >= 0 and n.bytes >= 0 for n in report.per_node)

    def test_latency_is_in_order_row_sum_and_matches_estimate(self):
        profile = builtin_profile("x86-like")
        report = cost_report(build_graph(preset_genome("s")), profile)
        assert report.latency_ms == sum(n.latency_ms for n in report.per_node)
        assert report.latency_ms == estimate_latency(report, profile)

    def test_table_and_json_render(self):
        report = cost_report(build_graph(preset_genome("tiny")), builtin_profile("t4-like"))
        text = report.to_table()
        assert "TOTAL" in text
        import json
        doc = json.loads(report.to_json())
        assert doc["flops"] == report.flops


def _bump_width(genome, stage, step=8):
    blocks = list(genome.backbone)
    b = blocks[stage]
    blocks[stage] = replace(b, out_ch=b.out_ch + step)
    if stage + 1 < len(blocks):
        blocks[stage + 1] = replace(blocks[stage + 1], in_ch=b.out_ch + step)
    return genome.with_backbone(blocks)


class TestMonotonicity:
    def test_increasing_any_width_or_depth_never_decreases_cost(self):
        base = preset_genome("tiny")
        profile = builtin_profile("t4-like")
        base_report = cost_report(build_graph(base), profile)
        variants = []
        for stage in range(len(base.backbone)):
            variants.append(_bump_width(base, stage))
        for stage in (1, 2, 3, 4):
            blocks = list(base.backbone)
            blocks[stage] = replace(blocks[stage], depth=blocks[stage].depth + 1)
            variants.append(base.with_backbone(blocks))
        for i in range(3):
            widths = list(base.neck.widths)
            widths[i] += 8
            variants.append(replace(base, neck=replace(base.neck, widths=tuple(widths))))
        variants.append(replace(base, neck=replace(base.neck, depth=base.neck.depth + 1)))
        for v in variants:
            r = cost_report(build_graph(v), profile)
            assert r.flops >= base_report.flops
            assert r.params >= base_report.params
            assert r.latency_ms >= base_report.latency_ms

    def test_neck_ablation_ranking_matches_published_direction(self):
        # five neck configs; neck-only FLOPs must rank
        # (2,flat192) < (2,128-512) < (4,64-256) < (3,96-384) < (3,flat160)
        base = preset_genome("s")
        configs = [
            ("A", 2, (192, 192, 192)),
            ("B", 2, (128, 256, 512)),
            ("E", 4, (64, 128, 256)),
            ("D", 3, (96, 192, 384)),
            ("C", 3, (160, 160, 160)),
        ]
        neck_flops = []
        for _, depth, widths in configs:
            g = replace(base, neck=NeckConfig(depth=depth, widths=widths,
                                              fusion_style="CspReparamElan"))
            report = cost_report(build_graph(g))
            neck_flops.append(sum(n.flops for n in report.per_node if n.name.startswith("neck.")))
        assert neck_flops == sorted(neck_flops)
        assert len(set(neck_flops)) == len(neck_flops)

    def test_extra_upsample_strictly_increases_flops(self):
        base = preset_genome("s")
        with_up = replace(base, neck=replace(base.neck, extra_upsample=True))
        assert count_flops(build_graph(with_up)) > count_flops(build_graph(base))

    def test_fold_view_cheaper_or_equal_to_branch_view(self):
        # a rep unit lowered as one 3x3 conv never costs more than the explicit
        # 3x3 + 1x1 + identity branch structure it folds
        ch, res = 32, 16
        gb = GraphBuilder()
        x = gb.input((1, ch, res, res))
        folded = gb.conv(x, ch, name="folded", kernel=3, bias=True, norm=False, act=None)
        g_fold = gb.finish(outputs=(folded,))

        gb = GraphBuilder()
        x = gb.input((1, ch, res, res))
        b3 = gb.conv(x, ch, name="b3", kernel=3, norm=True, act=None)
        b1 = gb.conv(x, ch, name="b1", kernel=1, norm=True, act=None)
        i = gb.identity(x, name="id")
        y = gb.add([b3, b1, i], name="sum")
        g_branch = gb.finish(outputs=(y,))

        assert count_flops(g_fold) <= count_flops(g_branch)
        assert count_params(g_fold) <= count_params(g_branch)
