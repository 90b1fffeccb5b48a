import json
import math
import random
from dataclasses import replace

import pytest

from detkit.cost import (
    BUILTIN_PROFILES,
    BYTES_PER_VALUE,
    CostReport,
    DeviceProfile,
    NodeCost,
    _node_latency,
    builtin_profile,
    cost_report,
)
from detkit.errors import ValidationError
from detkit.genome import (
    MAX_CHANNELS,
    MAX_DEPTH,
    MAX_INPUT_RES,
    MAX_KERNEL,
    BlockSpec,
    DetectorGenome,
    HeadConfig,
    NeckConfig,
    preset_genome,
)
from detkit.graph import GraphBuilder, build_graph
from detkit.search import mutate


def conv_graph(in_ch=64, out_ch=64, k=3, res=32, stride=1, bias=True):
    gb = GraphBuilder()
    x = gb.input((1, in_ch, res, res))
    y = gb.conv(x, out_ch, name="conv", kernel=k, stride=stride, bias=bias, norm=False, act=None)
    return gb.finish(outputs=(y,))


class TestFlops:
    def test_hand_computed_3x3_conv(self):
        g = conv_graph(64, 64, 3, 32)
        assert cost_report(g).flops == 75_497_472  # 2 * 9 * 64 * 64 * 32 * 32

    def test_1x1_minimal_conv(self):
        g = conv_graph(1, 1, 1, 1)
        assert cost_report(g).flops == 2

    def test_zero_out_channels_disallowed(self):
        gb = GraphBuilder()
        x = gb.input((1, 1, 1, 1))
        with pytest.raises(Exception):
            gb.conv(x, 0, name="bad", kernel=1)
            gb.finish(outputs=())

    def test_doubling_widths_quadruples_conv_flops(self):
        assert cost_report(conv_graph(128, 128, 3, 32)).flops == 4 * cost_report(conv_graph(64, 64, 3, 32)).flops

    def test_strict_mode_counts_norm_and_act(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        y = gb.conv(x, 4, name="c", kernel=1, norm=True, act="silu")
        g = gb.finish(outputs=(y,))
        base = cost_report(g).flops
        strict = cost_report(g, strict=True).flops
        assert strict == base + 3 * 4 * 8 * 8  # 2/el for norm + 1/el for act

    def test_elementwise_and_concat_contribute_elements(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        a = gb.conv(x, 4, name="a", kernel=1)
        s = gb.add([a, x], name="sum")
        c = gb.concat([s, x], name="cat")
        g = gb.finish(outputs=(c,))
        flops = cost_report(g).flops
        conv = 2 * 4 * 4 * 64
        assert flops == conv + 4 * 64 + 8 * 64


class TestParams:
    def test_hand_computed_conv_with_bias(self):
        g = conv_graph(64, 64, 3, 32, bias=True)
        assert cost_report(g).params == 36_928  # 9 * 64 * 64 + 64

    def test_concat_add_have_zero_params(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        c = gb.concat([x, x], name="cat")
        s = gb.add([x, x], name="sum")
        g = gb.finish(outputs=(c, s))
        assert cost_report(g).params == 0

    def test_norm_counts_two_per_channel(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        y = gb.conv(x, 8, name="c", kernel=1, norm=True, bias=False)
        g = gb.finish(outputs=(y,))
        assert cost_report(g).params == 4 * 8 + 2 * 8

    def test_s_genome_params_within_band(self):
        graph = build_graph(preset_genome("s"))
        params = cost_report(graph).params
        assert abs(params - 16.3e6) / 16.3e6 < 0.15

    def test_s_genome_flops_within_band(self):
        graph = build_graph(preset_genome("s"))
        flops = cost_report(graph).flops
        assert abs(flops - 37.8e9) / 37.8e9 < 0.15


def _latency(graph, **profile):
    return cost_report(graph, DeviceProfile("p", **profile)).latency_ms


def _conv_chain(convs):
    """An input node and `convs` identical 1x1 convs after it."""
    gb = GraphBuilder()
    x = gb.input((1, 4, 8, 8))
    for i in range(convs):
        x = gb.conv(x, 4, name=f"c{i}", kernel=1)
    return gb.finish(outputs=(x,))


class TestLatency:
    def test_input_only_graph_with_zero_overhead_costs_its_bytes(self):
        graph = _conv_chain(0)  # 256 values, 1024 bytes, no flops
        assert _latency(graph, flops_per_ms=1e9, bytes_per_ms=1024, per_op_overhead_ms=0.0) == 1.0

    def test_compute_bound_node_uses_flops_rate(self):
        graph = conv_graph(4, 4, 1, 8, bias=False)  # 2 * 4 * 4 * 64 = 2048 flops
        report = cost_report(graph, DeviceProfile("p", flops_per_ms=2048, bytes_per_ms=1e12,
                                                  per_op_overhead_ms=0.0))
        assert report.per_node[1].latency_ms == 1.0
        assert report.latency_ms == pytest.approx(1.0)

    def test_two_identical_nodes_double_latency(self):
        profile = dict(flops_per_ms=1000, bytes_per_ms=1000, per_op_overhead_ms=0.01)
        input_only = _latency(_conv_chain(0), **profile)
        single = _latency(_conv_chain(1), **profile) - input_only
        double = _latency(_conv_chain(2), **profile) - input_only
        assert single > 0
        assert double == pytest.approx(2 * single)

    def test_memory_bound_node_uses_bytes_rate(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 8, 8))
        gb.concat([x, x], name="cat")  # 512 flops; 4 * (512 + 256 + 256) = 4096 bytes
        graph = gb.finish(outputs=(1,))
        report = cost_report(graph, DeviceProfile("p", flops_per_ms=1e9, bytes_per_ms=4096,
                                                  per_op_overhead_ms=0.0))
        assert report.per_node[1].latency_ms == 1.0
        assert report.latency_ms == 1.25  # the input node moves its 1024 bytes too

    def test_invalid_profile(self):
        with pytest.raises(ValidationError):
            DeviceProfile("p", flops_per_ms=0, bytes_per_ms=1)

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

    def test_latency_is_in_order_row_sum(self):
        profile = builtin_profile("x86-like")
        report = cost_report(build_graph(preset_genome("s")), profile)
        assert report.latency_ms == sum(n.latency_ms for n in report.per_node)

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
        assert cost_report(build_graph(with_up)).flops > cost_report(build_graph(base)).flops

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
        y = gb.add([b3, b1, x], name="sum")
        g_branch = gb.finish(outputs=(y,))

        assert cost_report(g_fold).flops <= cost_report(g_branch).flops
        assert cost_report(g_fold).params <= cost_report(g_branch).params


def test_largest_admissible_genome_has_finite_cost():
    # every integer field at its documented maximum (genome.MAX_*)
    C, D, K, R = MAX_CHANNELS, MAX_DEPTH, MAX_KERNEL, MAX_INPUT_RES
    genome = DetectorGenome(
        backbone=tuple(BlockSpec("ConvBnAct", C, C, stride=2, depth=D, kernel=K) for _ in range(5)),
        neck=NeckConfig(depth=D, widths=(C, C, C)), head=HeadConfig(head_depth=D, reg_bins=C),
        num_classes=C, input_res=(R, R),
    )
    genome.validate()
    graph = build_graph(genome)
    for name in BUILTIN_PROFILES:
        report = cost_report(graph, builtin_profile(name), strict=True)
        assert math.isfinite(float(report.flops)) and math.isfinite(report.latency_ms)
    with pytest.raises(ValidationError, match=r"backbone\[0\].kernel"):
        genome.with_backbone((replace(genome.backbone[0], kernel=K + 2),) + genome.backbone[1:]).validate()


def reference_to_json(report: CostReport) -> str:
    """The encoder `CostReport.to_json` must match byte for byte."""
    return json.dumps(report.to_doc(), indent=2) + "\n"


def reference_to_table(report: CostReport) -> str:
    """The table with every latency at `.4f`, which `to_table` must match
    whenever each latency fits its column that way."""
    header = f"{'node':<40}{'kind':<16}{'flops':>16}{'params':>12}{'bytes':>14}{'lat_ms':>10}"
    lines = [header, "-" * len(header)]
    for n in report.per_node:
        lat = f"{n.latency_ms:.4f}" if n.latency_ms is not None else "-"
        lines.append(f"{n.name:<40}{n.kind:<16}{n.flops:>16}{n.params:>12}{n.bytes:>14}{lat:>10}")
    total_lat = f"{report.latency_ms:.4f}" if report.latency_ms is not None else "-"
    lines.append("-" * len(header))
    lines.append(f"{'TOTAL':<40}{'':<16}{report.flops:>16}{report.params:>12}{'':>14}{total_lat:>10}")
    return "\n".join(lines) + "\n"


class TestToTable:
    @pytest.mark.parametrize("preset", ["s", "tiny"])
    @pytest.mark.parametrize("profile", [None, "t4-like", "x86-like"])
    def test_presets_print_every_latency_at_4f(self, preset, profile):
        report = cost_report(build_graph(preset_genome(preset)),
                             None if profile is None else builtin_profile(profile))
        assert report.to_table() == reference_to_table(report)

    @pytest.mark.parametrize("latency, cell", [
        (99999.99994, "99999.9999"),  # the widest that fits at .4f
        (123456.7, " 1.235e+05"),
        (2.298e303, " 2.30e+303"),
        (-1e300, " -1.0e+300"),
        (math.inf, "       inf"),
    ])
    def test_latencies_too_wide_for_4f_turn_scientific(self, latency, cell):
        report = CostReport(1, 0, latency, (NodeCost("n", "conv", 1, 0, 8, latency),))
        lines = report.to_table().splitlines()
        assert {len(line) for line in lines} == {len(lines[0])}
        assert lines[2].endswith(cell) and lines[-1].endswith(cell)


def _mutated_genomes(count, seed=0):
    """`count` genomes from seeded mutation chains off both presets."""
    rng = random.Random(seed)
    bases = [preset_genome("s"), preset_genome("tiny")]
    for i in range(count):
        g = bases[i % 2]
        for _ in range(rng.randint(1, 8)):
            g = mutate(g, rng)
        yield g


class TestToJsonMatchesReferenceEncoder:
    @pytest.mark.parametrize("preset", ["s", "tiny"])
    @pytest.mark.parametrize("profile", [None, "t4-like", "x86-like"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_presets(self, preset, profile, strict):
        report = cost_report(build_graph(preset_genome(preset)),
                             None if profile is None else builtin_profile(profile), strict=strict)
        assert report.to_json() == reference_to_json(report)

    def test_no_profile_writes_null_latency(self):
        report = cost_report(build_graph(preset_genome("s")))
        text = report.to_json()
        assert text == reference_to_json(report)
        assert json.loads(text)["latency_ms"] is None

    @pytest.mark.parametrize("report", [
        CostReport(0, 0, None, ()),
        CostReport.from_rows([], timed=True),  # the sum of no latencies is the int 0
    ], ids=["untimed", "timed"])
    def test_empty_report(self, report):
        assert report.to_json() == reference_to_json(report)
        assert '"per_node": []' in report.to_json()

    @pytest.mark.parametrize("name", ['quote"d', "back\\slash", "new\nline", "bell\x07",
                                      "caf\u00e9 \u2603 \U0001f600"])
    def test_names_that_need_escaping(self, name):
        rows = [NodeCost(name, name[::-1], 1, 2, 3, 0.5), NodeCost("plain", "conv", 4, 5, 6)]
        for timed in (False, True):
            report = CostReport.from_rows(rows[:1] if timed else rows, timed=timed)
            assert report.to_json() == reference_to_json(report)

    @pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300,
                                         0.1 + 0.2, None, 7])
    def test_row_and_total_latency_values(self, latency):
        rows = (NodeCost("a", "conv", 10**30, 0, 8, latency), NodeCost("b", "add", 1, 0, 8, 2.5))
        report = CostReport(10**30 + 1, 0, latency, rows)
        assert report.to_json() == reference_to_json(report)

    def test_mutated_genomes(self):
        profile = builtin_profile("t4-like")
        for g in _mutated_genomes(300):
            report = cost_report(build_graph(g), profile)
            assert report.to_json() == reference_to_json(report), g


class TestNodeCostRecord:
    def test_fields_cannot_be_assigned(self):
        row = NodeCost("n", "conv", 1, 2, 3)
        with pytest.raises(AttributeError):
            row.flops = 5

    def test_positional_and_keyword_construction_agree(self):
        row = NodeCost("n", "conv", 1, 2, 3)
        assert row == NodeCost(name="n", kind="conv", flops=1, params=2, bytes=3, latency_ms=None)
        assert row.latency_ms is None
        assert NodeCost("n", "conv", 1, 2, 3, 0.5) == NodeCost("n", "conv", 1, 2, 3, latency_ms=0.5)

    def test_rows_are_hashable(self):
        report = cost_report(build_graph(preset_genome("tiny")), builtin_profile("t4-like"))
        assert len({hash(n) for n in report.per_node}) > 1
        assert hash(report.per_node[0]) == hash(NodeCost(*report.per_node[0]))


def _node_flops(graph, n, strict):
    if n.kind == "conv":
        in_ch = graph.nodes[n.inputs[0]].out_shape[1]
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
    return 0


def _node_params(graph, n):
    if n.kind != "conv":
        return 0
    in_ch = graph.nodes[n.inputs[0]].out_shape[1]
    out_ch = n.out_shape[1]
    params = n.kernel * n.kernel * (in_ch // n.groups) * out_ch
    if n.bias:
        params += out_ch
    if n.norm:
        params += 2 * out_ch
    return params


def _node_bytes(graph, n, params):
    moved = n.out_elements + sum(graph.nodes[s].out_elements for s in n.inputs)
    return BYTES_PER_VALUE * (moved + params)


def reference_cost_report(graph, profile=None, strict=False) -> CostReport:
    """The per-node cost model `cost_report` must equal, rows and totals alike:
    each formula a helper of its own, inputs looked up through `graph.node`,
    totals as in-order generator sums."""
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
        latency_ms=sum(r.latency_ms for r in rows) if profile is not None else None,
        per_node=tuple(rows),
    )


_PROFILES = [None, "t4-like", "x86-like"]


class TestCostReportMatchesReference:
    @pytest.mark.parametrize("preset", ["s", "tiny"])
    @pytest.mark.parametrize("profile", _PROFILES)
    @pytest.mark.parametrize("strict", [False, True])
    def test_presets(self, preset, profile, strict):
        graph = build_graph(preset_genome(preset))
        device = None if profile is None else builtin_profile(profile)
        expected = reference_cost_report(graph, device, strict)
        assert cost_report(graph, device, strict) == expected

    def test_mutated_genomes(self):
        profiles = [None if p is None else builtin_profile(p) for p in _PROFILES]
        for i, g in enumerate(_mutated_genomes(300, seed=5)):
            graph = build_graph(g)
            device, strict = profiles[i % 3], i % 2 == 1
            expected = reference_cost_report(graph, device, strict)
            assert cost_report(graph, device, strict) == expected, g

    def test_empty_report_totals(self):
        assert CostReport.from_rows([], timed=True) == CostReport(0, 0, 0, ())
        assert type(CostReport.from_rows([], timed=True).latency_ms) is int
        assert CostReport.from_rows([], timed=False) == CostReport(0, 0, None, ())
