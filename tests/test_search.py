import dataclasses
import importlib.util
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from detkit import search as search_module
from detkit.cost import builtin_profile, cost_report, fold_sum
from detkit.errors import InfeasibleError, ValidationError
from detkit.genome import (
    FUSION_STYLES,
    BlockSpec,
    DetectorGenome,
    HeadConfig,
    NeckConfig,
    genome_from_json,
    genome_to_json,
    preset_genome,
)
from detkit.graph import (
    GraphBuilder,
    OpGraph,
    OpNode,
    _fusion_block,
    _fusion_body,
    _fusion_entry,
    _lower_head,
    _lower_stage,
    build_graph,
    segments,
    stage_units,
)
from detkit.search import (
    MUTATION_OPS,
    ArchiveEntry,
    ParetoArchive,
    ProxyScore,
    SearchConfig,
    entropy_score,
    mutate,
    search,
)

GOLDEN = Path(__file__).parent / "golden"


def _load_make_goldens():
    path = Path(__file__).resolve().parent.parent / "tools" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDENS = _load_make_goldens()
# the genomes whose proxy scores tests/golden/scores.ndjson pins, by case name
SCORE_CASES = MAKE_GOLDENS.SCORE_CASES


def golden_scores() -> dict:
    lines = (GOLDEN / "scores.ndjson").read_text().splitlines()
    return {rec["case"]: rec for rec in map(json.loads, lines)}

LN_2PI_E = math.log(2.0 * math.pi * math.e)


def make_cfg(**kw):
    base = dict(
        population=4,
        generations=3,
        mutations_per_child=1,
        latency_budget_ms=math.inf,
        seed=0,
        device_profile=builtin_profile("t4-like"),
    )
    base.update(kw)
    return SearchConfig(**base)


class TestEntropyScore:
    def test_input_only_graph_closed_form(self):
        gb = GraphBuilder()
        x = gb.input((1, 64, 20, 20))
        g = gb.finish(outputs=(x,))
        score = entropy_score(g)
        assert score.value == pytest.approx(64 * 400 * 0.5 * LN_2PI_E, rel=1e-12)
        assert score.per_scale == (score.value,)

    def test_variance_preserving_conv_keeps_score_residual_add_raises_by_log2(self):
        # 3-node hand propagation: conv preserves v=1, add of two unit-variance
        # branches doubles v, shifting the score by elements * 0.5 * ln 2
        gb = GraphBuilder()
        x = gb.input((1, 8, 4, 4))
        c = gb.conv(x, 8, name="c")
        g_conv = gb.finish(outputs=(c,))

        gb = GraphBuilder()
        x = gb.input((1, 8, 4, 4))
        g_id = gb.finish(outputs=(x,))
        assert entropy_score(g_conv).value == pytest.approx(entropy_score(g_id).value)

        gb = GraphBuilder()
        x = gb.input((1, 8, 4, 4))
        c = gb.conv(x, 8, name="c")
        a = gb.add([c, x], name="res")
        g_res = gb.finish(outputs=(a,))
        elements = 8 * 16
        expected = entropy_score(g_conv).value + elements * 0.5 * math.log(2.0)
        assert entropy_score(g_res).value == pytest.approx(expected, rel=1e-12)

    def test_concat_carries_per_part_variances(self):
        gb = GraphBuilder()
        x = gb.input((1, 4, 2, 2))
        c = gb.conv(x, 4, name="c")
        a = gb.add([c, x], name="res")   # v = 2
        cat = gb.concat([x, a], name="cat")  # parts at v=1 and v=2
        g = gb.finish(outputs=(cat,))
        el = 4 * 4
        expected = el * 0.5 * LN_2PI_E + el * 0.5 * (LN_2PI_E + math.log(2.0))
        assert entropy_score(g).value == pytest.approx(expected, rel=1e-12)

    def test_widening_every_stage_strictly_increases_score(self):
        base = preset_genome("tiny")
        wide = base.with_backbone(
            replace(b, in_ch=b.in_ch * 2 if i else b.in_ch, out_ch=b.out_ch * 2)
            for i, b in enumerate(base.backbone)
        )
        assert entropy_score(build_graph(wide)).value > entropy_score(build_graph(base)).value

    def test_score_strictly_increasing_in_pyramid_width_at_fixed_depth(self):
        base = preset_genome("tiny")
        taps = base.pyramid_taps()
        prev = entropy_score(build_graph(base)).value
        for step in (8, 16, 24):
            blocks = list(base.backbone)
            for t in taps:
                blocks[t] = replace(blocks[t], out_ch=blocks[t].out_ch + step)
                if t + 1 < len(blocks):
                    blocks[t + 1] = replace(blocks[t + 1], in_ch=blocks[t].out_ch)
            g = base.with_backbone(blocks)
            value = entropy_score(build_graph(g)).value
            assert value > prev
            prev = value

    def test_deterministic(self):
        graph = build_graph(preset_genome("tiny"))
        assert entropy_score(graph) == entropy_score(graph)

    def test_a_zero_element_tap_is_rejected_by_its_name(self):
        nodes = (OpNode("input", "input", (), (1, 4, 8, 8)),
                 OpNode("stem", "conv", (0,), (1, 8, 8, 8), kernel=3),
                 OpNode("empty", "conv", (1,), (1, 0, 8, 8)))
        graph = OpGraph(nodes=nodes, outputs=(2,), pyramid=(1, 2))
        with pytest.raises(ValidationError, match="^empty: zero-element output cannot be scored"):
            entropy_score(graph)

    def test_value_is_sum_of_per_scale(self):
        score = entropy_score(build_graph(preset_genome("tiny")))
        assert len(score.per_scale) == 3
        assert score.value == pytest.approx(sum(score.per_scale), rel=1e-12)

    def test_golden_scores_cover_every_case(self):
        assert list(golden_scores()) == list(SCORE_CASES)

    @pytest.mark.parametrize("case", list(SCORE_CASES))
    def test_score_matches_golden(self, case):
        score = entropy_score(build_graph(SCORE_CASES[case]()))
        got = {"case": case, "value": score.value, "per_scale": list(score.per_scale)}
        assert got == golden_scores()[case], f"proxy score of {case} drifted from tests/golden/scores.ndjson"


def res_only_mutants() -> list[DetectorGenome]:
    """`s` and a chain of its mutants that keep every stacked stage a Res stage."""
    rng = random.Random(2)
    cfg = make_cfg(mutation_ops=("widen", "narrow", "deepen", "shallow"))
    genomes = [preset_genome("s")]
    for _ in range(24):
        genomes.append(mutate(genomes[-1], rng, cfg))
    return genomes


def res_units_above(genome: DetectorGenome, stage: int) -> int:
    return sum(b.depth for b in genome.backbone[:stage + 1] if b.kind == "Res")


class TestProxyClosedForm:
    """At fan-in-scaled init a conv passes on its input's mean variance and a
    Res unit's add doubles it, so on a Res-only backbone the score is
    sum over taps t of elements_t * 1/2 * (ln 2 pi e + D_t ln 2), D_t the Res
    units above tap t: the width of a stage that is not a tap does not count."""

    def test_each_tap_variance_is_two_to_the_res_units_above_it(self):
        genomes = res_only_mutants()
        assert [res_units_above(genomes[0], t) for t in genomes[0].pyramid_taps()] == [7, 15, 19]
        assert len(set(genomes)) > 15
        for genome in genomes:
            graph = build_graph(genome)
            state = search_module._propagate_variance(graph)
            for t, nid in zip(genome.pyramid_taps(), graph.pyramid):
                assert state[nid] == [(graph.nodes[nid].out_shape[1], 2.0 ** res_units_above(genome, t))]

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_deepen_adds_elements_ln2_over_2_at_each_downstream_tap(self, stage):
        for genome in res_only_mutants()[::4]:
            blocks = list(genome.backbone)
            blocks[stage] = replace(blocks[stage], depth=blocks[stage].depth + 1)
            graph = build_graph(genome)
            before, after = entropy_score(graph), entropy_score(build_graph(genome.with_backbone(blocks)))
            for t, nid, old, new in zip(genome.pyramid_taps(), graph.pyramid, before.per_scale, after.per_scale):
                if t < stage:
                    assert new == old
                else:
                    assert math.isclose(new - old, graph.nodes[nid].out_elements * math.log(2.0) / 2,
                                        rel_tol=1e-12)

    @pytest.mark.parametrize("stage", [0, 1, 4])  # not a tap of s: its taps are stages 2, 3 and 5
    @pytest.mark.parametrize("step", [8, -8])
    def test_a_width_edit_of_a_non_tap_stage_leaves_the_score_bit_identical(self, stage, step):
        for genome in res_only_mutants()[::4]:
            blocks = list(genome.backbone)
            blocks[stage] = replace(blocks[stage], out_ch=blocks[stage].out_ch + step)
            blocks[stage + 1] = replace(blocks[stage + 1], in_ch=blocks[stage].out_ch)
            edited = genome.with_backbone(blocks)
            assert edited.pyramid_taps() == (2, 3, 5)
            assert entropy_score(build_graph(edited)) == entropy_score(build_graph(genome))


def reference_entropy_score(graph: OpGraph) -> ProxyScore:
    """The proxy with every node propagated: variance runs over a copy of the
    graph whose only output is its last node, and the original taps are read."""
    everything = OpGraph(nodes=graph.nodes, outputs=(len(graph.nodes) - 1,))
    state = search_module._propagate_variance(everything)
    per_scale = tuple(search_module._scale_entropy(graph.nodes[nid].out_shape, state[nid])
                      for nid in graph.pyramid or graph.outputs)
    return ProxyScore(value=fold_sum(per_scale), per_scale=per_scale)


class TestEarlyStop:
    """Variance propagation stops at the last scored node; scores equal the
    full propagation's exactly."""

    @pytest.mark.parametrize("case", list(SCORE_CASES))  # both presets are among them
    def test_golden_cases_and_presets(self, case):
        graph = build_graph(SCORE_CASES[case]())
        assert entropy_score(graph) == reference_entropy_score(graph)

    def test_random_genomes_and_mutation_chains(self):
        rng = random.Random(1)
        cfg = make_cfg(depth_max=3)
        for n in range(300):
            genome = random_genome(rng) if n % 6 == 0 else mutate(genome, rng, cfg)
            graph = build_graph(genome)
            assert entropy_score(graph) == reference_entropy_score(graph), genome

    def test_nodes_after_the_last_tap_are_not_visited(self):
        gb = GraphBuilder()
        x = gb.input((1, 8, 16, 16))
        a = gb.conv(x, 16, name="a", stride=2)
        b = gb.add([gb.conv(a, 16, name="b"), a], name="res")
        up = gb.upsample(gb.conv(b, 32, name="c"), name="up")
        graph = gb.finish(outputs=(gb.conv(up, 8, name="d"),), pyramid=(a, b))
        assert len(search_module._propagate_variance(graph)) == b + 1 < len(graph.nodes)
        assert entropy_score(graph) == reference_entropy_score(graph)
        truncated = OpGraph(nodes=graph.nodes[:b + 1], outputs=(b,), pyramid=(a, b))
        assert entropy_score(graph) == entropy_score(truncated)


def reference_propagate_variance(graph: OpGraph, input_segments=None):
    """The generic variance pass: every rule written over segment lists of any
    length, with no one-segment shortcut."""
    stop = max(graph.pyramid or graph.outputs) + 1
    state = []
    for nid in graph.topo_order()[:stop]:
        n = graph.nodes[nid]
        if n.kind == "input":
            state.append(input_segments or [(n.out_shape[1], 1.0)])
        elif n.kind == "conv":
            segs = state[n.inputs[0]]
            mean = sum(ch * v for ch, v in segs) / sum(ch for ch, _ in segs)
            state.append([(n.out_shape[1], mean)])
        elif n.kind == "add":
            acc = state[n.inputs[0]]
            for src in n.inputs[1:]:
                acc, other = search_module._refine_pair(acc, state[src])
                acc = [(ch, va + vb) for (ch, va), (_, vb) in zip(acc, other)]
            state.append(search_module._merge_segments(acc))
        elif n.kind == "concat":
            segs = []
            for src in n.inputs:
                segs.extend(state[src])
            state.append(search_module._merge_segments(segs))
        elif n.kind == "space_to_depth":
            state.append(search_module._merge_segments(list(state[n.inputs[0]]) * 4))
        elif n.kind in ("upsample", "maxpool"):
            state.append(state[n.inputs[0]])
        else:
            raise ValidationError(f"no variance rule for node kind {n.kind!r}")
    return state


def golden_genomes() -> list[DetectorGenome]:
    """The score cases and every genome in a search golden's archive."""
    genomes = [make() for make in SCORE_CASES.values()]
    for path in sorted(GOLDEN.glob("search_*.ndjson")):
        genomes += [genome_from_json(json.dumps(json.loads(line)["genome"]))
                    for line in path.read_text().splitlines()]
    return genomes


class TestVarianceOracle:
    """`_propagate_variance` equals the generic pass bit for bit: the same
    state lists, compared as (int, float) tuples."""

    def test_golden_genomes(self):
        genomes = golden_genomes()
        assert len(genomes) > len(SCORE_CASES)
        for genome in genomes:
            graph = build_graph(genome)
            assert search_module._propagate_variance(graph) == reference_propagate_variance(graph)

    # every stage kind in each stride it has: Focus only downsamples, Spp never does
    @pytest.mark.parametrize("kind, stride", [
        (kind, stride) for kind in ("Res", "Mob", "Csp", "Focus", "Spp", "ConvBnAct") for stride in (1, 2)
        if (kind, stride) not in (("Focus", 1), ("Spp", 2))])
    @pytest.mark.parametrize("input_segments", [
        None, [(32, 1.0)], [(32, 2.718281828459045)], [(16, 0.5), (16, 2.0)],
        [(8, 3.0), (16, 0.25), (8, 1.5)],
        [(32, 0.3819624387983612)],  # 24 * v / 24 != v: a 24-channel conv input is not v
    ])
    def test_each_stage_kind_on_a_placeholder(self, kind, stride, input_segments):
        for out_ch in (24, 32, 48):
            gb = GraphBuilder()
            x = gb.input((1, 32, 16, 16))
            spec = BlockSpec(kind, 32, out_ch, stride=stride, depth=1 if kind in ("Focus", "Spp") else 2,
                             kernel=5 if kind == "Spp" else 3)
            graph = gb.finish(outputs=_lower_stage(gb, [x], spec, 1, 0.5 if kind == "Csp" else None))
            got = search_module._propagate_variance(graph, input_segments)
            assert got == reference_propagate_variance(graph, input_segments)

    def test_add_over_mixed_one_and_multi_segment_states(self):
        gb = GraphBuilder()
        x = gb.input((1, 16, 8, 8))
        one = gb.conv(x, 32, name="one")
        doubled = gb.add([gb.conv(x, 16, name="a"), gb.conv(x, 16, name="b")], name="ab")
        two = gb.concat([gb.conv(x, 16, name="c"), doubled], name="two")
        quad = gb.add([doubled, doubled], name="quad")
        three = gb.concat([gb.conv(x, 8, name="d"), quad, gb.conv(x, 8, name="e")], name="three")
        flipped = gb.concat([doubled, gb.conv(x, 16, name="f")], name="flipped")
        outs = [gb.add(srcs, name=f"sum{i}") for i, srcs in enumerate(
            [[one, two, three], [three, two, one], [one, one, two], [one, one, one], [two, two, one],
             [two, flipped]])]
        graph = gb.finish(outputs=outs)
        state = search_module._propagate_variance(graph)
        assert state == reference_propagate_variance(graph)
        assert [state[n] for n in (one, two, three)] == [
            [(32, 1.0)], [(16, 1.0), (16, 2.0)], [(8, 1.0), (16, 4.0), (8, 1.0)]]
        assert state[outs[0]] == [(8, 3.0), (8, 6.0), (8, 7.0), (8, 4.0)]
        assert state[outs[3]] == [(32, 3.0)]
        assert state[outs[5]] == [(32, 3.0)]  # two segments of equal sums merge

    def test_a_one_input_add_merges_its_input(self):
        gb = GraphBuilder()
        x = gb.input((1, 32, 8, 8))
        graph = gb.finish(outputs=(gb.add([x], name="a"),))
        for segs in (((16, 1.0), (16, 1.0)), ((32, 1.0),), [(8, 2.0), (24, 0.5)]):
            assert search_module._propagate_variance(graph, segs) == reference_propagate_variance(graph, segs)

    @pytest.mark.parametrize("preset, cfg", [
        ("tiny", make_cfg(population=8, generations=20, seed=1)),
        ("s", SearchConfig.from_json(json.dumps(MAKE_GOLDENS.bench_search_doc(0)))),
    ])
    def test_every_pass_of_a_search(self, monkeypatch, preset, cfg):
        passes = []
        propagate = search_module._propagate_variance

        def recording(graph, input_segments=None):
            state = propagate(graph, input_segments)
            passes.append((graph, input_segments, state))
            return state

        monkeypatch.setattr(search_module, "_propagate_variance", recording)
        search(preset_genome(preset), cfg)
        assert len(passes) > 50
        # Csp stages hold two segments between their concat and merge conv
        assert any(len(segs) > 1 for _, _, state in passes for segs in state)
        # Res stages are scored one repeat unit per pass: a graph whose nodes
        # after its placeholder all belong to one later repeat `backbone.sI.rR`
        prefixes = [{".".join(n.name.split(".")[:3]) for n in graph.nodes[1:]} for graph, _, _ in passes]
        assert any(len(p) == 1 and not p.pop().endswith(".r0") for p in prefixes)
        for graph, input_segments, state in passes:
            assert state == reference_propagate_variance(graph, input_segments)


def reference_evaluate(genome: DetectorGenome, profile) -> ArchiveEntry:
    """Whole-genome evaluation, the oracle of the search's segment-by-segment
    one: lower the genome whole, score it and cost it."""
    graph = build_graph(genome)
    cost = cost_report(graph, profile)
    return ArchiveEntry(genome, entropy_score(graph), cost.flops, cost.params, cost.latency_ms)


def reference_mutate(genome: DetectorGenome, rng: random.Random, cfg: SearchConfig,
                     rejected: list | None = None) -> DetectorGenome:
    """`mutate` as it was written with a full `DetectorGenome.validate` of
    every edited genome, `dataclasses.replace` for every edit and a forward
    repair of the whole channel chain; a draw that fails validation is
    appended to `rejected`."""

    def repair_chain(blocks):
        repaired = [blocks[0]]
        for b in blocks[1:]:
            prev_out = repaired[-1].out_ch
            repaired.append(replace(b, in_ch=prev_out) if b.in_ch != prev_out else b)
        return repaired

    def try_mutation(op):
        blocks = list(genome.backbone)
        if op in ("widen", "narrow"):
            i = rng.randrange(len(blocks))
            step = cfg.width_step if op == "widen" else -cfg.width_step
            new_w = blocks[i].out_ch + step
            if not cfg.width_min <= new_w <= cfg.width_max:
                return None
            blocks[i] = replace(blocks[i], out_ch=new_w)
            return replace(genome, backbone=tuple(repair_chain(blocks)))
        if op in ("deepen", "shallow"):
            candidates = [i for i, b in enumerate(blocks) if b.kind in search_module._DEPTH_KINDS]
            if not candidates:
                return None
            i = candidates[rng.randrange(len(candidates))]
            new_d = blocks[i].depth + (1 if op == "deepen" else -1)
            if not 1 <= new_d <= cfg.depth_max:
                return None
            blocks[i] = replace(blocks[i], depth=new_d)
            return replace(genome, backbone=tuple(blocks))
        candidates = [i for i, b in enumerate(blocks) if b.kind in search_module.STACKED_KINDS]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        options = [k for k in search_module._allowed_swap_kinds(genome, cfg) if k != blocks[i].kind]
        if not options:
            return None
        blocks[i] = replace(blocks[i], kind=options[rng.randrange(len(options))])
        return replace(genome, backbone=tuple(blocks))

    ops = cfg.mutation_ops
    for _ in range(search_module._MUTATION_DRAWS):
        mutated = try_mutation(ops[rng.randrange(len(ops))])
        if mutated is None:
            continue
        try:
            mutated.validate()
        except ValidationError:
            if rejected is not None:
                rejected.append(mutated)
            continue
        return mutated
    return genome


def oracle_cases() -> list:
    """(genome, config, whether validation must reject some draws): the
    presets, a stage at the top of the channel range and one at the top of
    the depth range with search bounds beyond them, and a genome whose every
    field differs from its default."""
    s, tiny = preset_genome("s"), preset_genome("tiny")
    wide = list(s.backbone)
    wide[4] = replace(wide[4], out_ch=65536)
    wide[5] = replace(wide[5], in_ch=65536, out_ch=65536)
    deep = list(s.backbone)
    deep[3] = replace(deep[3], depth=1024)
    odd = DetectorGenome(
        backbone=tuple(replace(b, kernel=5) if b.kind == "Res" else b for b in tiny.backbone),
        neck=NeckConfig(depth=2, widths=(32, 40, 56), fusion_style="Csp", extra_upsample=True,
                        extra_downsample=False),
        head=HeadConfig(head_depth=1, reg_bins=4), num_classes=7, input_res=(96, 160), csp_hidden_ratio=0.375)
    return [
        (s, make_cfg(), False),
        (tiny, make_cfg(), False),
        (tiny, make_cfg(scale_rule=True, scale_rule_depth=6, depth_max=4), False),
        (s.with_backbone(wide), make_cfg(width_max=70000, width_step=8), True),
        (s.with_backbone(deep), make_cfg(depth_max=2000, mutation_ops=("deepen", "shallow", "widen")), True),
        (odd, make_cfg(), False),
    ]


class TestMutate:
    @pytest.mark.parametrize("genome, cfg, rejects", oracle_cases(),
                             ids=["s", "tiny", "tiny-scale-rule", "s-width-edge", "s-depth-edge", "non-default"])
    def test_equals_full_validation_mutate(self, genome, cfg, rejects):
        # a chain of 2000 draws from the case's genome, every fifth restarting there
        genome.validate()
        rng, reference_rng, rejected = random.Random(11), random.Random(11), []
        current = genome
        for n in range(2000):
            if n % 5 == 0:
                current = genome
            got = mutate(current, rng, cfg)
            want = reference_mutate(current, reference_rng, cfg, rejected)
            assert got == want
            assert rng.getstate() == reference_rng.getstate()
            # what the edit leaves alone survives the constructors
            for f in dataclasses.fields(DetectorGenome):
                if f.name != "backbone":
                    assert getattr(got, f.name) == getattr(genome, f.name)
            for old, new in zip(current.backbone, got.backbone):
                assert (new.stride, new.kernel) == (old.stride, old.kernel)
            current = got
        assert bool(rejected) == rejects

    def test_forced_noop_path_returns_genome_unchanged(self):
        # every stage already at the width cap: all widen draws are infeasible,
        # so bounded retries fall through to the no-op path
        g = single_stage_space(width=96)
        cfg = make_cfg(mutation_ops=("widen",), width_max=96)
        rng = random.Random(0)
        for _ in range(10):
            assert mutate(g, rng, cfg) == g

    def test_widen_changes_only_one_stage_and_its_consumer(self):
        g = preset_genome("s")
        cfg = make_cfg(mutation_ops=("widen",), width_step=16)
        # find a seed whose first draw widens stage 3, then diff structurally
        seed = next(s for s in range(100)
                    if random.Random(s).randrange(len(g.backbone)) == 3)
        mutated = mutate(g, random.Random(seed), cfg)
        for i, (old, new) in enumerate(zip(g.backbone, mutated.backbone)):
            if i == 3:
                assert new.out_ch == old.out_ch + 16
                assert new.in_ch == old.in_ch
            elif i == 4:
                assert new.in_ch == old.in_ch + 16
                assert new.out_ch == old.out_ch
            else:
                assert new == old
        assert mutated.neck == g.neck and mutated.head == g.head
        mutated.validate()

    def test_mutations_always_produce_valid_genomes(self):
        g = preset_genome("tiny")
        cfg = make_cfg()
        rng = random.Random(7)
        for _ in range(300):
            g = mutate(g, rng, cfg)
            g.validate()

    @staticmethod
    def swapped_kinds(genome, cfg, seed):
        rng = random.Random(seed)
        seen = set()
        for _ in range(50):
            m = mutate(genome, rng, cfg)
            for old, new in zip(genome.backbone, m.backbone):
                if old.kind != new.kind:
                    seen.add(new.kind)
        return seen

    # residual blocks below the threshold, cross-stage partial from it on
    @pytest.mark.parametrize("threshold, kind", [(None, "Res"), (5, "Res"), (4, "Csp")],
                             ids=["default=30", "5", "4"])
    def test_swap_kind_respects_scale_rule_small(self, threshold, kind):
        g = preset_genome("tiny")  # three Res stages and a Csp one
        assert search_module._stacked_depth(g) == 4
        depth = {} if threshold is None else {"scale_rule_depth": threshold}
        cfg = make_cfg(mutation_ops=("swap_kind",), scale_rule=True, **depth)
        assert self.swapped_kinds(g, cfg, seed=1) == {kind}

    @pytest.mark.parametrize("threshold, kind", [(None, "Csp"), (38, "Csp"), (39, "Res")],
                             ids=["default=30", "38", "39"])
    def test_swap_kind_respects_scale_rule_deep(self, threshold, kind):
        g = preset_genome("s")  # total stacked depth 19, all Res
        deep = g.with_backbone(
            replace(b, depth=b.depth * 2, kind="Csp" if i == 4 else b.kind) if b.kind == "Res" else b
            for i, b in enumerate(g.backbone)
        )
        assert search_module._stacked_depth(deep) == 38
        depth = {} if threshold is None else {"scale_rule_depth": threshold}
        cfg = make_cfg(mutation_ops=("swap_kind",), scale_rule=True, **depth)
        assert self.swapped_kinds(deep, cfg, seed=2) == {kind}


def single_stage_space(width=32):
    genome = DetectorGenome(
        backbone=(BlockSpec("ConvBnAct", 3, width, stride=2, depth=1),),
        neck=None, head=None, input_res=(32, 32),
    )
    genome.validate()
    return genome


class TestSearch:
    def test_generation0_archive_is_nondominated_subset(self):
        g = preset_genome("tiny")
        cfg = make_cfg(population=2, generations=0, seed=11)
        archive = search(g, cfg)
        assert 1 <= len(archive.entries) <= 2
        assert len(archive.history) == 1
        entries = archive.sorted_entries()
        for a in entries:
            for b in entries:
                if a is not b:
                    assert not (a.score.value >= b.score.value
                                and a.latency_ms <= b.latency_ms
                                and (a.score.value > b.score.value or a.latency_ms < b.latency_ms))

    def test_same_seed_byte_identical_archive(self):
        g = preset_genome("tiny")
        cfg = make_cfg(population=4, generations=5, seed=99)
        a = search(g, cfg).to_ndjson()
        b = search(g, cfg).to_ndjson()
        assert a == b

    def test_archive_within_budget_and_best_beats_generation0(self):
        g = preset_genome("tiny")
        seed_latency = reference_evaluate(g, builtin_profile("t4-like")).latency_ms
        cfg = make_cfg(population=6, generations=20, seed=123,
                       latency_budget_ms=1.25 * seed_latency)
        archive = search(g, cfg)
        assert all(e.latency_ms <= cfg.latency_budget_ms for e in archive.entries)
        gen0_scores = [s for s, _, feasible in archive.history[0] if feasible]
        assert archive.best.score.value >= max(gen0_scores)
        assert len(archive.history) == cfg.generations + 1

    def test_infeasible_seed_raises(self):
        g = preset_genome("tiny")
        cfg = make_cfg(latency_budget_ms=1e-3)
        with pytest.raises(InfeasibleError, match="infeasible"):
            search(g, cfg)

    def test_width_only_search_reaches_maximal_width(self):
        # single mutable width dimension: with an infinite budget the best
        # genome must be the maximal-width genome reachable within the
        # generation count, verified by exhaustive enumeration
        seed_genome = single_stage_space(width=32)
        cfg = make_cfg(population=3, generations=6, mutations_per_child=1,
                       mutation_ops=("widen",), width_max=96, seed=17)
        archive = search(seed_genome, cfg)

        max_steps = (cfg.generations + 1) * cfg.mutations_per_child
        reachable = []
        for k in range(max_steps + 1):
            w = 32 + k * cfg.width_step
            if w > cfg.width_max:
                break
            reachable.append(single_stage_space(width=w))
        scored = [(reference_evaluate(g, cfg.device_profile).score.value, g) for g in reachable]
        best_score, best_genome = max(scored, key=lambda t: t[0])
        assert archive.best.genome == best_genome
        assert archive.best.score.value == pytest.approx(best_score)

    def test_pareto_insert_keeps_nondominated(self):
        g = preset_genome("tiny")
        e1 = reference_evaluate(g, builtin_profile("t4-like"))
        wider = g.with_backbone(
            replace(b, out_ch=b.out_ch + 8) if i == len(g.backbone) - 1 else b
            for i, b in enumerate(g.backbone)
        )
        e2 = reference_evaluate(wider, builtin_profile("t4-like"))
        archive = ParetoArchive()
        archive.insert(e1)
        archive.insert(e2)
        # wider: higher score, higher latency -> both stay
        assert len(archive.entries) == 2
        archive.insert(e1)  # duplicate does not displace anything
        assert len(archive.entries) == 2

    def test_pareto_insert_keeps_a_genome_once(self):
        g = preset_genome("tiny")
        entry = reference_evaluate(g, builtin_profile("t4-like"))
        archive = ParetoArchive()
        archive.insert(entry)
        # the same genome built again: an equal, not identical, object
        archive.insert(reference_evaluate(replace(g), builtin_profile("t4-like")))
        assert archive.entries == [entry]
        # another genome that ties on score and latency is a second point
        other = replace(g, input_res=(g.input_res[0] + 32, g.input_res[1]))
        archive.insert(search_module.ArchiveEntry(other, entry.score, entry.flops, entry.params, entry.latency_ms))
        assert [e.genome for e in archive.entries] == [g, other]

    @pytest.mark.parametrize("first", [0, 1])
    def test_tied_entries_keep_insertion_order(self, first):
        g = preset_genome("tiny")
        entry = reference_evaluate(g, builtin_profile("t4-like"))
        other = replace(g, input_res=(g.input_res[0] + 32, g.input_res[1]))
        tied = [entry, search_module.ArchiveEntry(other, entry.score, entry.flops, entry.params, entry.latency_ms)]
        if first:
            tied.reverse()
        archive = ParetoArchive()
        for e in tied:
            archive.insert(e)
        # equal (score, latency): no genome tie-break, evaluation order stands
        assert archive.sorted_entries() == tied
        assert archive.best is tied[0]

    def test_leaders_are_the_best_so_far(self):
        g = preset_genome("tiny")
        seed_latency = reference_evaluate(g, builtin_profile("t4-like")).latency_ms
        cfg = make_cfg(population=6, generations=12, seed=5, latency_budget_ms=1.25 * seed_latency)
        archive = search(g, cfg)
        assert len(archive.leaders) == len(archive.history) == cfg.generations + 1
        keys = [search_module._rank_key(e) for e in archive.leaders]
        assert keys == sorted(keys, reverse=True)  # never worse than the generation before
        assert archive.leaders[-1] is archive.best

    @pytest.mark.parametrize("seed", [0, 1])
    def test_archive_lists_each_genome_once(self, seed):
        # `s`, pop 16, gen 10 at 1.25x its latency: children repeat genomes
        budget = 1.25 * reference_evaluate(preset_genome("s"), builtin_profile("t4-like")).latency_ms
        archive = search(preset_genome("s"), make_cfg(population=16, generations=10,
                                                      latency_budget_ms=budget, seed=seed))
        genomes = [genome_to_json(e.genome) for e in archive.entries]
        assert len(genomes) > 1
        assert len(set(genomes)) == len(genomes)

    def test_tournament_favours_the_top_ranked_half(self, monkeypatch):
        # with mutation the identity, every child is its parent, so the share of
        # tournament children drawn from the better half shows selection by rank:
        # 1 - 0.5**2 = 0.75 for size-2 tournaments, 0.5 for a rank-blind pick
        monkeypatch.setattr(search_module, "_mutated", lambda genome, rng, cfg: genome)
        cfg = make_cfg(population=16)
        entries = sorted((reference_evaluate(single_stage_space(width=8 * (k + 1)), cfg.device_profile)
                          for k in range(16)), key=search_module._rank_key)
        assert len({e.score.value for e in entries}) == 16
        top_half = {id(e.genome) for e in entries[:8]}
        rng = random.Random(0)
        children = [child for _ in range(50)
                    for child in search_module._offspring(entries, rng, cfg)[1:]]
        share = sum(id(child) in top_half for child in children) / len(children)
        assert share >= 0.65, f"{share:.3f} of tournament children come from the top-ranked half"


def random_walk_best(seed_genome: DetectorGenome, cfg: SearchConfig, evaluations: int) -> float:
    """Best feasible score of a random walk over `evaluations` candidates, the
    seed first: each next one is `mutate` of a parent drawn uniformly from every
    feasible candidate so far, evaluated through the search's `_SegmentCache`."""
    rng = random.Random(cfg.seed)
    cache = search_module._SegmentCache(cfg.device_profile)
    feasible = [cache.evaluate(seed_genome)]
    for _ in range(evaluations - 1):
        parent = feasible[rng.randrange(len(feasible))]
        entry = cache.evaluate(mutate(parent.genome, rng, cfg))
        if entry.latency_ms <= cfg.latency_budget_ms:
            feasible.append(entry)
    return max(entry.score.value for entry in feasible)


class TestSearchQuality:
    def s_config(self, seed):
        """`s` at a budget of 1.25x its latency, pop 16, gen 10: 176 evaluations."""
        budget = 1.25 * reference_evaluate(preset_genome("s"), builtin_profile("t4-like")).latency_ms
        return make_cfg(population=16, generations=10, latency_budget_ms=budget, seed=seed)

    def test_evolution_beats_a_random_walk(self):
        # the archive keeps the best candidate ever seen, so best >= max(gen 0)
        # holds even if selection ranked candidates in reverse; a random walk
        # with as many evaluations is the baseline selection has to beat
        seed_genome = preset_genome("s")
        wins = 0
        for seed in range(10):
            cfg = self.s_config(seed)
            evaluations = cfg.population * (cfg.generations + 1)
            wins += search(seed_genome, cfg).best.score.value > random_walk_best(seed_genome, cfg, evaluations)
        assert wins >= 9, f"evolution beat the random walk in {wins} of 10 seeds"

    def test_candidates_keep_the_seed_neck_and_head(self):
        seed_genome = preset_genome("s")
        archive = search(seed_genome, self.s_config(0))
        assert len(archive.entries) > 1
        for entry in archive.entries:
            assert (entry.genome.neck, entry.genome.head) == (seed_genome.neck, seed_genome.head)


class TestSearchConfig:
    def test_from_json_minimal(self):
        cfg = SearchConfig.from_json(
            '{"population": 4, "generations": 2, "mutations_per_child": 1,'
            ' "latency_budget_ms": 5.0, "seed": 3}'
        )
        assert cfg.device_profile.name == "t4-like"
        assert cfg.mutation_ops == MUTATION_OPS

    @pytest.mark.parametrize("extra, depth", [("", 30), (', "scale_rule_depth": 4', 4)])
    def test_from_json_reads_scale_rule_depth(self, extra, depth):
        cfg = SearchConfig.from_json(
            '{"population": 4, "generations": 2, "mutations_per_child": 1,'
            f' "latency_budget_ms": 5.0, "seed": 3, "scale_rule": true{extra}}}'
        )
        assert (cfg.scale_rule, cfg.scale_rule_depth) == (True, depth)
        # tiny's stacked depth is 4: below 30 it swaps to Res, at 4 to Csp
        allowed = search_module._allowed_swap_kinds(preset_genome("tiny"), cfg)
        assert allowed == (("Res",) if depth == 30 else ("Csp",))

    def test_from_json_missing_field(self):
        with pytest.raises(ValidationError, match="population"):
            SearchConfig.from_json('{"generations": 2}')

    def test_population_floor(self):
        with pytest.raises(ValidationError):
            make_cfg(population=1)

    @pytest.mark.parametrize("field, value", [
        ("population", 4.5), ("generations", 1.5), ("mutations_per_child", 1.5), ("seed", 0.5),
        ("seed", "0"),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match="expected an integer") as err:
            make_cfg(**{field: value})
        assert err.value.path == field

    def test_budget_positive(self):
        with pytest.raises(ValidationError):
            make_cfg(latency_budget_ms=0.0)


# --- segment-cached evaluation ---------------------------------------------------


def random_genome(rng: random.Random) -> DetectorGenome:
    """A valid genome drawing every stage kind, fusion style and head depth;
    about one in four is neckless and one in four necked ones is headless."""
    width = lambda: 8 * rng.randint(1, 8)
    ratio = rng.choice((0.25, 0.5, 0.75, 1.0))
    stem = rng.choice(("Focus", "ConvBnAct"))
    blocks = [BlockSpec(stem, 3, width(), stride=2)]
    necked = rng.random() < 0.75
    downsamples = 4 if necked else rng.randint(1, 4)
    for d in range(downsamples + 1):
        for _ in range(rng.randint(0, 1)):  # stride-1 stages, some keeping their width
            kind = rng.choice(("Mob", "Res", "Csp", "ConvBnAct", "Spp"))
            out_ch = blocks[-1].out_ch if rng.random() < 0.5 else width()
            blocks.append(BlockSpec(kind, blocks[-1].out_ch, out_ch, stride=1,
                                    depth=1 if kind == "Spp" else rng.randint(1, 3),
                                    kernel=rng.choice((1, 3, 5))))
        if d < downsamples:
            kind = rng.choice(("Mob", "Res", "Csp", "ConvBnAct", "Focus"))
            blocks.append(BlockSpec(kind, blocks[-1].out_ch, width(), stride=2,
                                    depth=1 if kind == "Focus" else rng.randint(1, 3),
                                    kernel=rng.choice((1, 3))))
    neck = head = None
    if necked:
        neck = NeckConfig(depth=rng.randint(1, 2), widths=(width(), width(), width()),
                          fusion_style=rng.choice(FUSION_STYLES),
                          extra_upsample=rng.random() < 0.5, extra_downsample=rng.random() < 0.5)
        if rng.random() < 0.75:
            head = HeadConfig(head_depth=rng.randint(0, 2), reg_bins=rng.choice((4, 8, 16)))
    res = 32 * rng.randint(2, 4)
    genome = DetectorGenome(backbone=tuple(blocks), neck=neck, head=head,
                            num_classes=rng.randint(1, 6), input_res=(res, res), csp_hidden_ratio=ratio)
    genome.validate()
    return genome


def key_neighbours(genome: DetectorGenome) -> list[DetectorGenome]:
    """Genomes sharing segments with `genome` up to what only part of a segment
    key tells apart: the Csp hidden ratio, the class count, the stage index."""
    stem, *rest = genome.backbone
    spacer = BlockSpec("ConvBnAct", stem.out_ch, stem.out_ch, kernel=1)  # shifts later stages by one
    return [replace(genome, csp_hidden_ratio=genome.csp_hidden_ratio / 2),
            replace(genome, num_classes=genome.num_classes + 1),
            genome.with_backbone([stem, spacer] + rest)]


# (edit, argument, segments re-lowered when the edited `s` follows `s`): a
# mutation op is `mutate` with the argument as rng seed; the search does not
# edit the neck, so "neck_depth" adds the argument to the neck depth and
# "neck_width" widens the neck width at that index (w3, w4, w5) by 8. A segment
# is re-lowered when its arguments or its input shapes change; the neck's
# segments are its four fusion blocks
MISS_PROFILE = [
    ("deepen", 1, ["backbone.s4"]),
    ("shallow", 1, ["backbone.s4"]),
    ("swap_kind", 1, ["backbone.s1"]),
    ("widen", 2, ["backbone.s0", "backbone.s1"]),  # stage 1 reads the wider stage 0
    ("narrow", 1, ["backbone.s4", "backbone.s5"]),
    ("widen", 0, ["backbone.s3", "backbone.s4", "neck.mid4"]),  # stage 3 is the stride-16 tap
    # stage 2 is the stride-8 tap: out3 reads it, and mid4 through its dense link
    ("widen", 4, ["backbone.s2", "backbone.s3", "neck.mid4", "neck.out3"]),
    ("neck_depth", -1, ["neck.mid4", "neck.out3", "neck.out4", "neck.out5"]),
    ("neck_width", 0, ["head", "neck.out3", "neck.out4"]),  # w3: out4 reads out3
    # w4 is mid4's and out4's width, and every other block reads one of them
    ("neck_width", 1, ["head", "neck.mid4", "neck.out3", "neck.out4", "neck.out5"]),
    ("neck_width", 2, ["head", "neck.out5"]),  # w5: only out5 and the head
]


def edited(genome: DetectorGenome, edit: str, arg: int) -> DetectorGenome:
    """`genome` after one `MISS_PROFILE` edit."""
    if edit == "neck_depth":
        return replace(genome, neck=replace(genome.neck, depth=genome.neck.depth + arg))
    if edit == "neck_width":
        widths = list(genome.neck.widths)
        widths[arg] += 8
        return replace(genome, neck=replace(genome.neck, widths=tuple(widths)))
    return mutate(genome, random.Random(arg), make_cfg(mutation_ops=(edit,)))


class TestSegmentCache:
    def test_segment_evaluation_equals_full_lowering(self):
        # related genomes (mutation chains and key neighbours) so that most
        # segments are hits reached from other candidates
        rng = random.Random(0)
        profile = builtin_profile("x86-like")
        cache = search_module._SegmentCache(profile)
        cfg = make_cfg(depth_max=3)
        kinds, styles, head_depths, neckless, headless = set(), set(), set(), 0, 0
        genomes = []
        for n in range(240):
            genome = random_genome(rng) if n % 6 == 0 else mutate(genome, rng, cfg)
            genomes += [genome] + (key_neighbours(genome) if n % 6 == 0 else [])
        for genome in genomes:
            kinds.update(b.kind for b in genome.backbone)
            neckless += genome.neck is None
            if genome.neck is not None:
                styles.add(genome.neck.fusion_style)
                headless += genome.head is None
                if genome.head is not None:
                    head_depths.add(genome.head.head_depth)
            assert cache.evaluate(genome) == reference_evaluate(genome, profile), genome
        assert kinds == {"Mob", "Res", "Csp", "Focus", "Spp", "ConvBnAct"}
        assert styles == set(FUSION_STYLES) and head_depths == {0, 1, 2}
        assert neckless and headless

    def test_search_reproduces_golden_archive(self):
        # tests/golden/search_s_seed0.ndjson was written by the full lowering
        # of every candidate (tools/make_goldens.py)
        cfg = make_cfg(population=6, generations=5, latency_budget_ms=4.2, seed=0)
        got = search(preset_genome("s"), cfg).to_ndjson()
        assert got == (GOLDEN / "search_s_seed0.ndjson").read_text()

    @pytest.mark.parametrize("seed", MAKE_GOLDENS.BENCH_SEEDS)
    def test_benchmark_search_reproduces_golden_archive(self, seed):
        # the benchmark's search (s, pop 16, gen 10, budget 1.25x the seed's latency)
        cfg = SearchConfig.from_json(json.dumps(MAKE_GOLDENS.bench_search_doc(seed)))
        got = search(preset_genome("s"), cfg).to_ndjson()
        assert got == (GOLDEN / f"search_s_bench_seed{seed}.ndjson").read_text()

    @staticmethod
    def relowered(monkeypatch, seed_genome, mutant):
        """(segments whose entry `mutant` built anew after `seed_genome`, as
        names like "backbone.s4", "neck.out3" or "head"; the repeat units and
        whole segments and fusion block parts it lowered, by name prefix like
        "backbone.s4.r4" or "neck.mid4.entry"), each named from its
        `segments` or `stage_units` arguments."""
        built, lowered = [], []
        segment, lower = search_module._SegmentCache._segment, search_module._SegmentCache._lower

        def label(lower, args):
            if lower is search_module._lower_unit:
                return args[1][3]  # the unit's name prefix
            if lower is _lower_stage:
                return f"backbone.s{args[1]}"
            if lower is _fusion_entry or lower is _fusion_body:
                return f"neck.{args[0]}.{'entry' if lower is _fusion_entry else 'body'}"
            return "head" if lower is _lower_head else f"neck.{args[0]}"

        def building(self, seg, shapes):
            built.append(label(*seg[:2]))
            return segment(self, seg, shapes)

        def lowering(self, lower_fn, args, *rest):
            lowered.append(label(lower_fn, args))
            return lower(self, lower_fn, args, *rest)

        monkeypatch.setattr(search_module._SegmentCache, "_segment", building)
        monkeypatch.setattr(search_module._SegmentCache, "_lower", lowering)
        mutant.validate()
        assert mutant != seed_genome
        cache = search_module._SegmentCache(builtin_profile("t4-like"))
        cache.evaluate(seed_genome)
        built.clear()
        lowered.clear()
        cache.evaluate(mutant)
        return sorted(built), sorted(lowered)

    @pytest.mark.parametrize("edit, arg, expected", MISS_PROFILE)
    def test_mutant_relowers_only_the_segments_it_changes(self, monkeypatch, edit, arg, expected):
        seed_genome = preset_genome("s")
        built, _ = self.relowered(monkeypatch, seed_genome, edited(seed_genome, edit, arg))
        assert built == expected

    def test_deepen_lowers_no_unit(self, monkeypatch):
        # the new last repeat shares the entry of the stage's second one
        seed_genome = preset_genome("s")
        mutant = edited(seed_genome, "deepen", 1)
        assert mutant.backbone[4].kind == "Res" and mutant.backbone[4].depth == 5
        assert self.relowered(monkeypatch, seed_genome, mutant) == (["backbone.s4"], [])

    def test_shallow_lowers_no_unit(self, monkeypatch):
        seed_genome = preset_genome("s")
        mutant = edited(seed_genome, "shallow", 1)
        assert mutant.backbone[4].depth == 3
        assert self.relowered(monkeypatch, seed_genome, mutant) == (["backbone.s4"], [])

    def test_widen_relowers_only_the_first_unit_of_the_next_stage(self, monkeypatch):
        seed_genome = preset_genome("s")
        mutant = edited(seed_genome, "widen", 0)  # stage 3, Res of depth 8, the stride-16 tap
        assert mutant.backbone[3].out_ch == seed_genome.backbone[3].out_ch + 8
        built, lowered = self.relowered(monkeypatch, seed_genome, mutant)
        assert built == ["backbone.s3", "backbone.s4", "neck.mid4"]
        # stage 3's repeats 2-7 share the entry of its repeat 1, and mid4's
        # body reads its stem, whose width does not follow the tap's
        assert lowered == ["backbone.s3.r0", "backbone.s3.r1", "backbone.s4.r0", "neck.mid4.entry"]

    def test_each_segment_is_lowered_once_per_search(self, monkeypatch):
        built, lowered_parts, part_entries, looked_up, caches = [], [], [], {}, []

        class RecordingLookups(dict):
            def get(self, key, default=None):
                looked_up.setdefault(key, set()).add(caches[0].generation)
                return super().get(key, default)

        class Recording(search_module._SegmentCache):
            def __init__(self, profile):
                super().__init__(profile)
                self.entries = RecordingLookups()
                self.evaluated = 0
                caches.append(self)

            @property
            def generation(self):
                return self.evaluated // 8  # the seed and 7 mutants, then 8 children per generation

            def evaluate(self, genome):
                entry = super().evaluate(genome)
                self.evaluated += 1
                return entry

            def _segment(self, segment, shapes):
                built.append((segment, shapes))
                return super()._segment(segment, shapes)

            def _lower(self, lower, args, shapes, keep_input):
                entry = super()._lower(lower, args, shapes, keep_input)
                # each part's form: what fixes its numbers, with no name
                if lower is search_module._lower_unit:
                    unit_lower, (out_ch, kernel, stride, _) = args
                    form = unit_lower, out_ch, kernel, stride, shapes[0], keep_input
                elif lower is _fusion_entry:
                    _, resamples, width, style = args
                    form = lower, resamples, width, style, tuple(shapes)
                elif lower is _fusion_body:
                    _, width, style, depth = args
                    form = lower, width, style, depth, shapes[0]
                else:
                    return entry
                lowered_parts.append(form)
                part_entries.append(entry)
                return entry

        monkeypatch.setattr(search_module, "_SegmentCache", Recording)
        search(preset_genome("tiny"), make_cfg(population=8, generations=60, seed=5))
        [cache] = caches
        assert cache.evaluated == 8 * 61
        assert len(built) == len(set(built))
        assert set(built) == set(looked_up) == set(cache.entries)
        # each repeat unit and fusion entry and body form is lowered once,
        # however many stages, repeat positions and blocks it serves, and
        # every stored part is such a lowering
        assert len(lowered_parts) == len(set(lowered_parts)) == len(cache.units)
        assert set(lowered_parts) == set(cache.units)
        assert {id(entry) for entry in cache.units.values()} == set(map(id, part_entries))
        assert len(cache.units) < sum(len(entry.units) for entry in cache.entries.values())
        assert {form[0] for form in lowered_parts} >= {_fusion_entry, _fusion_body}
        fusion_blocks = [entry for (segment, _), entry in cache.entries.items() if segment[0] is _fusion_block]
        # a block's body outlives edits of the taps its entry reads
        assert (len({id(entry.units[1]) for entry in fusion_blocks})
                < len({id(entry.units[0]) for entry in fusion_blocks}) <= len(fusion_blocks))
        # a two-generation cache would have lowered these again: keys looked up
        # again after a generation with no lookup of them
        revisited = [key for key, gens in looked_up.items()
                     if any(g not in gens and g + 1 in gens for g in range(min(gens) + 1, max(gens)))]
        assert revisited

    def test_a_repeated_genome_returns_its_first_entry_and_lowers_nothing(self, monkeypatch):
        cache = search_module._SegmentCache(builtin_profile("t4-like"))
        first = cache.evaluate(preset_genome("s"))
        entries, units = dict(cache.entries), dict(cache.units)

        def fail(*args):
            raise AssertionError("lowered a segment of a genome seen before")

        monkeypatch.setattr(search_module._SegmentCache, "_lower", fail)
        monkeypatch.setattr(search_module, "_propagate_variance", fail)
        again = preset_genome("s")  # equal, but another object
        assert again is not first.genome
        assert cache.evaluate(again) is first
        assert cache.entries == entries and cache.units == units

    @pytest.mark.parametrize("generations, mutations, depth_max, neck", [
        (30, 1, 12, {}),
        # deep stages and two edits per child: most unit entries serve many repeats
        (60, 2, 24, {}),
        # the other fusion styles: a Conv block has an entry and no body
        (30, 1, 12, {"fusion_style": "Conv"}),
        (30, 1, 12, {"fusion_style": "Csp", "extra_upsample": True}),
        (30, 1, 12, {"fusion_style": "CspReparam"}),
    ])
    def test_long_search_equals_full_lowering(self, monkeypatch, generations, mutations, depth_max, neck):
        # 248 or 488 candidates, most of whose segments were lowered for an
        # earlier generation's candidates
        seed_genome = preset_genome("s")
        seed_genome = replace(seed_genome, neck=replace(seed_genome.neck, **neck))
        budget = 1.25 * reference_evaluate(seed_genome, builtin_profile("t4-like")).latency_ms
        cfg = make_cfg(population=8, generations=generations, mutations_per_child=mutations,
                       depth_max=depth_max, latency_budget_ms=budget, seed=3)
        got = search(seed_genome, cfg)

        class FullLowering:
            def __init__(self, profile):
                self.profile = profile

            def evaluate(self, genome):
                return reference_evaluate(genome, self.profile)

        monkeypatch.setattr(search_module, "_SegmentCache", FullLowering)
        want = search(seed_genome, cfg)
        assert got.to_ndjson() == want.to_ndjson()
        assert got.history == want.history


class TestFusionParts:
    @pytest.mark.parametrize("style", FUSION_STYLES)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("extra_upsample", [False, True])
    @pytest.mark.parametrize("extra_downsample", [False, True])
    def test_a_block_from_its_entry_and_body_equals_its_whole_lowering(self, style, depth, extra_upsample,
                                                                      extra_downsample):
        genome = preset_genome("s")
        genome = replace(genome, neck=replace(genome.neck, fusion_style=style, depth=depth,
                                              extra_upsample=extra_upsample,
                                              extra_downsample=extra_downsample))
        cache = search_module._SegmentCache(builtin_profile("x86-like"))
        gb = GraphBuilder()
        features = [gb.input((1, genome.backbone[0].in_ch, *genome.input_res))]
        blocks = 0
        for segment in segments(genome, genome.pyramid_taps()):
            lower, args, reads = segment
            if lower is _fusion_block:
                shapes = tuple(gb.shape(features[i]) for i in reads)
                whole = cache._lower(lower, args, shapes, False)
                parts = cache._segment(segment, shapes)
                assert len(parts.units) == (1 if style == "Conv" else 2)  # entry, then body
                assert (parts.latencies, parts.flops, parts.params, parts.out_shapes) == (
                    whole.latencies, whole.flops, whole.params, whole.out_shapes)
                blocks += 1
            features += lower(gb, [features[i] for i in reads], *args)
        assert blocks == 4


# name prefixes of one unit form besides backbone.s1.r1: one that extends it,
# and two that differ in their stage or repeat digits
PREFIXES = ["backbone.s1.r10", "backbone.s12.r1", "backbone.s0.r0"]


class TestUnitStore:
    def test_one_unit_entry_serves_every_repeat_position_of_its_form(self):
        cache = search_module._SegmentCache(builtin_profile("t4-like"))
        genome = preset_genome("s")
        cache.evaluate(genome)
        [stage] = [entry for (segment, _), entry in cache.entries.items()
                   if segment[0] is _lower_stage and segment[1][1] == 3]
        assert genome.backbone[3].kind == "Res" and len(stage.units) == genome.backbone[3].depth == 8
        # repeat 0 applies the stride and the width change, repeats 1-7 are one form
        assert stage.units[0] is not stage.units[1]
        assert all(unit is stage.units[1] for unit in stage.units[1:])
        assert sum(unit is stage.units[1] for unit in cache.units.values()) == 1

    @pytest.mark.parametrize("kind", ["Res", "Mob", "ConvBnAct"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("out_ch", [32, 48])  # with and without a width change
    @pytest.mark.parametrize("keep_input", [False, True])
    def test_a_unit_lowers_to_the_same_entry_under_every_prefix(self, kind, stride, out_ch, keep_input):
        # the premise of a name-free store: a unit's numbers and graph, but
        # for its node names, do not depend on its name prefix
        cache = search_module._SegmentCache(builtin_profile("x86-like"))
        shape = (1, 32, 16, 16)

        def unit(i, r):
            spec = BlockSpec(kind, 32, out_ch, stride=stride, depth=r + 1, kernel=3)
            lower, (width, kernel, _, prefix) = stage_units(spec, i)[r]
            return lower, (width, kernel, stride, prefix)  # this stride at any repeat

        first = cache._lower(search_module._lower_unit, unit(1, 1), (shape,), keep_input)
        variances = [((32, 1.0),), ((32, 2.5),), ((8, 1.0), (24, 4.0))]
        for prefix in PREFIXES:
            i, r = (int(part[1:]) for part in prefix.split(".")[1:])
            other = cache._lower(search_module._lower_unit, unit(i, r), (shape,), keep_input)
            assert other.graph.nodes[-1].name.startswith(prefix + ".")
            assert (other.latencies, other.flops, other.params, other.out_shapes) == (
                first.latencies, first.flops, first.params, first.out_shapes)
            assert [node[1:] for node in other.graph.nodes] == [node[1:] for node in first.graph.nodes]
            assert other.graph.outputs == first.graph.outputs
            for variance in variances:
                assert (search_module._output_variance(other, variance)
                        == search_module._output_variance(first, variance))

    def test_every_unit_node_is_named_under_its_prefix(self):
        # `stage_units`' contract: a unit names each node it emits under its
        # own prefix plus "."
        rng = random.Random(11)
        genomes = [preset_genome(name) for name in ("tiny", "s")] + [random_genome(rng) for _ in range(60)]
        checked = 0
        for genome in genomes:
            gb = GraphBuilder()
            x = gb.input((1, genome.backbone[0].in_ch, *genome.input_res))
            for i, spec in enumerate(genome.backbone):
                units = stage_units(spec, i)
                if not units:
                    (x,) = _lower_stage(gb, [x], spec, i, genome.csp_hidden_ratio)
                    continue
                for lower, args in units:
                    first = len(gb._nodes)
                    x = lower(gb, x, *args)
                    names = [node.name for node in gb._nodes[first:]]
                    assert names and all(name.startswith(args[3] + ".") for name in names), names
                    checked += 1
        assert checked > 100
