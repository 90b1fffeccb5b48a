import math
import random
from dataclasses import replace

import pytest

from detkit.cost import builtin_profile
from detkit.errors import InfeasibleError, ValidationError
from detkit.genome import BlockSpec, DetectorGenome, preset_genome
from detkit.graph import GraphBuilder, OpGraph, build_graph
from detkit.search import (
    MUTATION_OPS,
    ParetoArchive,
    SearchConfig,
    entropy_score,
    evaluate_genome,
    mutate,
    search,
)

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


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
    def test_identity_graph_closed_form(self):
        gb = GraphBuilder()
        x = gb.input((1, 64, 20, 20))
        y = gb.identity(x, name="id")
        g = gb.finish(outputs=(y,))
        score = entropy_score(g)
        assert score.value == pytest.approx(64 * 400 * 0.5 * LOG_2PI_E, rel=1e-12)
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
        expected = el * 0.5 * LOG_2PI_E + el * 0.5 * (LOG_2PI_E + math.log(2.0))
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

    def test_deterministic_and_reorder_invariant(self):
        graph = build_graph(preset_genome("tiny"))
        permuted = OpGraph(nodes=tuple(reversed(graph.nodes)), outputs=graph.outputs,
                           pyramid=graph.pyramid)
        s1 = entropy_score(graph)
        s2 = entropy_score(graph)
        s3 = entropy_score(permuted)
        assert s1 == s2 == s3

    def test_value_is_sum_of_per_scale(self):
        score = entropy_score(build_graph(preset_genome("tiny")))
        assert len(score.per_scale) == 3
        assert score.value == pytest.approx(sum(score.per_scale), rel=1e-12)

    def test_scale_weights(self):
        graph = build_graph(preset_genome("tiny"))
        base = entropy_score(graph)
        weighted = entropy_score(graph, scale_weights=(2.0, 1.0, 0.0))
        assert weighted.per_scale[0] == pytest.approx(2 * base.per_scale[0])
        assert weighted.per_scale[2] == 0.0
        with pytest.raises(ValidationError):
            entropy_score(graph, scale_weights=(1.0,))


class TestMutate:
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

    def test_swap_kind_respects_scale_rule_small(self):
        g = preset_genome("tiny")  # total stacked depth 4 -> residual rule
        cfg = make_cfg(mutation_ops=("swap_kind",), scale_rule=True)
        rng = random.Random(1)
        seen = set()
        for _ in range(50):
            m = mutate(g, rng, cfg)
            for old, new in zip(g.backbone, m.backbone):
                if old.kind != new.kind:
                    seen.add(new.kind)
        assert seen <= {"Res"}

    def test_swap_kind_respects_scale_rule_deep(self):
        g = preset_genome("s")  # total stacked depth 19
        deep = g.with_backbone(
            replace(b, depth=b.depth * 2) if b.kind == "Res" else b for b in g.backbone
        )
        cfg = make_cfg(mutation_ops=("swap_kind",), scale_rule=True)
        rng = random.Random(2)
        seen = set()
        for _ in range(50):
            m = mutate(deep, rng, cfg)
            for old, new in zip(deep.backbone, m.backbone):
                if old.kind != new.kind:
                    seen.add(new.kind)
        assert seen == {"Csp"}

    def test_neck_mutations(self):
        g = preset_genome("tiny")
        cfg = make_cfg(mutation_ops=("neck_width", "neck_depth"), depth_max=4)
        rng = random.Random(3)
        changed_width = changed_depth = False
        for _ in range(100):
            m = mutate(g, rng, cfg)
            m.validate()
            if m.neck.widths != g.neck.widths:
                changed_width = True
            if m.neck.depth != g.neck.depth:
                changed_depth = True
        assert changed_width and changed_depth


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
        seed_latency = evaluate_genome(g, builtin_profile("t4-like")).latency_ms
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
        scored = [(evaluate_genome(g, cfg.device_profile).score.value, g) for g in reachable]
        best_score, best_genome = max(scored, key=lambda t: t[0])
        assert archive.best.genome == best_genome
        assert archive.best.score.value == pytest.approx(best_score)

    def test_pareto_insert_keeps_nondominated(self):
        g = preset_genome("tiny")
        e1 = evaluate_genome(g, builtin_profile("t4-like"))
        wider = g.with_backbone(
            replace(b, out_ch=b.out_ch + 8) if i == len(g.backbone) - 1 else b
            for i, b in enumerate(g.backbone)
        )
        e2 = evaluate_genome(wider, builtin_profile("t4-like"))
        archive = ParetoArchive()
        archive.insert(e1)
        archive.insert(e2)
        # wider: higher score, higher latency -> both stay
        assert len(archive.entries) == 2
        archive.insert(e1)  # duplicate does not displace anything
        assert len(archive.entries) <= 3


class TestSearchConfig:
    def test_from_json_minimal(self):
        cfg = SearchConfig.from_json(
            '{"population": 4, "generations": 2, "mutations_per_child": 1,'
            ' "latency_budget_ms": 5.0, "seed": 3}'
        )
        assert cfg.device_profile.name == "t4-like"
        assert cfg.mutation_ops == MUTATION_OPS

    def test_from_json_missing_field(self):
        with pytest.raises(ValidationError, match="population"):
            SearchConfig.from_json('{"generations": 2}')

    def test_population_floor(self):
        with pytest.raises(ValidationError):
            make_cfg(population=1)

    def test_budget_positive(self):
        with pytest.raises(ValidationError):
            make_cfg(latency_budget_ms=0.0)
