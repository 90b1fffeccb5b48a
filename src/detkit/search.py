"""Training-free architecture scoring and budget-constrained evolutionary search.

The default proxy needs no weights: it propagates a closed-form activation
variance through the graph (convolutions with fan-in-scaled initialization
preserve variance, residual adds sum branch variances, concats carry per-part
variances, resampling preserves variance) and scores the differential entropy
of Gaussian feature maps at the three pyramid features,
sum over scales of elements * 0.5 * ln(2*pi*e * variance). Deeper residual
stacks raise the variance term, wider pyramid features raise the element term,
and the latency budget pushes back; normalization and activation attributes
are treated as variance-transparent because the proxy tracks the linear signal
path at initialization. The proxy is scored on the multi-scale feature
extractor; fusion and head layers only enter through the cost term.

The search is a seeded (mu + lambda) elitist loop with tournament parenting.
Mutations edit the backbone only, the part the proxy scores, so every
candidate keeps the seed genome's neck and head.
Child 0 of every generation always mutates the current best, so with a
single-dimension mutation space the best genome advances every generation.
Candidates are evaluated serially in child order and evaluation is pure, so a
seed fixes the archive byte for byte.
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .cost import CostReport, DeviceProfile, builtin_profile, cost_report, cost_rows
from .errors import InfeasibleError, ValidationError
from .fields import boolean, get, integer, load_json, number, strings
from .genome import STACKED_KINDS, DetectorGenome, genome_to_doc
from .graph import GraphBuilder, OpGraph, build_graph, segments

__all__ = [
    "ProxyScore",
    "SearchConfig",
    "ArchiveEntry",
    "ParetoArchive",
    "entropy_score",
    "mutate",
    "search",
    "MUTATION_OPS",
]

log = logging.getLogger("detkit.search")


@dataclass(frozen=True)
class ProxyScore:
    """Proxy value (higher is better) and its per-pyramid-scale contributions."""

    value: float
    per_scale: tuple[float, ...]


# --- variance propagation ----------------------------------------------------


def _merge_segments(segs):
    out = []
    for ch, v in segs:
        if out and out[-1][1] == v:
            out[-1] = (out[-1][0] + ch, v)
        else:
            out.append((ch, v))
    return out


def _refine_pair(a, b):
    """Split two segment lists over the same channel count to common boundaries."""
    res_a, res_b = [], []
    ia = ib = 0
    ca, va = a[0]
    cb, vb = b[0]
    while True:
        take = min(ca, cb)
        res_a.append((take, va))
        res_b.append((take, vb))
        ca -= take
        cb -= take
        if ca == 0:
            ia += 1
            if ia == len(a):
                break
            ca, va = a[ia]
        if cb == 0:
            ib += 1
            if ib == len(b):
                break
            cb, vb = b[ib]
    return res_a, res_b


def _mean_variance(segs) -> float:
    """Channel-weighted mean variance of a segment list.

    A single segment `(ch, v)` gives `ch * v / ch`, the same float as the two
    sums: a one-term `sum` adds its term to 0 and has nothing to round, or to
    compensate on Pythons whose float `sum` is compensated.
    """
    if len(segs) == 1:
        ch, v = segs[0]
        return ch * v / ch
    total = sum(ch for ch, _ in segs)
    return sum(ch * v for ch, v in segs) / total


def _propagate_variance(graph: OpGraph, input_segments=None) -> list[list[tuple[int, float]]]:
    """Variance segments of every node up to the last scored one, indexed by
    node id. Input nodes start at unit variance, or at `input_segments` when a
    segment graph's placeholder stands for a feature computed elsewhere.

    Most states are one segment: a conv folds its input into one, and only a
    concat of parts with different variances (a Csp stage's `[y, bypass]`)
    makes more. An add of two one-segment states is their one sum
    `[(ch, va + vb)]`, the float that splitting both to common boundaries
    would add; other adds and every concat go through the segment lists.
    Nodes are visited through `graph.topo_order()`, the graph's one
    dependency order, rather than over `graph.nodes`: perfbench's traced run
    counts its calls as the graph walks a workload makes.
    """
    # ids are dependency order, so no node after the last tap reaches a tap
    stop = max(graph.pyramid or graph.outputs) + 1
    nodes = graph.nodes
    state: list[list[tuple[int, float]]] = []
    for nid in graph.topo_order()[:stop]:
        n = nodes[nid]
        kind = n.kind
        if kind == "conv":
            # fan-in-scaled init mixes all input channels into a uniform variance
            state.append([(n.out_shape[1], _mean_variance(state[n.inputs[0]]))])
        elif kind == "add":
            acc = state[n.inputs[0]]
            for src in n.inputs[1:]:
                other = state[src]
                if len(acc) == 1 and len(other) == 1:
                    acc = [(acc[0][0], acc[0][1] + other[0][1])]
                else:
                    acc, other = _refine_pair(acc, other)
                    acc = [(ch, va + vb) for (ch, va), (_, vb) in zip(acc, other)]
            # a one-segment sum built above is merged already
            state.append(acc if len(acc) == 1 and len(n.inputs) > 1 else _merge_segments(acc))
        elif kind == "input":
            state.append(input_segments or [(n.out_shape[1], 1.0)])
        elif kind == "concat":
            segs = []
            for src in n.inputs:
                segs.extend(state[src])
            state.append(_merge_segments(segs))
        elif kind == "space_to_depth":
            state.append(_merge_segments(list(state[n.inputs[0]]) * 4))
        elif kind in ("upsample", "maxpool"):
            state.append(state[n.inputs[0]])
        else:
            raise ValidationError(f"no variance rule for node kind {kind!r}")
    return state


def entropy_score(graph: OpGraph) -> ProxyScore:
    """Score an initialized graph without training.

    Contributions are taken at the graph's pyramid nodes (the designated
    multi-scale features), falling back to the outputs for graphs with no
    pyramid.
    """
    taps = graph.pyramid or graph.outputs
    if not taps:
        raise ValidationError("graph has no designated outputs to score")
    state = _propagate_variance(graph)
    return _proxy((graph.nodes[nid], state[nid]) for nid in taps)


def _proxy(pairs) -> ProxyScore:
    """The proxy over (scored node, its variance segments) pairs, one per scale."""
    per_scale = tuple(_scale_entropy(node, segments) for node, segments in pairs)
    return ProxyScore(value=sum(per_scale), per_scale=per_scale)


def _scale_entropy(node, segments) -> float:
    """Differential entropy of one Gaussian feature map with these variance segments."""
    b, c, h, wdt = node.out_shape
    if node.out_elements == 0:
        raise ValidationError(f"{node.name}: zero-element output cannot be scored")
    contrib = 0.0
    for ch, v in segments:
        contrib += ch * b * h * wdt * 0.5 * math.log(2.0 * math.pi * math.e * v)
    return contrib


# --- mutation ------------------------------------------------------------------

MUTATION_OPS = ("widen", "narrow", "deepen", "shallow", "swap_kind")

_DEPTH_KINDS = STACKED_KINDS + ("ConvBnAct",)

_MUTATION_DRAWS = 16


@dataclass(frozen=True)
class SearchConfig:
    """Search hyperparameters. The mutation space bounds quantize widths to
    multiples of width_step so channel counts stay well formed."""

    population: int
    generations: int
    mutations_per_child: int
    latency_budget_ms: float
    seed: int
    device_profile: DeviceProfile
    mutation_ops: tuple[str, ...] = MUTATION_OPS
    width_step: int = 8
    width_min: int = 16
    width_max: int = 1024
    depth_max: int = 12
    scale_rule: bool = False
    scale_rule_depth: int = 30
    tournament_size: int = 2

    def __post_init__(self):
        for name in ("population", "generations", "mutations_per_child", "seed", "width_step",
                     "width_min", "width_max", "depth_max", "scale_rule_depth", "tournament_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"expected an integer, got {value!r}", path=name)
        if self.population < 2:
            raise ValidationError("population must be >= 2", path="population")
        if self.generations < 0:
            raise ValidationError("generations must be >= 0", path="generations")
        if self.mutations_per_child < 1:
            raise ValidationError("mutations_per_child must be >= 1", path="mutations_per_child")
        if not self.latency_budget_ms > 0:
            raise ValidationError("latency_budget_ms must be > 0", path="latency_budget_ms")
        if not self.mutation_ops:
            raise ValidationError("at least one mutation op is required", path="mutation_ops")
        unknown = [op for op in self.mutation_ops if op not in MUTATION_OPS]
        if unknown:
            raise ValidationError(f"unknown mutation ops {unknown}", path="mutation_ops")
        if self.width_step < 1:
            raise ValidationError("width_step must be >= 1", path="width_step")
        if not 1 <= self.width_min <= self.width_max:
            raise ValidationError("need 1 <= width_min <= width_max", path="width_min")
        if self.depth_max < 1:
            raise ValidationError("depth_max must be >= 1", path="depth_max")
        if self.tournament_size < 1:
            raise ValidationError("tournament_size must be >= 1", path="tournament_size")

    @staticmethod
    def from_json(text: str) -> "SearchConfig":
        doc = load_json(text, "config")
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        profile = get(doc, "device_profile", default="t4-like")
        return SearchConfig(
            population=integer(doc, "population"),
            generations=integer(doc, "generations"),
            mutations_per_child=integer(doc, "mutations_per_child"),
            # "inf", null or an infinite float mean no budget
            latency_budget_ms=(math.inf if get(doc, "latency_budget_ms") in ("inf", None, math.inf)
                               else number(doc, "latency_budget_ms")),
            seed=integer(doc, "seed"),
            device_profile=(builtin_profile(profile) if isinstance(profile, str)
                            else DeviceProfile.from_doc(profile, "device_profile")),
            mutation_ops=tuple(strings(doc, "mutation_ops", default=list(MUTATION_OPS))),
            width_step=integer(doc, "width_step", default=SearchConfig.width_step),
            width_min=integer(doc, "width_min", default=SearchConfig.width_min),
            width_max=integer(doc, "width_max", default=SearchConfig.width_max),
            depth_max=integer(doc, "depth_max", default=SearchConfig.depth_max),
            scale_rule=boolean(doc, "scale_rule", default=SearchConfig.scale_rule),
            scale_rule_depth=integer(doc, "scale_rule_depth", default=SearchConfig.scale_rule_depth),
            tournament_size=integer(doc, "tournament_size", default=SearchConfig.tournament_size),
        )


def _stacked_depth(genome: DetectorGenome) -> int:
    return sum(b.depth for b in genome.backbone if b.kind in STACKED_KINDS)


def _allowed_swap_kinds(genome: DetectorGenome, cfg: SearchConfig) -> tuple[str, ...]:
    if not cfg.scale_rule:
        return STACKED_KINDS
    # residual blocks for small genomes, cross-stage partial for deep ones
    return ("Res",) if _stacked_depth(genome) < cfg.scale_rule_depth else ("Csp",)


def _repair_chain(blocks: list) -> list:
    """Forward repair: every consumer adopts its producer's width."""
    repaired = [blocks[0]]
    for b in blocks[1:]:
        prev_out = repaired[-1].out_ch
        repaired.append(replace(b, in_ch=prev_out) if b.in_ch != prev_out else b)
    return repaired


def _try_mutation(genome: DetectorGenome, op: str, rng: random.Random,
                  cfg: SearchConfig) -> DetectorGenome | None:
    blocks = list(genome.backbone)
    if op in ("widen", "narrow"):
        i = rng.randrange(len(blocks))
        step = cfg.width_step if op == "widen" else -cfg.width_step
        new_w = blocks[i].out_ch + step
        if not cfg.width_min <= new_w <= cfg.width_max:
            return None
        blocks[i] = replace(blocks[i], out_ch=new_w)
        return genome.with_backbone(_repair_chain(blocks))
    if op in ("deepen", "shallow"):
        candidates = [i for i, b in enumerate(blocks) if b.kind in _DEPTH_KINDS]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        new_d = blocks[i].depth + (1 if op == "deepen" else -1)
        if not 1 <= new_d <= cfg.depth_max:
            return None
        blocks[i] = replace(blocks[i], depth=new_d)
        return genome.with_backbone(blocks)
    if op == "swap_kind":
        candidates = [i for i, b in enumerate(blocks) if b.kind in STACKED_KINDS]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        options = [k for k in _allowed_swap_kinds(genome, cfg) if k != blocks[i].kind]
        if not options:
            return None
        blocks[i] = replace(blocks[i], kind=options[rng.randrange(len(options))])
        return genome.with_backbone(blocks)
    raise ValidationError(f"unknown mutation op {op!r}")


def mutate(genome: DetectorGenome, rng: random.Random,
           cfg: SearchConfig | None = None) -> DetectorGenome:
    """Apply one random structural edit to the backbone and re-validate.

    Infeasible draws (out-of-bounds widths or depths, no legal kind swap) are
    resampled up to `_MUTATION_DRAWS` times; if everything fails the genome is
    returned unchanged.
    """
    if cfg is None:
        cfg = _DEFAULT_MUTATION_CFG
    ops = cfg.mutation_ops
    for _ in range(_MUTATION_DRAWS):
        op = ops[rng.randrange(len(ops))]
        mutated = _try_mutation(genome, op, rng, cfg)
        if mutated is None:
            continue
        try:
            mutated.validate()
        except ValidationError:
            continue
        return mutated
    return genome


_DEFAULT_MUTATION_CFG = SearchConfig(
    population=2, generations=0, mutations_per_child=1,
    latency_budget_ms=math.inf, seed=0,
    device_profile=builtin_profile("t4-like"),
)


# --- archive -------------------------------------------------------------------


@dataclass(frozen=True)
class ArchiveEntry:
    genome: DetectorGenome
    score: ProxyScore
    cost: CostReport

    @property
    def latency_ms(self) -> float:
        return self.cost.latency_ms

    def to_record(self) -> dict:
        return {
            "genome": genome_to_doc(self.genome),
            "score": self.score.value,
            "per_scale": list(self.score.per_scale),
            "flops": self.cost.flops,
            "params": self.cost.params,
            "latency_ms": self.cost.latency_ms,
        }


def _rank_key(entry: ArchiveEntry):
    """The one ranking rule: score descending, then latency ascending."""
    return (-entry.score.value, entry.latency_ms)


def _dominates(a: ArchiveEntry, b: ArchiveEntry) -> bool:
    return (a.score.value >= b.score.value and a.latency_ms <= b.latency_ms
            and (a.score.value > b.score.value or a.latency_ms < b.latency_ms))


@dataclass
class ParetoArchive:
    """Mutually non-dominated (score up, latency down) feasible entries, in
    evaluation order, and per generation the search's leader: the best
    feasible entry so far by `_rank_key`."""

    entries: list[ArchiveEntry] = field(default_factory=list)
    history: list[list[tuple[float, float, bool]]] = field(default_factory=list)
    leaders: list[ArchiveEntry] = field(default_factory=list)

    def insert(self, entry: ArchiveEntry) -> None:
        for kept in self.entries:
            if _dominates(kept, entry):
                return
            # a genome seen again scores and costs the same: keep it once
            if (kept.score.value == entry.score.value and kept.latency_ms == entry.latency_ms
                    and kept.genome == entry.genome):
                return
        self.entries = [kept for kept in self.entries if not _dominates(entry, kept)]
        self.entries.append(entry)

    def sorted_entries(self) -> list[ArchiveEntry]:
        # a stable sort: entries with an equal (score, latency) pair keep evaluation order
        return sorted(self.entries, key=_rank_key)

    @property
    def best(self) -> ArchiveEntry:
        if not self.entries:
            raise InfeasibleError("archive is empty")
        return min(self.entries, key=_rank_key)

    def to_ndjson(self) -> str:
        lines = [json.dumps(e.to_record(), sort_keys=True) for e in self.sorted_entries()]
        return "\n".join(lines) + "\n"


# --- search loop ------------------------------------------------------------------


def evaluate_genome(genome: DetectorGenome, profile: DeviceProfile) -> ArchiveEntry:
    """Pure candidate evaluation: lower the whole genome, score, cost. `search`
    reaches the same entry segment by segment (`_SegmentCache`)."""
    graph = build_graph(genome)
    score = entropy_score(graph)
    cost = cost_report(graph, profile)
    return ArchiveEntry(genome=genome, score=score, cost=cost)


class _Segment(NamedTuple):
    """One lowered segment: its graph, cost rows with their latencies, FLOP and
    parameter sums, output shapes, and a stage's proxy output variance per
    input variance, filled in as the search meets each."""

    graph: OpGraph
    rows: list
    latencies: list
    flops: int
    params: int
    out_shapes: tuple
    variances: dict


class _SegmentCache:
    """Candidate evaluation for one search, one segment at a time.

    A candidate's cost rows and proxy come from its `segments`. Each is looked
    up by the segment and its input shapes; a miss lowers only that segment,
    on placeholder inputs of those shapes. A stage's proxy variance is looked
    up in its segment's entry by the stage's input variance. Rows and their
    latencies are concatenated in `build_graph`'s order and the latencies
    summed in that order, while FLOPs and parameters are exact integer sums of
    the per-segment sums, so the result equals `evaluate_genome`'s exactly. A
    genome seen before returns its first entry.

    Nothing is evicted: `entries` holds every segment and `genomes` every
    candidate met in the search, so memory grows with the distinct segments
    and genomes it evaluates, as `ParetoArchive.history` does with its length.
    """

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        self.entries: dict = {}
        self.genomes: dict = {}

    def _lower(self, segment, shapes) -> _Segment:
        """Lower one segment on placeholder inputs of these shapes. Of the
        placeholders, only feature 0 (the graph input) keeps its cost row."""
        lower, args, reads = segment
        gb = GraphBuilder()
        graph = gb.finish(outputs=lower(gb, [gb.input(shape) for shape in shapes], *args))
        rows = cost_rows(graph, self.profile)
        if reads != (0,):
            rows = rows[len(shapes):]
        return _Segment(graph, rows, [r.latency_ms for r in rows], sum(r.flops for r in rows),
                        sum(r.params for r in rows),
                        tuple(graph.nodes[nid].out_shape for nid in graph.outputs), {})

    def evaluate(self, genome: DetectorGenome) -> ArchiveEntry:
        entry = self.genomes.get(genome)
        if entry is not None:
            return entry
        entries = self.entries
        rows, latencies, flops, params = [], [], 0, 0
        shapes = [(1, genome.backbone[0].in_ch, *genome.input_res)]  # one per feature
        variance = ((shapes[0][1], 1.0),)
        stage_out = []  # (output node, its variance segments) per stage
        stages, taps = len(genome.backbone), genome.pyramid_taps()
        for k, segment in enumerate(segments(genome, taps)):
            key = segment, tuple([shapes[i] for i in segment[2]])
            found = entries.get(key)
            if found is None:
                found = entries[key] = self._lower(*key)
            graph, seg_rows, seg_latencies, seg_flops, seg_params, out_shapes, variances = found
            rows += seg_rows
            latencies += seg_latencies
            flops += seg_flops
            params += seg_params
            shapes += out_shapes
            if k < stages:  # the stages come first
                out = graph.outputs[0]
                in_variance = variance
                variance = variances.get(in_variance)
                if variance is None:
                    variance = variances[in_variance] = tuple(
                        _propagate_variance(graph, in_variance)[out])
                stage_out.append((graph.nodes[out], variance))

        entry = self.genomes[genome] = ArchiveEntry(
            genome=genome, score=_proxy(stage_out[i] for i in taps or (stages - 1,)),
            cost=CostReport(flops, params, sum(latencies), tuple(rows)))
        return entry


def _mutated(genome: DetectorGenome, rng: random.Random, cfg: SearchConfig) -> DetectorGenome:
    for _ in range(cfg.mutations_per_child):
        genome = mutate(genome, rng, cfg)
    return genome


def _offspring(population: list[ArchiveEntry], rng: random.Random,
               cfg: SearchConfig) -> list[DetectorGenome]:
    """Child 0 mutates the current best, the others a tournament winner."""
    children = [_mutated(population[0].genome, rng, cfg)]
    for _ in range(1, cfg.population):
        contestants = [population[rng.randrange(len(population))]
                       for _ in range(cfg.tournament_size)]
        children.append(_mutated(min(contestants, key=_rank_key).genome, rng, cfg))
    return children


def search(seed_genome: DetectorGenome, cfg: SearchConfig) -> ParetoArchive:
    """Run the seeded evolutionary loop and return the feasible Pareto archive.

    The archive's `best` property is the single best-score feasible genome;
    `history` records (score, latency, feasible) per evaluated candidate per
    generation, generation 0 being the initial population, and `leaders` the
    best feasible entry so far after each generation. Candidates are
    evaluated segment by segment (each backbone stage, four neck fusion
    blocks, the head), and each segment is lowered once per search: one
    whose arguments and input shapes were seen earlier in the search, in any
    generation, is reused. So `widen` re-lowers at most its stage, the next,
    whose input width follows, and the fusion blocks that read it if it is a
    pyramid tap; a change of a neck width in the genome re-lowers at most the
    blocks of that width, those that read them, and the head. A genome seen
    before in the search is not evaluated again. Results equal
    `evaluate_genome`'s exactly; memory grows with the distinct segments and
    genomes the search evaluates.
    """
    seed_genome.validate()
    rng = random.Random(cfg.seed)
    cache = _SegmentCache(cfg.device_profile)

    seed_entry = cache.evaluate(seed_genome)
    if seed_entry.latency_ms > cfg.latency_budget_ms:
        raise InfeasibleError(
            f"seed genome is infeasible: latency {seed_entry.latency_ms:.4f} ms "
            f"> budget {cfg.latency_budget_ms:.4f} ms"
        )

    archive = ParetoArchive()
    population: list[ArchiveEntry] = []
    entries = [seed_entry] + [cache.evaluate(_mutated(seed_genome, rng, cfg))
                              for _ in range(cfg.population - 1)]
    for gen in range(cfg.generations + 1):
        if gen > 0:
            entries = [cache.evaluate(g) for g in _offspring(population, rng, cfg)]
        record = []
        for entry in entries:
            feasible = entry.latency_ms <= cfg.latency_budget_ms
            record.append((entry.score.value, entry.latency_ms, feasible))
            if feasible:
                population.append(entry)
                archive.insert(entry)
        archive.history.append(record)
        # the feasible seed keeps generation 0, and so every later one, non-empty
        population.sort(key=_rank_key)
        del population[cfg.population:]
        # selection is elitist, so the head is the best feasible entry so far
        archive.leaders.append(population[0])
        log.info("generation=%d best_score=%.6f best_latency_ms=%.4f",
                 gen, population[0].score.value, population[0].latency_ms)
    return archive
