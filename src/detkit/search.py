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
from dataclasses import dataclass, field
from typing import NamedTuple

# `build_graph` and `cost_report` are not called here but stay module attributes,
# where the benchmark's tracer wraps them (perfbench/spans.py)
from .cost import DeviceProfile, _latency_cell, builtin_profile, cost_report, cost_rows, fold_sum
from .errors import InfeasibleError, ValidationError
from .fields import boolean, get, integer, load_json, number, strings
from .genome import MAX_CHANNELS, MAX_DEPTH, STACKED_KINDS, BlockSpec, DetectorGenome, genome_to_doc
from .graph import GraphBuilder, OpGraph, build_graph, neck_segments, stage_segments

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

    A single segment `(ch, v)` gives `ch * v / ch`, the same float as the
    fold: a one-term fold adds its term to 0 and has nothing to round.
    """
    if len(segs) == 1:
        ch, v = segs[0]
        return ch * v / ch
    total = sum(ch for ch, _ in segs)
    return fold_sum(ch * v for ch, v in segs) / total


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
    nodes = graph.nodes
    for nid in taps:
        if nodes[nid].out_elements == 0:
            raise ValidationError(f"{nodes[nid].name}: zero-element output cannot be scored")
    state = _propagate_variance(graph)
    return _proxy((nodes[nid].out_shape, state[nid]) for nid in taps)


def _proxy(pairs) -> ProxyScore:
    """The proxy over (scored output shape, its variance segments) pairs, one per scale."""
    per_scale = tuple(_scale_entropy(shape, segments) for shape, segments in pairs)
    return ProxyScore(value=fold_sum(per_scale), per_scale=per_scale)


def _scale_entropy(shape, segments) -> float:
    """Differential entropy of one Gaussian feature map of this shape with
    these variance segments."""
    b, _, h, wdt = shape
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


def _edit(genome: DetectorGenome, op: str, rng: random.Random, cfg: SearchConfig) -> list | None:
    """One draw of `op` on a valid genome: the edited backbone, or None when
    the draw is out of bounds or has nothing to edit. The bounds are the
    config's, capped at the genome's own maxima, so every edit returned is
    valid. A width edit also sets the next stage's in_ch, so the chain holds."""
    blocks = list(genome.backbone)
    if op in ("widen", "narrow"):
        i = rng.randrange(len(blocks))
        b = blocks[i]
        new_w = b.out_ch + (cfg.width_step if op == "widen" else -cfg.width_step)
        if not cfg.width_min <= new_w <= min(cfg.width_max, MAX_CHANNELS):
            return None
        blocks[i] = BlockSpec(b.kind, b.in_ch, new_w, b.stride, b.depth, b.kernel)
        if i + 1 < len(blocks):
            c = blocks[i + 1]
            blocks[i + 1] = BlockSpec(c.kind, new_w, c.out_ch, c.stride, c.depth, c.kernel)
        return blocks
    if op in ("deepen", "shallow"):
        candidates = [i for i, b in enumerate(blocks) if b.kind in _DEPTH_KINDS]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        b = blocks[i]
        new_d = b.depth + (1 if op == "deepen" else -1)
        if not 1 <= new_d <= min(cfg.depth_max, MAX_DEPTH):
            return None
        blocks[i] = BlockSpec(b.kind, b.in_ch, b.out_ch, b.stride, new_d, b.kernel)
        return blocks
    if op == "swap_kind":
        candidates = [i for i, b in enumerate(blocks) if b.kind in STACKED_KINDS]
        if not candidates:
            return None
        i = candidates[rng.randrange(len(candidates))]
        b = blocks[i]
        options = [k for k in _allowed_swap_kinds(genome, cfg) if k != b.kind]
        if not options:
            return None
        blocks[i] = BlockSpec(options[rng.randrange(len(options))], b.in_ch, b.out_ch, b.stride, b.depth,
                              b.kernel)
        return blocks
    raise ValidationError(f"unknown mutation op {op!r}")


def mutate(genome: DetectorGenome, rng: random.Random,
           cfg: SearchConfig | None = None) -> DetectorGenome:
    """Apply one random structural edit to the backbone of a valid genome.

    Infeasible draws (out-of-bounds widths or depths, no legal kind swap) are
    resampled up to `_MUTATION_DRAWS` times; if everything fails the genome
    is returned unchanged. The bounds are the one legality rule: a
    `width_max` above 65536 channels or a `depth_max` above 1024 acts as
    that genome maximum. An edit within them keeps the strides, kernels,
    channel chain, neck and head, and swaps only among Mob/Res/Csp, so a
    valid genome stays valid unchecked. The input must be valid (`search`
    validates its seed, and every child is a mutant of it).
    """
    if cfg is None:
        cfg = _DEFAULT_MUTATION_CFG
    ops = cfg.mutation_ops
    for _ in range(_MUTATION_DRAWS):
        blocks = _edit(genome, ops[rng.randrange(len(ops))], rng, cfg)
        if blocks is not None:
            return genome.with_backbone(blocks)
    return genome


_DEFAULT_MUTATION_CFG = SearchConfig(
    population=2, generations=0, mutations_per_child=1,
    latency_budget_ms=math.inf, seed=0,
    device_profile=builtin_profile("t4-like"),
)


# --- archive -------------------------------------------------------------------


@dataclass(frozen=True)
class ArchiveEntry:
    """A scored and costed genome: its proxy score and the totals of its
    `cost_report`. The per-node rows are `cost_report(build_graph(genome), profile)`."""

    genome: DetectorGenome
    score: ProxyScore
    flops: int
    params: int
    latency_ms: float

    def to_record(self) -> dict:
        return {
            "genome": genome_to_doc(self.genome),
            "score": self.score.value,
            "per_scale": list(self.score.per_scale),
            "flops": self.flops,
            "params": self.params,
            "latency_ms": self.latency_ms,
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


class _Segment(NamedTuple):
    """One lowered part or composed segment: its cost rows' latencies in
    lowering order, FLOP and parameter sums, output shapes, and a stage's
    or part's proxy output variance per input variance, filled in as the
    search meets each. A lowered part holds its graph and no units; a
    segment of several parts holds their entries in order and no graph.
    Nothing in it depends on node names, so one part entry serves every
    position of its form."""

    latencies: list
    flops: int
    params: int
    out_shapes: tuple
    graph: OpGraph | None
    units: tuple
    variances: dict


def _output_variance(entry: _Segment, in_variance: tuple) -> tuple:
    """A stage's or part's output variance segments for this input variance,
    memoised in its entry. A composed stage chains its parts' own memos: each
    part's output is the next one's input, as in the stage's one graph."""
    variance = entry.variances.get(in_variance)
    if variance is None:
        if entry.units:
            variance = in_variance
            for unit in entry.units:
                variance = _output_variance(unit, variance)
        else:
            graph = entry.graph
            variance = tuple(_propagate_variance(graph, in_variance)[graph.outputs[0]])
        entry.variances[in_variance] = variance
    return variance


class _SegmentCache:
    """Candidate evaluation for one search, one segment at a time.

    A candidate's cost totals and proxy come from its `segments`: its own
    stage segments, then the neck's and head's, which `necks` builds once per
    neck, head, class count, taps and stage count, so in a search they are
    the same objects for every candidate. Each segment is looked up in
    `entries` by the segment and its input shapes. On a miss, it is composed
    from its parts (`graph.segments`: a Res, Mob or ConvBnAct stage's repeat
    units, a Csp, Spp or Focus stage whole, a fusion block's entry and body,
    the head), each looked up in a second store, `units`, by its form: its
    lowering, its arguments, its input shapes and whether it keeps its input
    row (only the first part of stage 0, which reads the graph input, does).
    A miss there lowers the part on placeholder inputs. A part's name prefix
    is not in its form and its entry holds no names, so one entry serves
    every position of its form: `deepen` of a stage of depth >= 2 and
    `shallow` lower no part, `widen` lowers its own stage's first two units
    and the next stage's first, and a widened pyramid tap re-lowers the
    entries of the blocks that read it, not their bodies. A one-part
    segment's entry is its part. A stage's proxy variance is looked up in
    its entry by the stage's input variance, and a miss there chains through
    its parts' own memos; fusion blocks do not enter the proxy.
    Latencies are added one by one in `build_graph`'s order, while FLOPs and
    parameters are exact integer sums of the per-segment and per-part sums,
    so the result equals that of lowering, scoring and costing the whole
    genome (`reference_evaluate` in tests/test_search.py) exactly. A genome
    seen before returns its first entry.

    Nothing is evicted: `entries`, `units`, `necks` and `genomes` hold every
    segment, part, neck and candidate met in the search, so memory grows
    with the distinct ones it evaluates, as `ParetoArchive.history` does
    with its length.
    """

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        self.entries: dict = {}
        self.units: dict = {}
        self.necks: dict = {}
        self.genomes: dict = {}

    def _lower(self, lower, prefix: str, args, shapes, keep_input: bool) -> _Segment:
        """Lower the part `lower(gb, inputs, prefix, *args)` on placeholder
        inputs of these shapes. The placeholders keep their cost rows only
        when `keep_input`: the one input is then the graph input."""
        gb = GraphBuilder()
        graph = gb.finish(outputs=lower(gb, [gb.input(shape) for shape in shapes], prefix, *args))
        rows = cost_rows(graph, self.profile)
        if not keep_input:
            rows = rows[len(shapes):]
        nodes = graph.nodes
        return _Segment([r.latency_ms for r in rows], sum(r.flops for r in rows), sum(r.params for r in rows),
                        tuple([nodes[nid].out_shape for nid in graph.outputs]), graph, (), {})

    def _segment(self, segment, shapes) -> _Segment:
        """The entry of a segment on inputs of these shapes, not yet in
        `entries`: its parts chained from the `units` store."""
        parts_of, args, reads = segment
        keep_input = reads == (0,)
        units = self.units
        parts = []
        for lower, prefix, part_args in parts_of(*args):
            key = lower, part_args, shapes, keep_input
            part = units.get(key)
            if part is None:
                part = units[key] = self._lower(lower, prefix, part_args, shapes, keep_input)
            parts.append(part)
            shapes, keep_input = part.out_shapes, False
        if len(parts) == 1:
            return parts[0]
        latencies = []
        for part in parts:
            latencies += part.latencies
        return _Segment(latencies, sum(p.flops for p in parts), sum(p.params for p in parts),
                        shapes, None, tuple(parts), {})

    def evaluate(self, genome: DetectorGenome) -> ArchiveEntry:
        entry = self.genomes.get(genome)
        if entry is not None:
            return entry
        entries = self.entries
        latency, flops, params = 0, 0, 0
        shapes = [(1, genome.backbone[0].in_ch, *genome.input_res)]  # one per feature
        variance = ((shapes[0][1], 1.0),)
        stage_out = []  # (output shape, its variance segments) per stage
        stages, taps = len(genome.backbone), genome.pyramid_taps()
        neck_key = genome.neck, genome.head, genome.num_classes, taps, stages
        neck = self.necks.get(neck_key)
        if neck is None:
            neck = self.necks[neck_key] = neck_segments(*neck_key)
        for k, segment in enumerate(stage_segments(genome) + neck):
            key = segment, tuple([shapes[i] for i in segment[2]])
            found = entries.get(key)
            if found is None:
                found = entries[key] = self._segment(*key)
            seg_latencies, seg_flops, seg_params, out_shapes, _, _, variances = found
            latency = fold_sum(seg_latencies, latency)
            flops += seg_flops
            params += seg_params
            shapes += out_shapes
            if k < stages:  # the stages come first
                variance = variances.get(variance) or _output_variance(found, variance)
                stage_out.append((out_shapes[0], variance))

        entry = self.genomes[genome] = ArchiveEntry(
            genome, _proxy(stage_out[i] for i in taps or (stages - 1,)), flops, params, latency)
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
    evaluated segment by segment from a store that lives for this call
    (`_SegmentCache`, whose docstring describes what it reuses), and a
    genome seen before in the search is not evaluated again. Results equal
    those of lowering every candidate whole (`reference_evaluate` in
    tests/test_search.py) exactly; memory grows with the distinct segments,
    parts and genomes the search evaluates. The seed is validated here, and
    each child is a `mutate` of a valid genome, which keeps it valid. A seed
    whose modeled latency overflows (a profile rate out of range) or whose
    score overflows (~1014 Res units above a tap) raises `ValidationError`,
    whatever the budget; a child whose latency or score overflows is
    infeasible, whatever the budget.
    """
    seed_genome.validate()
    rng = random.Random(cfg.seed)
    cache = _SegmentCache(cfg.device_profile)

    seed_entry = cache.evaluate(seed_genome)
    # a profile rate so small (or overhead so large) that the latency overflows
    # is an input fault, whatever the budget
    if not math.isfinite(seed_entry.latency_ms):
        raise ValidationError(f"the seed genome's latency is not finite ({seed_entry.latency_ms} ms): "
                              "a rate or overhead is out of range", path="device_profile")
    if not math.isfinite(seed_entry.score.value):
        raise ValidationError(f"the seed genome's proxy score is not finite ({seed_entry.score.value}): "
                              "its residual stacks are too deep", path="backbone")
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
            # an overflowed latency or score is infeasible under any budget, "inf" included
            feasible = (entry.latency_ms <= cfg.latency_budget_ms
                        and math.isfinite(entry.latency_ms) and math.isfinite(entry.score.value))
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
        log.info("generation=%d best_score=%.6f best_latency_ms=%s",
                 gen, population[0].score.value, _latency_cell(population[0].latency_ms, 4, 16))
    return archive
