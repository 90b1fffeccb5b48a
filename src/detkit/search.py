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

from .cost import CostReport, DeviceProfile, builtin_profile, cost_report
from .errors import InfeasibleError, ValidationError
from .genome import STACKED_KINDS, DetectorGenome, genome_to_json
from .graph import OpGraph, build_graph

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

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


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
    total = sum(ch for ch, _ in segs)
    return sum(ch * v for ch, v in segs) / total


def _propagate_variance(graph: OpGraph) -> dict[int, list[tuple[int, float]]]:
    state: dict[int, list[tuple[int, float]]] = {}
    for nid in graph.topo_order():
        n = graph.node(nid)
        if n.kind == "input":
            state[nid] = [(n.out_shape[1], 1.0)]
        elif n.kind == "conv":
            # fan-in-scaled init mixes all input channels into a uniform variance
            state[nid] = [(n.out_shape[1], _mean_variance(state[n.inputs[0]]))]
        elif n.kind == "add":
            acc = state[n.inputs[0]]
            for src in n.inputs[1:]:
                acc, other = _refine_pair(acc, state[src])
                acc = [(ch, va + vb) for (ch, va), (_, vb) in zip(acc, other)]
            state[nid] = _merge_segments(acc)
        elif n.kind == "concat":
            segs = []
            for src in n.inputs:
                segs.extend(state[src])
            state[nid] = _merge_segments(segs)
        elif n.kind == "space_to_depth":
            state[nid] = _merge_segments(list(state[n.inputs[0]]) * 4)
        elif n.kind in ("upsample", "maxpool", "identity"):
            state[nid] = state[n.inputs[0]]
        else:
            raise ValidationError(f"no variance rule for node kind {n.kind!r}")
    return state


def entropy_score(graph: OpGraph, scale_weights=None) -> ProxyScore:
    """Score an initialized graph without training.

    Contributions are taken at the graph's pyramid nodes (the designated
    multi-scale features), falling back to the outputs for headless graphs.
    scale_weights defaults to 1 per scale.
    """
    taps = graph.pyramid or graph.outputs
    if not taps:
        raise ValidationError("graph has no designated outputs to score")
    if scale_weights is None:
        scale_weights = (1.0,) * len(taps)
    if len(scale_weights) != len(taps):
        raise ValidationError(
            f"got {len(scale_weights)} scale weights for {len(taps)} pyramid outputs"
        )
    state = _propagate_variance(graph)
    per_scale = []
    for w, nid in zip(scale_weights, taps):
        node = graph.node(nid)
        b, c, h, wdt = node.out_shape
        if node.out_elements == 0:
            raise ValidationError(f"{node.name}: zero-element output cannot be scored")
        contrib = 0.0
        for ch, v in state[nid]:
            contrib += ch * b * h * wdt * 0.5 * math.log(2.0 * math.pi * math.e * v)
        per_scale.append(w * contrib)
    return ProxyScore(value=sum(per_scale), per_scale=tuple(per_scale))


# --- mutation ------------------------------------------------------------------

MUTATION_OPS = (
    "widen",
    "narrow",
    "deepen",
    "shallow",
    "swap_kind",
    "neck_width",
    "neck_depth",
)

_DEPTH_KINDS = STACKED_KINDS + ("ConvBnAct",)


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
        for name in ("width_step", "width_min", "width_max", "depth_max",
                     "scale_rule_depth", "tournament_size"):
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
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"config is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        for key in ("population", "generations", "mutations_per_child", "latency_budget_ms", "seed"):
            if key not in doc:
                raise ValidationError("missing required field", path=key)
        profile_doc = doc.get("device_profile", "t4-like")
        if isinstance(profile_doc, str):
            profile = builtin_profile(profile_doc)
        else:
            profile = DeviceProfile.from_json(json.dumps(profile_doc))
        kwargs = {}
        if "mutation_ops" in doc:
            if not isinstance(doc["mutation_ops"], list):
                raise ValidationError("expected a list of op names", path="mutation_ops")
            kwargs["mutation_ops"] = tuple(doc["mutation_ops"])
        for key in ("width_step", "width_min", "width_max", "depth_max",
                    "scale_rule", "scale_rule_depth", "tournament_size"):
            if key in doc:
                kwargs[key] = doc[key]
        budget = doc["latency_budget_ms"]
        return SearchConfig(
            population=_number(doc, "population", int),
            generations=_number(doc, "generations", int),
            mutations_per_child=_number(doc, "mutations_per_child", int),
            latency_budget_ms=math.inf if budget in ("inf", None) else _number(doc, "latency_budget_ms", float),
            seed=_number(doc, "seed", int),
            device_profile=profile,
            **kwargs,
        )


def _number(doc: dict, key: str, kind: type):
    try:
        return kind(doc[key])
    except (TypeError, ValueError):
        raise ValidationError(f"expected a number, got {doc[key]!r}", path=key) from None


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
    if op == "neck_width":
        if genome.neck is None:
            return None
        j = rng.randrange(3)
        step = cfg.width_step if rng.random() < 0.5 else -cfg.width_step
        widths = list(genome.neck.widths)
        widths[j] += step
        if not cfg.width_min <= widths[j] <= cfg.width_max:
            return None
        return replace(genome, neck=replace(genome.neck, widths=tuple(widths)))
    if op == "neck_depth":
        if genome.neck is None:
            return None
        new_d = genome.neck.depth + (1 if rng.random() < 0.5 else -1)
        if not 1 <= new_d <= cfg.depth_max:
            return None
        return replace(genome, neck=replace(genome.neck, depth=new_d))
    raise ValidationError(f"unknown mutation op {op!r}")


def mutate(genome: DetectorGenome, rng: random.Random,
           cfg: SearchConfig | None = None, retries: int = 16) -> DetectorGenome:
    """Apply one random structural edit and re-validate.

    Infeasible draws (out-of-bounds widths or depths, no legal kind swap) are
    resampled up to `retries` times; if everything fails the genome is
    returned unchanged.
    """
    if cfg is None:
        cfg = _DEFAULT_MUTATION_CFG
    ops = cfg.mutation_ops
    for _ in range(retries):
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
            "genome": json.loads(genome_to_json(self.genome)),
            "score": self.score.value,
            "per_scale": list(self.score.per_scale),
            "flops": self.cost.flops,
            "params": self.cost.params,
            "latency_ms": self.cost.latency_ms,
        }


def _dominates(a: ArchiveEntry, b: ArchiveEntry) -> bool:
    return (a.score.value >= b.score.value and a.latency_ms <= b.latency_ms
            and (a.score.value > b.score.value or a.latency_ms < b.latency_ms))


@dataclass
class ParetoArchive:
    """Mutually non-dominated (score up, latency down) feasible entries."""

    entries: list[ArchiveEntry] = field(default_factory=list)
    history: list[list[tuple[float, float, bool]]] = field(default_factory=list)

    def insert(self, entry: ArchiveEntry) -> None:
        for kept in self.entries:
            if _dominates(kept, entry):
                return
        self.entries = [kept for kept in self.entries if not _dominates(entry, kept)]
        self.entries.append(entry)

    def sorted_entries(self) -> list[ArchiveEntry]:
        return sorted(
            self.entries,
            key=lambda e: (-e.score.value, e.latency_ms, genome_to_json(e.genome)),
        )

    @property
    def best(self) -> ArchiveEntry:
        if not self.entries:
            raise InfeasibleError("archive is empty")
        return self.sorted_entries()[0]

    def to_ndjson(self) -> str:
        lines = [json.dumps(e.to_record(), sort_keys=True) for e in self.sorted_entries()]
        return "\n".join(lines) + "\n"


# --- search loop ------------------------------------------------------------------


def evaluate_genome(genome: DetectorGenome, profile: DeviceProfile) -> ArchiveEntry:
    """Pure candidate evaluation: lower, score, cost."""
    graph = build_graph(genome)
    score = entropy_score(graph)
    cost = cost_report(graph, profile)
    return ArchiveEntry(genome=genome, score=score, cost=cost)


def _rank_key(entry: ArchiveEntry):
    return (-entry.score.value, entry.latency_ms)


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
    generation, generation 0 being the initial population.
    """
    seed_genome.validate()
    rng = random.Random(cfg.seed)
    profile = cfg.device_profile

    seed_entry = evaluate_genome(seed_genome, profile)
    if seed_entry.latency_ms > cfg.latency_budget_ms:
        raise InfeasibleError(
            f"seed genome is infeasible: latency {seed_entry.latency_ms:.4f} ms "
            f"> budget {cfg.latency_budget_ms:.4f} ms"
        )

    archive = ParetoArchive()
    population: list[ArchiveEntry] = []
    entries = [seed_entry] + [evaluate_genome(_mutated(seed_genome, rng, cfg), profile)
                              for _ in range(cfg.population - 1)]
    for gen in range(cfg.generations + 1):
        if gen > 0:
            entries = [evaluate_genome(g, profile) for g in _offspring(population, rng, cfg)]
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
        log.info("generation=%d best_score=%.6f best_latency_ms=%.4f",
                 gen, population[0].score.value, population[0].latency_ms)
    return archive
