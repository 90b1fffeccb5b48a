"""The benchmark's four workloads: seeded inputs, the timed call, output checks.

Every workload is a sequence of calls and each call completes a number of
items. `prepare` runs in its own process and writes the inputs that are costly
to make, so their generation does not count toward the measuring process's
peak memory; `load` reads them back in the measuring process. The seed is the
only source of randomness, and inputs are made by the benchmark itself (never
by the library's mutation or sampling code), so every commit sees the same
inputs for the same seed.

The library is always reached through module attributes (`cli.main`,
`graph.build_graph`, ...) so that the traced run's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from detkit import cli, cost, genome, graph, losses, reparam, search, tensorops
from detkit.assign import Box

import oracle


class CheckFailed(Exception):
    """An output did not pass its check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def search_budget() -> float:
    """1.25x the modeled t4-like latency of the `s` preset."""
    seed_genome = genome.preset_genome("s")
    report = cost.cost_report(graph.build_graph(seed_genome), cost.builtin_profile("t4-like"))
    return SearchWorkload.BUDGET_FACTOR * report.latency_ms


def run_cli(argv) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"detkit {argv[0]} exited {rc}")


class Workload:
    name = ""
    cycle = 1       # calls per input cycle; a measurement ends on a cycle boundary
    tail_pct = 90   # percentile reported as call_ms_tail (see the subclass)
    budget_ms = None  # latency budget that search.feasible_frac is judged against

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.calls_made = 0
        self.tracer = None   # set by the traced run; checks switch it off

    def prepare(self) -> None:
        """Write inputs to `work` (runs in a separate process)."""

    def load(self) -> None:
        """Read what `prepare` wrote."""

    def next_input(self):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def items(self, inp) -> int:
        return 1

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def probe(self) -> None:
        """The first call of a fresh process, on a small input, for setup_s."""
        raise NotImplementedError

    def properties(self) -> dict:
        return {}

    @contextmanager
    def _untraced(self):
        """Library calls made by checks are not traced."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


# --- search ----------------------------------------------------------------------


class SearchWorkload(Workload):
    """`detkit search` in process on the `s` preset (152 nodes).

    Why: candidate evaluation (lower, score, cost a whole graph) is the hot
    loop of training-free search, and it repeats work: some children
    duplicate earlier candidates, and each candidate is topologically sorted
    twice. Memoisation, incremental lowering
    and sort removal show here. Measured in traced runs at seeds 1, 7, 21:
    90-91% of evaluations are unique within their call, 98-99% are feasible,
    each takes 2 topological sorts and 2.1 genome validations, and no
    mutation gave up (the duplicates are mutations that undo earlier ones).

    A call is one search (population 16, 10 generations, one mutation per
    child, budget 1.25x the seed's modeled t4-like latency); an item is one
    candidate evaluation, 16 x 11 = 176 per call. Each call draws its search
    seed from the workload seed.
    """

    name = "search"
    POPULATION, GENERATIONS, MUTATIONS = 16, 10, 1
    BUDGET_FACTOR = 1.25
    tail_pct = 70   # >= 10 of the 35-55 calls of a 20 s run lie beyond it

    def _config(self, search_seed: int, population: int, generations: int) -> str:
        return json.dumps({
            "population": population,
            "generations": generations,
            "mutations_per_child": self.MUTATIONS,
            "latency_budget_ms": self.budget_ms,
            "seed": search_seed,
            "device_profile": "t4-like",
        })

    def prepare(self):
        self.budget_ms = search_budget()
        (self.work / "space.json").write_text(genome.genome_to_json(genome.preset_genome("s")))
        (self.work / "meta.json").write_text(json.dumps({"budget_ms": self.budget_ms}))
        for sub in ("run", "repeat", "probe"):
            (self.work / sub).mkdir()
        (self.work / "probe" / "config.json").write_text(self._config(0, 2, 1))

    def load(self):
        self.budget_ms = json.loads((self.work / "meta.json").read_text())["budget_ms"]
        self.rng = random.Random(self.seed)
        self.repeated = False

    def next_input(self):
        search_seed = self.rng.randrange(2**31)
        config = self.work / "run" / "config.json"
        config.write_text(self._config(search_seed, self.POPULATION, self.GENERATIONS))
        return {"config": config, "out": self.work / "run" / "archive.ndjson"}

    def _run(self, config: Path, out: Path) -> None:
        run_cli(["search", "--space", str(self.work / "space.json"),
                 "--config", str(config), "--out", str(out)])

    def call(self, inp):
        self._run(inp["config"], inp["out"])

    def items(self, inp):
        return self.POPULATION * (self.GENERATIONS + 1)

    def check(self, inp, out):
        data = inp["out"].read_bytes()
        check_archive(data, self.budget_ms)
        if not self.repeated:
            # a repeat of one seed must give a byte-identical archive
            config = self.work / "repeat" / "config.json"
            config.write_bytes(inp["config"].read_bytes())
            repeat_out = self.work / "repeat" / "archive.ndjson"
            with self._untraced():
                self._run(config, repeat_out)
            require(repeat_out.read_bytes() == data, "archive differs on a repeat of its seed")
            self.repeated = True

    def probe(self):
        self._run(self.work / "probe" / "config.json", self.work / "probe" / "archive.ndjson")

    def properties(self):
        return {"population": self.POPULATION, "generations": self.GENERATIONS,
                "mutations_per_child": self.MUTATIONS, "budget_ms": self.budget_ms}


def _dominates(a: dict, b: dict) -> bool:
    return (a["score"] >= b["score"] and a["latency_ms"] <= b["latency_ms"]
            and (a["score"] > b["score"] or a["latency_ms"] < b["latency_ms"]))


def check_archive(data: bytes, budget_ms: float) -> None:
    """A search archive: manifest header, then feasible, mutually non-dominated entries."""
    lines = data.decode().splitlines()
    require(len(lines) >= 2, "archive has no entries")
    require("manifest" in json.loads(lines[0]), "archive lacks its manifest header")
    entries = [json.loads(line) for line in lines[1:]]
    for e in entries:
        require(e["latency_ms"] <= budget_ms, f"entry over budget: {e['latency_ms']} > {budget_ms}")
        require(math.isfinite(e["score"]), "entry score is not finite")
    for a in entries:
        for b in entries:
            require(a is b or not _dominates(a, b), "archive holds a dominated entry")


# --- sweep -----------------------------------------------------------------------


SWEEP_KINDS = ("Mob", "Res", "Csp")
SWEEP_OPS = ("widen", "narrow", "deepen", "shallow", "swap_kind", "neck_width", "neck_depth")
FUSION_STYLES = ("Conv", "Csp", "CspReparam", "CspReparamElan")


def _mutate_doc(doc: dict, rng: random.Random) -> None:
    """One structural edit of a genome document, kept inside the schema's ranges."""
    bb = doc["backbone"]
    op = rng.choice(SWEEP_OPS)
    if op in ("widen", "narrow"):
        i = rng.randrange(len(bb))
        width = bb[i]["out_ch"] + (8 if op == "widen" else -8)
        if 16 <= width <= 1024:
            bb[i]["out_ch"] = width
            if i + 1 < len(bb):
                bb[i + 1]["in_ch"] = width
    elif op in ("deepen", "shallow"):
        i = rng.choice([i for i, b in enumerate(bb) if b["kind"] in SWEEP_KINDS + ("ConvBnAct",)])
        bb[i]["depth"] = min(max(bb[i]["depth"] + (1 if op == "deepen" else -1), 1), 12)
    elif op == "swap_kind":
        i = rng.choice([i for i, b in enumerate(bb) if b["kind"] in SWEEP_KINDS])
        bb[i]["kind"] = rng.choice([k for k in SWEEP_KINDS if k != bb[i]["kind"]])
    elif op == "neck_width":
        j = rng.randrange(3)
        doc["neck"]["widths"][j] = min(max(doc["neck"]["widths"][j] + rng.choice((-8, 8)), 16), 512)
    else:
        doc["neck"]["depth"] = min(max(doc["neck"]["depth"] + rng.choice((-1, 1)), 1), 4)


def sweep_genomes(seed: int, bases: dict[str, dict]):
    """Endless de-duplicated genome documents: a mutation chain of 0-12 edits
    off `s` or `tiny`, then a random fusion style, neck links, head depth (0-2)
    and square input resolution (320-960, multiples of 32). Yields (text, meta)."""
    rng = random.Random(seed)
    seen = set()
    names = sorted(bases)
    while True:
        base = rng.choice(names)
        doc = json.loads(json.dumps(bases[base]))
        for _ in range(rng.randint(0, 12)):
            _mutate_doc(doc, rng)
        doc["neck"]["fusion_style"] = rng.choice(FUSION_STYLES)
        doc["neck"]["extra_upsample"] = rng.random() < 0.5
        doc["neck"]["extra_downsample"] = rng.random() < 0.5
        doc["head"]["head_depth"] = rng.randint(0, 2)
        res = 32 * rng.randint(10, 30)
        doc["input_res"] = [res, res]
        text = json.dumps(doc, sort_keys=True)
        # keep a digest, not the text, so memory barely grows with the genomes drawn
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        if digest in seen:
            continue
        seen.add(digest)
        yield text, {"base": base, "fusion_style": doc["neck"]["fusion_style"],
                     "head_depth": doc["head"]["head_depth"], "res": res}


class SweepWorkload(Workload):
    """One-shot evaluation of distinct genomes: parse, lower, score, cost.

    Why: the same graph, proxy and cost layers as `search`, with no repeats
    and no mutation or selection, so a genome cache can only cost time here
    (the prediction for a memo is no change). Genomes span all four fusion
    styles, head depths 0-2, resolutions 320-960 and both presets. Measured
    at seed 7 (traced 20 s run, 9201 genomes): each fusion style 24-26%,
    `s`-based 51%, each head depth 33-34%, 35-192 nodes (median 104), 78%
    within the search workload's budget, every genome distinct (unique share
    1.0 by construction).

    A call and an item are one genome. Every 64th genome is evaluated a
    second time, untimed, and must give identical bytes.
    """

    name = "sweep"
    tail_pct = 99   # >= 10 of the ~8000 calls of a 20 s run lie beyond it
    REPEAT_EVERY = 64

    def prepare(self):
        for name in ("s", "tiny"):
            (self.work / f"{name}.json").write_text(genome.genome_to_json(genome.preset_genome(name)))

    def load(self):
        bases = {name: json.loads((self.work / f"{name}.json").read_text()) for name in ("s", "tiny")}
        self.genomes = sweep_genomes(self.seed, bases)
        self.profile = cost.builtin_profile("t4-like")
        self.budget_ms = search_budget()  # feasibility is judged as the search workload would
        self.meta = Counter()
        self.nodes: list[int] = []

    def next_input(self):
        text, meta = next(self.genomes)
        self.meta.update(f"{k}={v}" for k, v in meta.items() if k != "res")
        self.meta["res<=640" if meta["res"] <= 640 else "res>640"] += 1
        self.calls_made += 1
        return text

    def _evaluate(self, text: str):
        g = genome.genome_from_json(text)
        lowered = graph.build_graph(g)
        score = search.entropy_score(lowered)
        report = cost.cost_report(lowered, self.profile).to_json()
        return score.value, report, len(lowered.nodes)

    def call(self, inp):
        return self._evaluate(inp)

    def check(self, inp, out):
        score, report, nodes = out
        check_cost_report(report)
        require(math.isfinite(score), "proxy score is not finite")
        self.nodes.append(nodes)
        if self.calls_made % self.REPEAT_EVERY == 1:
            with self._untraced():
                again = self._evaluate(inp)
            require(again == out, "a repeated genome gave different bytes")

    def probe(self):
        self.profile = cost.builtin_profile("t4-like")
        self._evaluate((self.work / "tiny.json").read_text())

    def properties(self):
        total = sum(v for k, v in self.meta.items() if k.startswith("base="))
        shares = {k: v / total for k, v in sorted(self.meta.items())} if total else {}
        nodes = sorted(self.nodes)
        return {"genomes": total, "shares": shares,
                "nodes_min": nodes[0] if nodes else 0,
                "nodes_median": statistics.median(nodes) if nodes else 0,
                "nodes_max": nodes[-1] if nodes else 0}


def check_cost_report(text: str) -> None:
    """Cost totals must equal the sums of their per-node rows."""
    doc = json.loads(text)
    rows = doc["per_node"]
    require(rows, "cost report has no rows")
    require(doc["flops"] == sum(r["flops"] for r in rows), "flops total != sum of rows")
    require(doc["params"] == sum(r["params"] for r in rows), "params total != sum of rows")
    require(math.isclose(doc["latency_ms"], sum(r["latency_ms"] for r in rows), rel_tol=1e-9),
            "latency total != sum of rows")


# --- assign ----------------------------------------------------------------------


IMAGE_SIZE = 640
STRIDES = (8, 16, 32)
NUM_CLASSES = 80
# Ground truths per image over one cycle of the workload: most images hold few
# objects, one is crowded. The cost of the per-pair cost loop grows with it.
GT_CYCLE = (1, 1, 2, 3, 5, 9, 18, 100)
# Images with these GT counts run with `--solver sinkhorn --center-prior`.
SINKHORN_GTS = (3, 18)


def anchor_grid(size: int):
    centres, strides = [], []
    for s in STRIDES:
        n = size // s
        ys, xs = np.mgrid[0:n, 0:n]
        centres.append(np.stack([(xs.ravel() + 0.5) * s, (ys.ravel() + 0.5) * s], axis=1))
        strides.append(np.full(n * n, float(s)))
    return np.concatenate(centres), np.concatenate(strides)


def make_image(rng: np.random.Generator, n_gt: int, size: int = IMAGE_SIZE,
               classes: int = NUM_CLASSES) -> dict:
    """One image in the assignment interchange format.

    Predictions sit on the anchor grid (80^2 + 40^2 + 20^2 = 8400 at 640),
    each box jittered around its anchor and 2-5 strides wide. Ground-truth
    sides run from 12 to 320 px, evenly in log scale, with random positions,
    aspect ratios and classes; predictions anchored inside a GT score its
    class higher than the background scores.
    """
    centres, strides = anchor_grid(size)
    n = len(centres)
    half = strides[:, None] * rng.uniform(1.0, 2.5, (n, 2))
    mid = centres + strides[:, None] * rng.uniform(-0.5, 0.5, (n, 2))
    boxes = np.concatenate([mid - half, mid + half], axis=1).clip(0, size).round(2)

    # GT sides spread evenly in log scale, the same for every seed, because
    # the crowded image's cost grows with the GTs' total area
    side = np.exp(np.log(12) + (np.arange(n_gt) + 0.5) / n_gt * np.log(320 / 12))
    stretch = np.exp(rng.uniform(-0.2, 0.2, n_gt))  # aspect ratio, area unchanged
    wh = rng.permutation(side)[:, None] * np.stack([stretch, 1 / stretch], axis=1)
    ctr = rng.uniform(0, size, (n_gt, 2))
    gts = np.concatenate([ctr - wh / 2, ctr + wh / 2], axis=1).clip(0, size).round(2)
    gt_cls = rng.integers(0, classes, n_gt)

    logits = rng.normal(-4.0, 1.0, (n, classes))
    for box, c in zip(gts, gt_cls):
        inside = ((centres[:, 0] >= box[0]) & (centres[:, 0] <= box[2])
                  & (centres[:, 1] >= box[1]) & (centres[:, 1] <= box[3]))
        logits[inside, c] = rng.normal(1.0, 1.5, int(inside.sum()))
    scores = (1.0 / (1.0 + np.exp(-logits))).round(5)

    boxes_l, scores_l, centres_l = boxes.tolist(), scores.tolist(), centres.tolist()
    return {
        "predictions": [{"box": b, "cls_scores": s, "anchor_point": a}
                        for b, s, a in zip(boxes_l, scores_l, centres_l)],
        "ground_truths": [{"box": b, "class_id": int(c)} for b, c in zip(gts.tolist(), gt_cls)],
    }


class AssignWorkload(Workload):
    """`detkit assign` in process on one-image mini-batch files.

    Why: aligned assignment builds a |GT| x 8400 cost per image in Python
    loops, so its time grows with the GT count, the dimension a vectorised
    cost changes; parsing the ~6 MB input is the other large share. The
    GT counts follow GT_CYCLE (histogram: 1 GT 25%, 2-5 GTs 37.5%, 9-18 GTs
    25%, 100 GTs 12.5%; mean 17.4), and 25% of the images run the Sinkhorn
    solver with the centre prior, so a solver change shows too. The seed sets
    the geometry and scores of the images; their order is fixed, crowded
    last, because a crowded first image (the warm-up call) raised the
    process's memory peak by 5 MB. Measured at seed 21: 6.7
    MB per input file, 146k GT/prediction pairs per image of which 4.6% are
    candidates, 0.7% of predictions assigned.

    A call and an item are one image. A measurement ends on a cycle boundary,
    so every run weighs the GT counts alike. The first cycle's outputs are
    compared with the independent oracle; later cycles must repeat them
    byte for byte.
    """

    name = "assign"
    cycle = len(GT_CYCLE)
    tail_pct = 55   # >= 10 of the 24-40 calls of a 20 s run lie beyond it

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        meta = []
        for k, n_gt in enumerate(GT_CYCLE):
            path = self.work / f"image{k}.json"
            path.write_text(json.dumps({"images": [make_image(rng, n_gt)]}))
            meta.append({"path": path.name, "n_gt": n_gt, "sinkhorn": n_gt in SINKHORN_GTS,
                         "bytes": path.stat().st_size})
        (self.work / "meta.json").write_text(json.dumps(meta))
        probe = {"images": [make_image(np.random.default_rng(0), 2, size=64)]}
        (self.work / "probe.json").write_text(json.dumps(probe))

    def load(self):
        self.images = json.loads((self.work / "meta.json").read_text())
        self.verified: dict[int, bytes] = {}

    def next_input(self):
        k = self.calls_made % len(self.images)
        self.calls_made += 1
        return {"k": k, **self.images[k]}

    def _argv(self, path: Path, sinkhorn: bool, out: Path):
        argv = ["assign", "--input", str(path), "--out", str(out)]
        return argv + ["--solver", "sinkhorn", "--center-prior"] if sinkhorn else argv

    def call(self, inp):
        run_cli(self._argv(self.work / inp["path"], inp["sinkhorn"], self.work / "out.ndjson"))

    def check(self, inp, out):
        data = (self.work / "out.ndjson").read_bytes()
        k = inp["k"]
        if k in self.verified:
            require(data == self.verified[k], "assignment differs from the same input's earlier output")
            return
        expected = oracle.assign_file(self.work / inp["path"], center_prior=inp["sinkhorn"])
        check_assignment(data, expected, exact=not inp["sinkhorn"])
        self.verified[k] = data

    def probe(self):
        run_cli(self._argv(self.work / "probe.json", False, self.work / "probe.ndjson"))

    def properties(self):
        gts = [m["n_gt"] for m in self.images]
        return {"gt_histogram": dict(sorted(Counter(gts).items())),
                "sinkhorn_frac": sum(m["sinkhorn"] for m in self.images) / len(self.images),
                "input_mb_mean": statistics.fmean(m["bytes"] for m in self.images) / 1e6,
                "predictions_per_image": len(anchor_grid(IMAGE_SIZE)[0])}


def check_assignment(data: bytes, expected: list, exact: bool) -> None:
    """Compare `detkit assign` NDJSON with the oracle. Dynamic-k output must
    match it exactly; for Sinkhorn, k must match and every positive must be a
    candidate pair carrying that pair's IoU as its soft label."""
    lines = data.decode().splitlines()
    require("manifest" in json.loads(lines[0]), "assignment lacks its manifest header")
    records = [json.loads(line) for line in lines[1:]]
    require(len(records) == len(expected), "one output line per image expected")
    for rec, exp in zip(records, expected):
        require(rec["per_gt_k"] == exp.per_gt_k, "per-GT k differs from the oracle")
        if exact:
            require(rec["assigned_gt"] == exp.assigned_gt, "assignment differs from the oracle")
            require(rec["soft_labels"] == exp.soft_labels, "soft labels differ from the oracle")
            continue
        require(len(rec["assigned_gt"]) == len(exp.assigned_gt), "prediction count differs")
        for j, (i, soft) in enumerate(zip(rec["assigned_gt"], rec["soft_labels"])):
            if i < 0:
                require(soft is None, "background prediction carries a soft label")
            else:
                require((i, j) in exp.candidates, f"prediction {j} assigned to non-candidate GT {i}")
                require(soft == exp.candidates[(i, j)], "soft label is not the pair's IoU")


# --- distill ---------------------------------------------------------------------


TEACHER_WIDTHS = (128, 256, 512)
STUDENT_WIDTHS = (96, 192, 384)   # the `s` preset's neck widths
REP_CHANNELS = 76                 # hidden width of the `s` neck's stride-8 fusion block
POSITIVES = 64
REG_BINS = 16
STEP_POOL = 4
# The acceptance suite's float32 budget for folded vs branch forward (1e-5),
# taken relative to the output's magnitude.
FOLD_TOL = 1e-5
LOSS_WEIGHTS = (1.0, 0.25, 2.0)
SCHEDULE = (284, 16, 0.5, 0.0)    # stage-1 epochs, stage-2 epochs, w_start, w_end


def make_step(rng: np.random.Generator, size: int = IMAGE_SIZE, teacher_widths=TEACHER_WIDTHS,
              student_widths=STUDENT_WIDTHS, rep_channels=REP_CHANNELS) -> dict:
    """Raw arrays of one distillation step (see DistillWorkload)."""
    f32 = np.float32
    step = {"epoch": np.array(rng.integers(0, sum(SCHEDULE[:2])))}
    for s, ct, cs in zip(STRIDES, teacher_widths, student_widths):
        hw = size // s
        step[f"teacher{s}"] = rng.standard_normal((1, ct, hw, hw)).astype(f32)
        step[f"student{s}"] = rng.standard_normal((1, cs, hw, hw)).astype(f32)
        step[f"proj{s}"] = (rng.standard_normal((ct, cs, 1, 1)) / np.sqrt(cs)).astype(f32)
    step["qfl_pred"] = rng.uniform(0, 1, POSITIVES)
    step["qfl_target"] = rng.uniform(0, 1, POSITIVES)
    logits = rng.normal(0, 2, (POSITIVES * 4, REG_BINS))
    step["dfl_probs"] = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    step["dfl_target"] = rng.uniform(0, REG_BINS - 1, POSITIVES * 4)
    gt = rng.uniform(0, size / 2, (POSITIVES, 2))
    gt = np.concatenate([gt, gt + rng.uniform(8, size / 2, (POSITIVES, 2))], axis=1)
    step["gt_boxes"] = gt
    step["pred_boxes"] = gt + rng.normal(0, 8, (POSITIVES, 4))
    step["pred_boxes"][:, 2:] = np.maximum(step["pred_boxes"][:, 2:], step["pred_boxes"][:, :2] + 1)
    c, hw = rep_channels, size // STRIDES[0]
    step["x"] = rng.standard_normal((1, c, hw, hw)).astype(f32)
    step["w3"] = (rng.standard_normal((c, c, 3, 3)) / np.sqrt(9 * c)).astype(f32)
    step["w1"] = (rng.standard_normal((c, c, 1, 1)) / np.sqrt(c)).astype(f32)
    for name in ("b3", "b1"):
        step[name] = (0.1 * rng.standard_normal(c)).astype(f32)
    for bn in ("bn3", "bn1", "bnid"):
        step[f"{bn}_gamma"] = rng.uniform(0.5, 1.5, c).astype(f32)
        step[f"{bn}_beta"] = rng.standard_normal(c).astype(f32)
        step[f"{bn}_mean"] = rng.standard_normal(c).astype(f32)
        step[f"{bn}_var"] = rng.uniform(0.2, 2.0, c).astype(f32)
    return step


def build_step(raw) -> dict:
    """Library objects of one step; built before timing."""
    T = tensorops.Tensor4

    def bn(prefix):
        return tensorops.BnParams(raw[f"{prefix}_gamma"], raw[f"{prefix}_beta"],
                                  raw[f"{prefix}_mean"], raw[f"{prefix}_var"])

    return {
        "epoch": int(raw["epoch"]),
        "teachers": [T(raw[f"teacher{s}"]) for s in STRIDES],
        "students": [T(raw[f"student{s}"]) for s in STRIDES],
        "projs": [tensorops.ConvParams(raw[f"proj{s}"], np.zeros(raw[f"proj{s}"].shape[0], np.float32))
                  for s in STRIDES],
        "qfl": (raw["qfl_pred"], raw["qfl_target"]),
        "dfl": list(zip(list(raw["dfl_probs"]), raw["dfl_target"].tolist())),
        "giou": [(Box(*p), Box(*g)) for p, g in zip(raw["pred_boxes"].tolist(), raw["gt_boxes"].tolist())],
        "x": T(raw["x"]),
        "block": reparam.RepBranchParams(
            conv3=tensorops.ConvParams(raw["w3"], raw["b3"], stride=1, padding=1), bn3=bn("bn3"),
            conv1=tensorops.ConvParams(raw["w1"], raw["b1"], stride=1, padding=0), bn1=bn("bn1"),
            identity_bn=bn("bnid")),
    }


def distill_step(st: dict) -> dict:
    """One training-step's worth of loss and distillation evaluation."""
    projected = [losses.align_project(s, t.dims, p)
                 for t, s, p in zip(st["teachers"], st["students"], st["projs"])]
    distill = losses.distill_loss(st["teachers"], projected, kind="cwd")
    q = float(np.mean(losses.qfl(*st["qfl"])))
    d = statistics.fmean(losses.dfl(probs, y) for probs, y in st["dfl"])
    g = statistics.fmean(losses.giou_loss(p, gt) for p, gt in st["giou"])
    stage1, stage2, w_start, w_end = SCHEDULE
    breakdown = losses.loss_breakdown(
        (q, d, g), losses.LossWeights(*LOSS_WEIGHTS), distill=distill, epoch=st["epoch"],
        schedule=losses.DistillSchedule(stage1, stage2, w_start, w_end, "cosine"))
    folded = reparam.reparam_fold(st["block"])
    branch = reparam.rep_branches_forward(st["x"], st["block"])
    deployed = tensorops.conv2d_forward(st["x"], folded)
    return {"components": (q, d, g), "distill": distill, "total": breakdown.total,
            "fold_gap": float(np.abs(branch.data - deployed.data).max()),
            "fold_scale": float(np.abs(branch.data).max())}


def check_step(out: dict, epoch: int) -> None:
    q, d, g = out["components"]
    for name, value in (("qfl", q), ("dfl", d), ("giou", g), ("distill", out["distill"])):
        require(math.isfinite(value) and value >= 0, f"{name} loss is {value}")
    require(g <= 2.0, f"giou loss {g} above 2")
    stage1, _, w_start, w_end = SCHEDULE
    w = 0.0 if epoch >= stage1 else w_end + 0.5 * (w_start - w_end) * (1 + math.cos(math.pi * epoch / stage1))
    expected = sum(wt * c for wt, c in zip(LOSS_WEIGHTS, (q, d, g))) + w * out["distill"]
    require(math.isclose(out["total"], expected, rel_tol=1e-12, abs_tol=1e-12),
            f"loss total {out['total']} != weighted sum {expected}")
    tol = FOLD_TOL * max(1.0, out["fold_scale"])
    require(out["fold_gap"] <= tol, f"folded conv differs from branch forward by {out['fold_gap']:.3g} > {tol:.3g}")


class DistillWorkload(Workload):
    """One loss/distillation step through the library, no CLI.

    Why: the only workload where `tensorops`, `losses` and `reparam` do the
    work (`graph`, `search` and `assign` do none). Per step, for strides
    8/16/32 of a 640 input: `align_project` of the `s` neck's features
    (96/192/384 channels) to a 128/256/512-channel teacher (a 1x1 conv), then
    `distill_loss(kind="cwd")`; `qfl`/`dfl`/`giou_loss` over 64 positives
    (16-bin distributions); `loss_breakdown` under the cosine schedule; one
    `reparam_fold` of a 76-channel 80x80 neck rep block, checked by
    `rep_branches_forward` against `conv2d_forward` of the folded conv.
    Step inputs come from a pool of 4 seeded steps; the library keeps no
    state between steps, so reuse saves it nothing. Measured: every step
    runs 6 convolutions totalling 1.88 GFLOP.

    A call and an item are one step. cwd_loss(t, t) == 0 is checked once per
    pooled teacher feature.
    """

    name = "distill"
    tail_pct = 85   # >= 10 of the ~120 calls of a 20 s run lie beyond it

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        for k in range(STEP_POOL):
            np.savez(self.work / f"step{k}.npz", **make_step(rng))

    def load(self):
        self.steps = []
        for k in range(STEP_POOL):
            with np.load(self.work / f"step{k}.npz") as raw:
                self.steps.append(build_step(raw))
        self.zero_checked: set[int] = set()

    def next_input(self):
        k = self.calls_made % len(self.steps)
        self.calls_made += 1
        return k

    def call(self, inp):
        return distill_step(self.steps[inp])

    def check(self, inp, out):
        check_step(out, self.steps[inp]["epoch"])
        if inp not in self.zero_checked:
            with self._untraced():
                for t in self.steps[inp]["teachers"]:
                    require(losses.cwd_loss(t, t) == 0.0, "cwd_loss(t, t) != 0")
            self.zero_checked.add(inp)

    def probe(self):
        rng = np.random.default_rng(0)
        distill_step(build_step(make_step(rng, size=64, teacher_widths=(8, 8, 8),
                                          student_widths=(4, 4, 4), rep_channels=4)))

    def properties(self):
        return {"pool": STEP_POOL, "positives": POSITIVES, "teacher_widths": TEACHER_WIDTHS,
                "student_widths": STUDENT_WIDTHS, "rep_channels": REP_CHANNELS}


WORKLOADS = {w.name: w for w in (SearchWorkload, SweepWorkload, AssignWorkload, DistillWorkload)}
