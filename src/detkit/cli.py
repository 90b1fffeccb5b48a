"""Command-line surface.

Subcommands wrap the library modules with machine-readable outputs:

    detkit search --space genome.json --config search.json --out archive.ndjson
    detkit cost   --genome genome.json --res 640 --profile t4-like
    detkit score  --genome genome.json
    detkit assign --input images.json --out assign.ndjson
    detkit loss   --input pairs.json
    detkit fold   --block branches.json
    detkit preset --name s

Exit codes: 0 ok, 2 input/config error, 3 infeasible search, 4 internal error.
Every output *file* references a `<file>.manifest.json` sidecar recording the
command, a hash of its inputs, the seed, the toolkit version, and timestamps;
keeping timestamps in the sidecar is what lets seeded runs produce
byte-identical primary outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .assign import (
    Box,
    GroundTruthArrays,
    PredictionArrays,
    align_cost,
    dynamic_k_assign,
    sinkhorn_assign,
)
from .cost import DeviceProfile, builtin_profile, cost_report
from .errors import DetkitError, InfeasibleError, ShapeError, ValidationError
from .genome import genome_from_json, genome_to_json, preset_genome
from .graph import build_graph
from .losses import (
    DistillSchedule,
    LossWeights,
    dfl,
    distill_loss,
    distill_weight,
    giou_loss,
    loss_breakdown,
    qfl,
)
from .reparam import RepBranchParams, reparam_fold
from .search import SearchConfig, entropy_score, search
from .tensorops import BnParams, ConvParams, load_raw_tensor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_hash: str
    seed: int | None
    version: str
    created_utc: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "version": self.version,
                "created_utc": self.created_utc,
            },
            indent=2,
        ) + "\n"


def _make_manifest(command: str, input_paths, seed=None) -> RunManifest:
    digest = hashlib.sha256()
    for path in input_paths:
        digest.update(str(path).encode())
        digest.update(Path(path).read_bytes())
    return RunManifest(
        command=command,
        config_hash=digest.hexdigest(),
        seed=seed,
        version=__version__,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def _write_manifest(out_path: Path, manifest: RunManifest) -> str:
    sidecar = Path(str(out_path) + ".manifest.json")
    sidecar.write_text(manifest.to_json())
    return sidecar.name


def _read(path) -> str:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")
    return p.read_text()


def _load_profile(spec: str) -> DeviceProfile:
    if Path(spec).exists():
        return DeviceProfile.from_json(_read(spec))
    return builtin_profile(spec)


def _parse_res(raw: str) -> tuple[int, int]:
    try:
        if "x" in raw:
            h, w = raw.lower().split("x")
            return int(h), int(w)
        r = int(raw)
        return r, r
    except ValueError:
        raise ValidationError(f"--res must be an integer or HxW, got {raw!r}") from None


def _emit(text: str, out: str | None, manifest: RunManifest | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if manifest is not None:
        ref = _write_manifest(path, manifest)
        if text.startswith("{") and text.rstrip().endswith("}"):
            doc = json.loads(text)
            doc["manifest"] = ref
            text = json.dumps(doc, indent=2) + "\n"
    path.write_text(text)


# --- subcommands ------------------------------------------------------------------


def cmd_search(args) -> int:
    cfg = SearchConfig.from_json(_read(args.config))
    genome = genome_from_json(_read(args.space))
    manifest = _make_manifest("search", [args.space, args.config], seed=cfg.seed)
    archive = search(genome, cfg)

    ref = _write_manifest(Path(args.out), manifest)
    lines = [json.dumps({"manifest": ref}, sort_keys=True)]
    lines.extend(archive.to_ndjson().splitlines())
    Path(args.out).write_text("\n".join(lines) + "\n")

    if args.history:
        rows = ["generation,best_score,best_latency_ms"]
        best_score = -float("inf")
        best_latency = float("inf")
        for gen, records in enumerate(archive.history):
            feasible = [(s, l) for s, l, ok in records if ok]
            if feasible:
                top = max(feasible, key=lambda t: (t[0], -t[1]))
                if top[0] > best_score or (top[0] == best_score and top[1] < best_latency):
                    best_score, best_latency = top
            rows.append(f"{gen},{best_score:.6f},{best_latency:.6f}")
        Path(args.history).write_text("\n".join(rows) + "\n")
    print(f"wrote {len(archive.entries)} archive entries to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_cost(args) -> int:
    genome = genome_from_json(_read(args.genome))
    res = _parse_res(args.res) if args.res else None
    profile = _load_profile(args.profile)
    report = cost_report(build_graph(genome, input_res=res), profile, strict=args.strict)
    manifest = _make_manifest("cost", [args.genome])
    text = report.to_table() if args.format == "table" else report.to_json()
    _emit(text, args.out, manifest)
    return EXIT_OK


def cmd_score(args) -> int:
    genome = genome_from_json(_read(args.genome))
    score = entropy_score(build_graph(genome))
    manifest = _make_manifest("score", [args.genome])
    text = json.dumps({"value": score.value, "per_scale": list(score.per_scale)}, indent=2) + "\n"
    _emit(text, args.out, manifest)
    return EXIT_OK


def _records(image: dict, key: str, path: str) -> list:
    records = image.get(key, [])
    if not isinstance(records, list):
        raise ValidationError("expected a list", path=path)
    for j, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValidationError("expected an object", path=f"{path}[{j}]")
    return records


def _field(records: list, key: str, path: str, default=None) -> list:
    if default is not None:
        return [rec.get(key, default) for rec in records]
    try:
        return [rec[key] for rec in records]
    except KeyError:
        j = next(j for j, rec in enumerate(records) if key not in rec)
        raise ValidationError(f"missing field '{key}'", path=f"{path}[{j}]") from None


def _number_rows(values: list, width: int | None, path: str, key: str) -> np.ndarray:
    """Stack per-record number lists into an (N, width) float64 array in one
    conversion; width None takes the first record's length. When the bulk
    conversion fails, the first bad record is found and named."""
    if not values:
        return np.empty((0, width or 0), dtype=np.float64)
    try:
        rows = np.array(values)
    except ValueError:  # ragged nesting
        rows = None
    if (rows is not None and rows.dtype.kind in "iuf" and rows.ndim == 2
            and (width is None or rows.shape[1] == width)):
        return rows.astype(np.float64, copy=False)
    expected = width
    for j, value in enumerate(values):
        try:
            row = np.array(value)
        except ValueError:
            row = None
        if row is None or row.dtype.kind not in "iuf" or row.ndim != 1:
            raise ValidationError("expected a list of numbers", path=f"{path}[{j}].{key}")
        expected = len(row) if expected is None else expected
        if len(row) != expected:
            like = f" like {path}[0].{key}" if width is None else ""
            raise ValidationError(f"expected {expected} numbers{like}, got {len(row)}",
                                  path=f"{path}[{j}].{key}")
    raise ValidationError(f"expected lists of {expected} numbers", path=f"{path}[*].{key}")


def _first_bad(ok: np.ndarray, message: str, path: str) -> None:
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValidationError(message, path=path.format(int(bad[0])))


def _corners_ok(boxes: np.ndarray) -> np.ndarray:
    return (np.isfinite(boxes).all(axis=1)
            & (boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3]))


def _parse_image(image, idx: int) -> tuple[GroundTruthArrays, PredictionArrays]:
    """One image's JSON lists straight to arrays, validated in bulk; errors name
    the first bad record's field path."""
    path = f"images[{idx}]"
    if not isinstance(image, dict):
        raise ValidationError("expected an object", path=path)
    pp, gp = f"{path}.predictions", f"{path}.ground_truths"
    preds, gts = _records(image, "predictions", pp), _records(image, "ground_truths", gp)

    pred_boxes = _number_rows(_field(preds, "box", pp), 4, pp, "box")
    _first_bad(_corners_ok(pred_boxes), "box corners must be finite with x1 <= x2, y1 <= y2", pp + "[{}].box")
    scores = _number_rows(_field(preds, "cls_scores", pp), None, pp, "cls_scores")
    if preds and scores.shape[1] == 0:
        raise ValidationError("prediction needs at least one class score", path=f"{pp}[0].cls_scores")
    _first_bad(((scores >= 0) & (scores <= 1)).all(axis=1), "class scores must lie in [0, 1]",
               pp + "[{}].cls_scores")
    anchors = _number_rows(_field(preds, "anchor_point", pp, default=(0.0, 0.0)), 2, pp, "anchor_point")
    _first_bad(np.isfinite(anchors).all(axis=1), "anchor point must be finite", pp + "[{}].anchor_point")

    gt_boxes = _number_rows(_field(gts, "box", gp), 4, gp, "box")
    areas = (gt_boxes[:, 2] - gt_boxes[:, 0]) * (gt_boxes[:, 3] - gt_boxes[:, 1])
    _first_bad(_corners_ok(gt_boxes) & (areas > 0), "ground-truth box must be finite with positive area",
               gp + "[{}].box")
    class_ids = _field(gts, "class_id", gp)
    # without predictions, any id the int64 array can hold is in range
    n_classes = scores.shape[1] if preds else np.iinfo(np.int64).max
    for j, cid in enumerate(class_ids):
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise ValidationError("class_id must be an integer", path=f"{gp}[{j}].class_id")
        if not 0 <= cid < n_classes:
            raise ValidationError(f"class_id {cid} out of range [0, {n_classes})", path=f"{gp}[{j}].class_id")
    return (GroundTruthArrays(boxes=gt_boxes, class_ids=np.array(class_ids, dtype=np.int64)),
            PredictionArrays(boxes=pred_boxes, scores=scores, anchors=anchors))


def cmd_assign(args) -> int:
    doc = json.loads(_read(args.input))
    images = doc.get("images") if isinstance(doc, dict) else None
    if not isinstance(images, list):
        raise ValidationError("expected an object holding an 'images' list", path="images")
    solver = sinkhorn_assign if args.solver == "sinkhorn" else dynamic_k_assign
    manifest = _make_manifest("assign", [args.input])
    lines = []
    for idx, image in enumerate(images):
        gts, preds = _parse_image(image, idx)
        result = solver(align_cost(gts, preds, center_prior=args.center_prior))
        lines.append(json.dumps(
            {
                "image": idx,
                "assigned_gt": [a if a is not None else -1 for a in result.assigned_gt],
                "per_gt_k": list(result.per_gt_k),
                "soft_labels": [s for s in result.soft_labels],
                "warnings": list(result.warnings),
            },
            sort_keys=True,
        ))
    if args.out:
        ref = _write_manifest(Path(args.out), manifest)
        lines.insert(0, json.dumps({"manifest": ref}, sort_keys=True))
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _mean(values):
    return float(sum(values) / len(values)) if values else 0.0


def _get(spec, key: str, path: str, default=None):
    """spec[key] of a JSON object, or default when absent; errors name the
    field path. A default of None makes the field required."""
    if not isinstance(spec, dict):
        raise ValidationError("expected an object", path=path or None)
    if key in spec:
        return spec[key]
    if default is None:
        raise ValidationError("missing required field", path=f"{path}.{key}" if path else key)
    return default


def _is_number(value) -> bool:
    # JSON numbers only (no bools); ints too large for a float are rejected
    if type(value) is int:
        return abs(value) < 2 ** 1023
    return type(value) is float and math.isfinite(value)


def _num(spec, key: str, path: str, default=None) -> float:
    value = _get(spec, key, path, default)
    if not _is_number(value):
        raise ValidationError(f"expected a finite number, got {value!r}",
                              path=f"{path}.{key}" if path else key)
    return float(value)


def _num_list(spec, key: str, path: str, length: int | None = None) -> list:
    value = _get(spec, key, path)
    if (not isinstance(value, list) or not value or not all(map(_is_number, value))
            or (length is not None and len(value) != length)):
        raise ValidationError(f"expected a list of {length or 'one or more'} finite numbers",
                              path=f"{path}.{key}")
    return value


def _box(spec, key: str, path: str) -> Box:
    corners = _num_list(spec, key, path, length=4)
    try:
        return Box(*corners)
    except ValidationError as e:
        raise ValidationError(str(e), path=f"{path}.{key}") from None


def cmd_loss(args) -> int:
    base = Path(args.input).parent
    doc = json.loads(_read(args.input))
    if not isinstance(doc, dict):
        raise ValidationError("expected an object", path="input")
    weights_doc = doc.get("weights", {})
    weights = LossWeights(
        qfl=_num(weights_doc, "qfl", "weights", 1.0),
        dfl=_num(weights_doc, "dfl", "weights", 0.25),
        giou=_num(weights_doc, "giou", "weights", 2.0),
    )
    if "components" in doc:
        q, d, g = (_num(doc["components"], k, "components", 0.0) for k in ("qfl", "dfl", "giou"))
    elif "pairs" in doc:
        if not isinstance(doc["pairs"], list):
            raise ValidationError("expected a list", path="pairs")
        qs, ds, gs = [], [], []
        for i, pair in enumerate(doc["pairs"]):
            path = f"pairs[{i}]"
            if not isinstance(pair, dict):
                raise ValidationError("expected an object", path=path)
            if "qfl" in pair:
                spec, sp = pair["qfl"], f"{path}.qfl"
                qs.append(qfl(_num(spec, "pred", sp), _num(spec, "target", sp), _num(spec, "beta", sp, 2.0)))
            if "dfl" in pair:
                spec, sp = pair["dfl"], f"{path}.dfl"
                ds.append(dfl(np.asarray(_num_list(spec, "probs", sp), dtype=np.float64),
                              _num(spec, "target", sp)))
            if "giou" in pair:
                spec, sp = pair["giou"], f"{path}.giou"
                gs.append(giou_loss(_box(spec, "pred_box", sp), _box(spec, "gt_box", sp)))
        q, d, g = _mean(qs), _mean(ds), _mean(gs)
    else:
        raise ValidationError("need either 'components' or 'pairs'", path="input")

    schedule = None
    if "schedule" in doc:
        s = doc["schedule"]
        schedule = DistillSchedule(
            stage1_epochs=int(_num(s, "stage1_epochs", "schedule", 284)),
            stage2_epochs=int(_num(s, "stage2_epochs", "schedule", 16)),
            w_start=_num(s, "w_start", "schedule", 0.5),
            w_end=_num(s, "w_end", "schedule", 0.0),
            mode=_get(s, "mode", "schedule", "cosine"),
        )
    epoch = int(_num(doc, "epoch", "", 0))

    distill = 0.0
    if "distill" in doc:
        spec = doc["distill"]
        files = {}
        for key in ("teacher", "student"):
            files[key] = _get(spec, key, "distill")
            if not isinstance(files[key], list) or not all(isinstance(f, str) for f in files[key]):
                raise ValidationError("expected a list of file names", path=f"distill.{key}")
        try:
            teacher = [load_raw_tensor(base / f) for f in files["teacher"]]
            student = [load_raw_tensor(base / f) for f in files["student"]]
            distill = distill_loss(teacher, student, kind=_get(spec, "kind", "distill", "cwd"))
        except ShapeError as e:  # the tensors' shapes come from the input files
            raise ValidationError(str(e), path="distill") from None

    breakdown = loss_breakdown((q, d, g), weights, distill=distill,
                               epoch=epoch, schedule=schedule)
    manifest = _make_manifest("loss", [args.input])
    text = json.dumps(
        {
            "qfl": breakdown.qfl,
            "dfl": breakdown.dfl,
            "giou": breakdown.giou,
            "distill": breakdown.distill,
            "distill_weight": distill_weight(epoch, schedule) if schedule else 1.0,
            "total": breakdown.total,
        },
        indent=2,
    ) + "\n"
    _emit(text, args.out, manifest)
    return EXIT_OK


def _conv_from_doc(doc: dict, path: str) -> tuple[ConvParams, BnParams]:
    try:
        w = np.asarray(doc["weight"], dtype=np.float32)
        bias = doc.get("bias")
        b = np.zeros(w.shape[0], dtype=np.float32) if bias is None else np.asarray(bias, dtype=np.float32)
        conv = ConvParams(w, b, stride=int(doc.get("stride", 1)),
                          padding=int(doc.get("padding", w.shape[2] // 2)))
        bn_doc = doc["bn"]
        bn = BnParams(
            gamma=np.asarray(bn_doc["gamma"], dtype=np.float32),
            beta=np.asarray(bn_doc["beta"], dtype=np.float32),
            running_mean=np.asarray(bn_doc["mean"], dtype=np.float32),
            running_var=np.asarray(bn_doc["var"], dtype=np.float32),
            epsilon=float(bn_doc.get("eps", 1e-5)),
        )
    except KeyError as e:
        raise ValidationError(f"missing field {e}", path=path) from e
    return conv, bn


def cmd_fold(args) -> int:
    doc = json.loads(_read(args.block))
    for key in ("conv3", "conv1"):
        if key not in doc:
            raise ValidationError("missing required field", path=key)
    conv3, bn3 = _conv_from_doc(doc["conv3"], "conv3")
    conv1, bn1 = _conv_from_doc(doc["conv1"], "conv1")
    identity_bn = None
    if doc.get("identity_bn") is not None:
        bn_doc = doc["identity_bn"]
        identity_bn = BnParams(
            gamma=np.asarray(bn_doc["gamma"], dtype=np.float32),
            beta=np.asarray(bn_doc["beta"], dtype=np.float32),
            running_mean=np.asarray(bn_doc["mean"], dtype=np.float32),
            running_var=np.asarray(bn_doc["var"], dtype=np.float32),
            epsilon=float(bn_doc.get("eps", 1e-5)),
        )
    branches = RepBranchParams(conv3=conv3, bn3=bn3, conv1=conv1, bn1=bn1,
                               identity_bn=identity_bn)
    folded = reparam_fold(branches)
    manifest = _make_manifest("fold", [args.block])
    text = json.dumps(
        {
            "weight": folded.weights.tolist(),
            "bias": folded.bias.tolist(),
            "kernel": 3,
            "stride": folded.stride,
            "padding": folded.padding,
        },
        indent=2,
    ) + "\n"
    _emit(text, args.out, manifest)
    return EXIT_OK


def cmd_preset(args) -> int:
    text = genome_to_json(preset_genome(args.name))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- parser -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="detkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"detkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="budgeted evolutionary architecture search")
    p.add_argument("--space", required=True, help="seed genome JSON")
    p.add_argument("--config", required=True, help="search config JSON")
    p.add_argument("--out", required=True, help="archive NDJSON output")
    p.add_argument("--history", help="optional per-generation CSV (score/latency)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("cost", help="FLOPs / params / modeled latency of a genome")
    p.add_argument("--genome", required=True)
    p.add_argument("--res", help="input resolution (int or HxW); defaults to the genome's")
    p.add_argument("--profile", default="t4-like", help="builtin profile name or JSON path")
    p.add_argument("--strict", action="store_true", help="count normalization and activations")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("score", help="training-free proxy score of a genome")
    p.add_argument("--genome", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("assign", help="aligned label assignment over an image batch")
    p.add_argument("--input", required=True, help="JSON with images[].predictions/ground_truths")
    p.add_argument("--out", help="NDJSON output (stdout when omitted)")
    p.add_argument("--solver", choices=("dynamic-k", "sinkhorn"), default="dynamic-k")
    p.add_argument("--center-prior", action="store_true")
    p.set_defaults(fn=cmd_assign)

    p = sub.add_parser("loss", help="evaluate detection / distillation losses")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_loss)

    p = sub.add_parser("fold", help="fold a multi-branch conv block into one 3x3 conv")
    p.add_argument("--block", required=True, help="branch parameters JSON")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("preset", help="emit a built-in genome")
    p.add_argument("--name", required=True, choices=("s", "tiny"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_preset)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValidationError, json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DetkitError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
