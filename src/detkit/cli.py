"""Command-line surface.

Subcommands wrap the library modules with machine-readable outputs:

    detkit search --space genome.json --config search.json --out archive.ndjson
    detkit cost   --genome genome.json --res 640 --profile t4-like
    detkit score  --genome genome.json
    detkit assign --input images.json --out assign.ndjson
    detkit loss   --input pairs.json
    detkit fold   --block branches.json
    detkit preset --name s

Every input document is read through `detkit.fields`, so one rule decides
what a valid field is and every error names its path. Exit codes: 0 ok, 2
input/config error, 3 infeasible search, 4 internal error.
Every output *file* gets a `<file>.manifest.json` sidecar recording the
command, a hash of its options (all but the output paths) and of each input
file as it is read, the seed, the toolkit version, and timestamps; JSON and
NDJSON outputs name it. Keeping timestamps in the sidecar is what lets seeded
runs produce byte-identical primary outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import logging
import math
import sys
import time
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
from .cost import DeviceProfile, _latency_cell, builtin_profile, cost_report, fold_sum
from .errors import DetkitError, InfeasibleError, ShapeError, ValidationError
from .fields import array, column, get, integer, load_json, number, objects, read_utf8, string, strings, within
from .genome import MAX_INPUT_RES, genome_from_json, genome_to_json, preset_genome
from .graph import build_graph
from .losses import (
    QFL_BETA,
    DistillSchedule,
    LossWeights,
    dfl,
    distill_loss,
    giou_loss,
    loss_breakdown,
    qfl,
    total_loss,
)
from .reparam import RepBranchParams, reparam_fold
from .search import SearchConfig, entropy_score, search
from .tensorops import BnParams, ConvParams, load_raw_tensor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4

_NOT_FINITE = "the result is not finite: an input value is out of range"


# the running command's `config_hash`, while it runs and writes a manifest:
# `main` starts it over the options, and `_read_bytes` adds each input file
_digest = None


def _read_bytes(path, field: str | None = None) -> bytes:
    """The one way an input file is read. Its path and bytes go into the
    running command's `config_hash` before the caller decodes them. A missing
    file, or a directory, is an input error; `field` names the document field
    that gave the path."""
    try:
        data = Path(path).read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ValidationError(f"input file not found: {path}", path=field) from None
    if _digest is not None:
        _digest.update(str(path).encode())
        _digest.update(data)
    return data


def _read(path) -> str:
    return read_utf8(_read_bytes(path), path)


def _parse_res(raw: str) -> tuple[int, int]:
    try:
        h, w = raw.lower().split("x") if "x" in raw else (raw, raw)
        res = int(h), int(w)
    except ValueError:
        raise ValidationError(f"--res must be an integer or HxW, got {raw!r}") from None
    if not all(1 <= r <= MAX_INPUT_RES for r in res):
        raise ValidationError(f"dims must be in [1, {MAX_INPUT_RES}]", path="--res")
    return res


def _json(value, **layout) -> str:
    """`value` as JSON text in `json.dumps`' `layout`. NaN or infinity, which
    JSON cannot hold, means that finite inputs overflowed: an input error."""
    try:
        return json.dumps(value, allow_nan=False, **layout)
    except ValueError:
        raise ValidationError(_NOT_FINITE) from None


def _emit(out: str | None, args, *, doc: str | None = None,
          records: list | None = None, text: str | None = None, seed: int | None = None) -> None:
    """Write one primary output, given as a JSON `doc` (one object's text
    in `json.dumps(indent=2)` layout, with its newline), NDJSON `records` or
    plain `text`, to `out` or to stdout. A file gets a `<file>.manifest.json`
    sidecar hashing the command's options `args` and the input files it read;
    a doc names it in a "manifest" key put before its closing brace, records
    in a leading {"manifest": ...} line."""
    ref = None if out is None else Path(out).name + ".manifest.json"
    if doc is not None:
        text = doc if ref is None else f'{doc[:-3]},\n  "manifest": {json.dumps(ref)}\n}}\n'
    elif records is not None:
        head = [] if ref is None else [{"manifest": ref}]
        text = "\n".join(_json(r, sort_keys=True) for r in head + records) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    Path(out + ".manifest.json").write_text(json.dumps({
        "command": args.command,
        "config_hash": _digest.hexdigest(),
        "seed": seed,
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }, indent=2) + "\n")
    Path(out).write_text(text)


# --- subcommands ------------------------------------------------------------------


def cmd_search(args) -> int:
    cfg = SearchConfig.from_json(_read(args.config))
    genome = genome_from_json(_read(args.space))
    # the search's store of lowered segments and entries only grows, so each
    # collection would traverse more of it, and the search makes no cycles
    with _collector_paused():
        archive = search(genome, cfg)
    _emit(args.out, args, records=[e.to_record() for e in archive.sorted_entries()],
          seed=cfg.seed)

    if args.history:
        rows = ["generation,best_score,best_latency_ms"] + [
            f"{gen},{e.score.value:.6f},{_latency_cell(e.latency_ms, 6, 16)}"
            for gen, e in enumerate(archive.leaders)]
        _emit(args.history, args, text="\n".join(rows) + "\n", seed=cfg.seed)
    print(f"wrote {len(archive.entries)} archive entries to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_cost(args) -> int:
    genome = genome_from_json(_read(args.genome))
    res = _parse_res(args.res) if args.res else None
    profile = (DeviceProfile.from_json(_read(args.profile)) if Path(args.profile).exists()
               else builtin_profile(args.profile))
    report = cost_report(build_graph(genome, input_res=res), profile, strict=args.strict)
    # rows are non-negative, so a finite total means finite rows, in either format
    if report.latency_ms is not None and not math.isfinite(report.latency_ms):
        raise ValidationError(_NOT_FINITE)
    if args.format == "table":
        _emit(args.out, args, text=report.to_table())
    else:
        _emit(args.out, args, doc=report.to_json())
    return EXIT_OK


def cmd_score(args) -> int:
    genome = genome_from_json(_read(args.genome))
    score = entropy_score(build_graph(genome))
    _emit(args.out, args, doc=_json({"value": score.value, "per_scale": list(score.per_scale)},
                                    indent=2) + "\n")
    return EXIT_OK


def _parse_image(image) -> tuple[GroundTruthArrays, PredictionArrays]:
    """One image's records straight to arrays through `fields`; the array
    types check the values. Error paths are relative to the image."""
    preds = objects(image, "predictions", default=[])
    pred_arrays = PredictionArrays(
        boxes=column(preds, "box", "predictions", width=4),
        scores=column(preds, "cls_scores", "predictions"),
        anchors=column(preds, "anchor_point", "predictions", width=2, default=(0.0, 0.0)),
    )
    gts = objects(image, "ground_truths", default=[])
    # Python ints, so that an id too large for int64 reaches align_cost's range check
    class_ids = np.array([integer(gt, "class_id", f"ground_truths[{j}]") for j, gt in enumerate(gts)],
                         dtype=object)
    gt_arrays = GroundTruthArrays(boxes=column(gts, "box", "ground_truths", width=4), class_ids=class_ids)
    return gt_arrays, pred_arrays


def _parse_images(path) -> list[tuple[GroundTruthArrays, PredictionArrays]]:
    doc = load_json(_read(path), "assign input")
    if not isinstance(doc, dict):
        raise ValidationError("expected an object holding an 'images' list", path="images")
    images = []
    for idx, image in enumerate(objects(doc, "images")):
        with within(f"images[{idx}]"):
            images.append(_parse_image(image))
    return images


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cycle collector paused, and restore its prior
    state on every exit, so a caller that disabled it finds it still disabled.

    A pause is safe where the block makes no reference cycles, so that
    collections could free nothing; and while `gc.disable` is process-wide,
    detkit runs no threads, so it pauses nothing but the block.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_images(path) -> list[tuple[GroundTruthArrays, PredictionArrays]]:
    """Every image of an assign input file as arrays, read with the cycle
    collector paused.

    `json.loads` of an 8400-prediction image builds ~34k dicts and lists,
    and the collector would traverse that growing tree again and again,
    though a parsed JSON tree holds no reference cycles. The tree dies with
    `_parse_images`' frame, before the collector resumes; resumed with the
    tree alive, its first collection would traverse all of it.
    """
    with _collector_paused():
        return _parse_images(path)


def cmd_assign(args) -> int:
    images = _read_images(args.input)  # every image is read before any is assigned
    solver = sinkhorn_assign if args.solver == "sinkhorn" else dynamic_k_assign
    records = []
    for idx, (gts, preds) in enumerate(images):
        with within(f"images[{idx}]"):
            result = solver(align_cost(gts, preds, center_prior=args.center_prior))
        records.append({
            "image": idx,
            "assigned_gt": [a if a is not None else -1 for a in result.assigned_gt],
            "per_gt_k": list(result.per_gt_k),
            "soft_labels": [s for s in result.soft_labels],
            "warnings": list(result.warnings),
        })
    _emit(args.out, args, records=records)
    return EXIT_OK


def _mean(values):
    return float(fold_sum(values) / len(values)) if values else 0.0


def _box(spec, key: str) -> Box:
    corners = array(spec, key).tolist()
    with within(key):
        if len(corners) != 4:
            raise ValidationError(f"expected 4 numbers, got {len(corners)}")
        return Box(*corners)


def cmd_loss(args) -> int:
    base = Path(args.input).parent
    doc = load_json(_read(args.input), "loss input")
    if not isinstance(doc, dict):
        raise ValidationError("expected an object", path="input")
    weights_doc = get(doc, "weights", default={})
    with within("weights"):
        weights = LossWeights(*(number(weights_doc, k, default=getattr(LossWeights, k))
                                for k in ("qfl", "dfl", "giou")))
    if "components" in doc:
        with within("components"):
            q, d, g = (number(doc["components"], k, default=0.0) for k in ("qfl", "dfl", "giou"))
            total_loss((q, d, g), weights)  # rejects a negative component here, so its error names it
    elif "pairs" in doc:
        qs, ds, gs = [], [], []
        for i, pair in enumerate(objects(doc, "pairs")):
            if "qfl" in pair:
                with within(f"pairs[{i}].qfl"):
                    spec = pair["qfl"]
                    qs.append(qfl(number(spec, "pred"), number(spec, "target"),
                                  number(spec, "beta", default=QFL_BETA)))
            if "dfl" in pair:
                with within(f"pairs[{i}].dfl"):
                    ds.append(dfl(array(pair["dfl"], "probs"), number(pair["dfl"], "target")))
            if "giou" in pair:
                with within(f"pairs[{i}].giou"):
                    gs.append(giou_loss(_box(pair["giou"], "pred_box"), _box(pair["giou"], "gt_box")))
        q, d, g = _mean(qs), _mean(ds), _mean(gs)
    else:
        raise ValidationError("need either 'components' or 'pairs'", path="input")

    schedule = None
    if "schedule" in doc:
        s = doc["schedule"]
        with within("schedule"):
            schedule = DistillSchedule(
                stage1_epochs=integer(s, "stage1_epochs", default=DistillSchedule.stage1_epochs),
                stage2_epochs=integer(s, "stage2_epochs", default=DistillSchedule.stage2_epochs),
                w_start=number(s, "w_start", default=DistillSchedule.w_start),
                w_end=number(s, "w_end", default=DistillSchedule.w_end),
                mode=string(s, "mode", default=DistillSchedule.mode),
            )
    epoch = integer(doc, "epoch", default=0)

    distill = 0.0
    if "distill" in doc:
        spec = doc["distill"]
        teacher_files, student_files = strings(spec, "teacher", "distill"), strings(spec, "student", "distill")
        kind = string(spec, "kind", "distill", "cwd")
        try:
            teacher = [load_raw_tensor(base / f, functools.partial(_read_bytes, field=f"distill.teacher[{i}]"))
                       for i, f in enumerate(teacher_files)]
            student = [load_raw_tensor(base / f, functools.partial(_read_bytes, field=f"distill.student[{i}]"))
                       for i, f in enumerate(student_files)]
            with within("distill"):
                distill = distill_loss(teacher, student, kind=kind)
        except ShapeError as e:  # the tensors' shapes come from the input files
            raise ValidationError(str(e), path="distill") from None

    breakdown = loss_breakdown((q, d, g), weights, distill=distill,
                               epoch=epoch, schedule=schedule)
    _emit(args.out, args, doc=_json({
        "qfl": breakdown.qfl,
        "dfl": breakdown.dfl,
        "giou": breakdown.giou,
        "distill": breakdown.distill,
        "distill_weight": breakdown.distill_weight,
        "total": breakdown.total,
    }, indent=2) + "\n")
    return EXIT_OK


# the fold block's keys for the ConvParams and BnParams fields whose values those types check
_FOLD_KEYS = {"weights": "weight", "running_var": "var"}


def _bn_from_doc(doc, path: str) -> BnParams:
    with within(path, _FOLD_KEYS):
        return BnParams(
            gamma=array(doc, "gamma"),
            beta=array(doc, "beta"),
            running_mean=array(doc, "mean"),
            running_var=array(doc, "var"),
            epsilon=number(doc, "eps", default=BnParams.epsilon),
        )


def _conv_from_doc(doc, path: str) -> tuple[ConvParams, BnParams]:
    with within(path, _FOLD_KEYS):
        w = array(doc, "weight", ndim=4)
        bias = get(doc, "bias", default=None)
        conv = ConvParams(w, np.zeros(w.shape[0]) if bias is None else array(doc, "bias"),
                          stride=integer(doc, "stride", default=ConvParams.stride),
                          padding=integer(doc, "padding", default=w.shape[2] // 2))
    return conv, _bn_from_doc(get(doc, "bn", path), f"{path}.bn")


def cmd_fold(args) -> int:
    doc = load_json(_read(args.block), "fold block")
    try:
        conv3, bn3 = _conv_from_doc(get(doc, "conv3"), "conv3")
        conv1, bn1 = _conv_from_doc(get(doc, "conv1"), "conv1")
        identity_doc = get(doc, "identity_bn", default=None)
        identity_bn = None if identity_doc is None else _bn_from_doc(identity_doc, "identity_bn")
        folded = reparam_fold(RepBranchParams(conv3=conv3, bn3=bn3, conv1=conv1, bn1=bn1,
                                              identity_bn=identity_bn))
    except ShapeError as e:  # every shape comes from the block document
        raise ValidationError(str(e), path="block") from None
    _emit(args.out, args, doc=_json({
        "weight": folded.weights.tolist(),
        "bias": folded.bias.tolist(),
        "kernel": 3,
        "stride": folded.stride,
        "padding": folded.padding,
    }, indent=2) + "\n")
    return EXIT_OK


def cmd_preset(args) -> int:
    _emit(args.out, args, text=genome_to_json(preset_genome(args.name)))
    return EXIT_OK


# --- parser -------------------------------------------------------------------------


@functools.cache  # built once per process: main() only reads it
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
    global _digest
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = _build_parser().parse_args(argv)
    if args.out is not None:  # every parsed option but the output paths; input files follow as read
        options = {k: v for k, v in vars(args).items() if k not in ("fn", "out", "history")}
        _digest = hashlib.sha256(json.dumps(options, sort_keys=True).encode())
    try:
        return args.fn(args)
    except InfeasibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValidationError, UnicodeDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DetkitError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        _digest = None


if __name__ == "__main__":
    sys.exit(main())
