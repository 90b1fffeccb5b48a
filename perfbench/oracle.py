"""Independent re-implementation of aligned assignment, used to check `assign` outputs.

It follows the formulas documented in `detkit.assign` (IoU soft label,
C = -ln(max(alpha, 1e-8)) + (alpha - p)^2 * BCE(p, alpha), candidacy alpha >
1e-8, optional centre prior, dynamic k = clamp(floor(sum of top-q IoUs + 0.5),
1, q) with q = min(10, candidates), lowest (cost, index) wins a conflict) with
scalar loops over the GT/prediction pairs that can overlap. Numpy is used only
to skip pairs whose boxes are disjoint, which have IoU 0 and are never
candidates. It shares no code with the library.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ALPHA_EPS = 1e-8
LOG_EPS = 1e-12
TOPK = 10


@dataclass
class Expected:
    assigned_gt: list[int]          # -1 is background
    per_gt_k: list[int]
    soft_labels: list[float | None]
    candidates: dict[tuple[int, int], float]  # (gt, pred) -> IoU of every candidate pair


def _area(b) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def _iou(a, b) -> float:
    inter = max(0.0, min(a[2], b[2]) - max(a[0], b[0])) * max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    union = _area(a) + _area(b) - inter
    return inter / union if union > 0.0 else 0.0


def _bce(p: float, t: float) -> float:
    p = min(max(p, LOG_EPS), 1.0 - LOG_EPS)
    return -(t * math.log(p) + (1.0 - t) * math.log(1.0 - p))


def assign_image(image: dict, center_prior: bool) -> Expected:
    preds = image["predictions"]
    gts = image["ground_truths"]
    pboxes = np.array([p["box"] for p in preds], dtype=np.float64).reshape(-1, 4)
    n_pred = len(preds)
    candidates: dict[tuple[int, int], float] = {}
    per_gt_k: list[int] = []
    claims: dict[int, list[tuple[float, int]]] = {}
    for i, gt in enumerate(gts):
        g = [float(v) for v in gt["box"]]
        cls = int(gt["class_id"])
        overlap = np.flatnonzero((pboxes[:, 0] < g[2]) & (pboxes[:, 2] > g[0])
                                 & (pboxes[:, 1] < g[3]) & (pboxes[:, 3] > g[1]))
        scored = []
        for j in overlap.tolist():
            p = preds[j]
            alpha = _iou(g, [float(v) for v in p["box"]])
            if alpha <= ALPHA_EPS:
                continue
            if center_prior:
                ax, ay = p.get("anchor_point", (0.0, 0.0))
                if not (g[0] <= ax <= g[2] and g[1] <= ay <= g[3]):
                    continue
            score = float(p["cls_scores"][cls])
            cost = -math.log(max(alpha, ALPHA_EPS)) + (alpha - score) ** 2 * _bce(score, alpha)
            candidates[(i, j)] = alpha
            scored.append((cost, j, alpha))
        if not scored:
            per_gt_k.append(0)
            continue
        q = min(TOPK, len(scored))
        top = sorted((a for _, _, a in scored), reverse=True)[:q]
        k = min(max(math.floor(sum(top) + 0.5), 1), q)
        per_gt_k.append(k)
        for cost, j, _ in sorted(scored)[:k]:
            claims.setdefault(j, []).append((cost, i))
    assigned = [-1] * n_pred
    soft: list[float | None] = [None] * n_pred
    for j, bids in claims.items():
        _, i = min(bids)
        assigned[j] = i
        soft[j] = candidates[(i, j)]
    return Expected(assigned, per_gt_k, soft, candidates)


def assign_file(path, center_prior: bool) -> list[Expected]:
    with open(path) as fh:
        doc = json.load(fh)
    return [assign_image(image, center_prior) for image in doc["images"]]
