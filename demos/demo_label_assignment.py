"""Aligned label assignment on a small synthetic scene.

Shows the aligned cost (regression and classification coupled through the
IoU soft label), the per-target dynamic k, and conflict resolution.

    python demos/demo_label_assignment.py
"""
import numpy as np

from detkit.assign import GroundTruthArrays, PredictionArrays, align_cost, dynamic_k_assign

gts = GroundTruthArrays(
    boxes=np.array([[10, 10, 50, 50], [40, 40, 80, 80]], dtype=np.float64),
    class_ids=np.array([0, 1]),
)

preds = PredictionArrays(
    boxes=np.array([
        [12, 11, 49, 52],  # good for gt0
        [9, 12, 51, 48],   # ok for gt0
        [42, 39, 78, 82],  # good for gt1
        [30, 30, 70, 70],  # contested
        [90, 90, 99, 99],  # background
    ], dtype=np.float64),
    scores=np.array([[0.9, 0.1], [0.4, 0.2], [0.2, 0.8], [0.5, 0.5], [0.9, 0.9]]),
    anchors=np.array([[30, 30], [28, 31], [60, 60], [50, 50], [95, 95]], dtype=np.float64),
)

matrix = align_cost(gts, preds)
print("aligned cost matrix (rows = ground truths, inf = not a candidate):")
for i, costs in enumerate(matrix.costs):
    row = "  ".join(f"{c:8.3f}" for c in costs)
    print(f"  gt{i}: {row}")

result = dynamic_k_assign(matrix)
print(f"\ndynamic k per ground truth: {result.per_gt_k}")
for j, (gt, soft) in enumerate(zip(result.assigned_gt, result.soft_labels)):
    if gt is None:
        print(f"  pred {j}: background")
    else:
        print(f"  pred {j}: gt {gt}, soft classification target {soft:.3f}")

# a well-placed but badly classified prediction costs more than a slightly
# worse box with a confident, correct score
gt0 = GroundTruthArrays(boxes=gts.boxes[:1], class_ids=gts.class_ids[:1])
sloppy_box_and_wrong_cls = PredictionArrays(
    boxes=np.array([[13, 13, 48, 49], [10, 10, 50, 50]], dtype=np.float64),
    scores=np.array([[0.85, 0.1], [0.05, 0.9]]),
    anchors=np.zeros((2, 2)),
)
m = align_cost(gt0, sloppy_box_and_wrong_cls)
print(f"\nalignment at work: sloppy box {m.costs[0, 0]:.3f} < wrong class {m.costs[0, 1]:.3f}")
