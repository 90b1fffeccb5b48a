"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np

from detkit.assign import align_cost, dynamic_k_assign
from detkit.cost import cost_report
from detkit.genome import NeckConfig, preset_genome
from detkit.graph import GraphBuilder, build_graph
from detkit.losses import DistillSchedule, cwd_loss, dfl, distill_weight, giou_loss, qfl
from detkit.reparam import RepBranchParams, rep_branches_forward, reparam_fold
from detkit.search import search
from detkit.tensorops import BnParams, ConvParams, Tensor4, conv2d_forward
from detkit.cost import builtin_profile

from test_assign import naive_assign, random_instance, stack
from test_search import make_cfg


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def _rand_bn(rng, ch):
    return BnParams(
        gamma=rng.uniform(0.5, 1.5, ch).astype(np.float32),
        beta=rng.standard_normal(ch).astype(np.float32),
        running_mean=rng.standard_normal(ch).astype(np.float32),
        running_var=rng.uniform(0.2, 2.0, ch).astype(np.float32),
        epsilon=1e-5,
    )


def test_criterion_1_reparam_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        in_ch = int(rng.integers(1, 8))
        same = bool(rng.integers(0, 2))
        out_ch = in_ch if same else int(rng.integers(1, 8))
        stride = int(rng.choice([1, 2]))
        identity = same and stride == 1 and bool(rng.integers(0, 2))
        conv3 = ConvParams(rng.standard_normal((out_ch, in_ch, 3, 3)).astype(np.float32),
                           rng.standard_normal(out_ch).astype(np.float32),
                           stride=stride, padding=1)
        conv1 = ConvParams(rng.standard_normal((out_ch, in_ch, 1, 1)).astype(np.float32),
                           rng.standard_normal(out_ch).astype(np.float32),
                           stride=stride, padding=0)
        branches = RepBranchParams(conv3, _rand_bn(rng, out_ch), conv1, _rand_bn(rng, out_ch),
                                   _rand_bn(rng, out_ch) if identity else None)
        x = Tensor4(rng.standard_normal((2, in_ch, 10, 10)).astype(np.float32))
        gap = np.abs(rep_branches_forward(x, branches).data
                     - conv2d_forward(x, reparam_fold(branches)).data).max()
        worst = max(worst, float(gap))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    _report(1, ok, f"reparam fold max |gap| = {worst:.2e} (tol 1e-5), {elapsed:.1f}s (< 10s)")


def test_criterion_2_alignota_oracle_equivalence():
    start = time.monotonic()
    # spot values, re-derived by the scripted oracle in-line
    c_reg_half = -math.log(0.5)
    alpha, p = 0.8, 0.2
    bce = -(alpha * math.log(p) + (1 - alpha) * math.log(1 - p))
    c_cls_oracle = (alpha - p) ** 2 * bce
    spot_ok = (abs(c_reg_half - 0.693147) < 1e-6 and abs(c_cls_oracle - 0.479584) < 1e-5)

    rng = np.random.default_rng(1002)
    mismatches = 0
    for _ in range(1000):
        gts, preds, gb, gc, pb, ps = random_instance(rng, max_preds=8, max_gts=3)
        got = dynamic_k_assign(align_cost(*stack(gts, preds)))
        exp_assigned, exp_k, _ = naive_assign(gb, gc, pb, ps)
        if list(got.assigned_gt) != exp_assigned or list(got.per_gt_k) != exp_k:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = spot_ok and mismatches == 0 and elapsed < 30.0
    _report(2, ok, f"oracle mismatches = {mismatches}/1000, spot values ok = {spot_ok}, "
                   f"{elapsed:.1f}s (< 30s)")


def test_criterion_3_loss_analytic_oracles():
    qfl_ok = abs(qfl(0.5, 1.0, 2.0) - 0.173287) < 1e-6
    p = np.zeros(8)
    p[2] = p[3] = 0.5
    optimum = dfl(p, 2.5)
    dfl_ok = abs(optimum - math.log(2.0)) < 1e-6
    grid_min = math.inf
    for step in range(1001):
        t = step / 1000.0
        q = np.zeros(8)
        q[2], q[3] = t, 1.0 - t
        grid_min = min(grid_min, dfl(q, 2.5))
    grid_ok = grid_min >= optimum - 1e-9
    from detkit.assign import Box
    giou_ok = abs(giou_loss(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) - 1.079365) < 1e-5
    ok = qfl_ok and dfl_ok and grid_ok and giou_ok
    _report(3, ok, f"qfl ok = {qfl_ok}, dfl optimum ok = {dfl_ok}, "
                   f"grid(1e-3) min = {grid_min:.6f} >= ln 2, giou ok = {giou_ok}")


def test_criterion_4_cwd_properties():
    rng = np.random.default_rng(1004)
    t = Tensor4(rng.standard_normal((2, 4, 5, 5)).astype(np.float32))
    zero_ok = cwd_loss(t, t) < 1e-12

    neg = 0
    for _ in range(500):
        shape = (1, int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = Tensor4((rng.standard_normal(shape) * rng.uniform(0.1, 3)).astype(np.float32))
        b = Tensor4((rng.standard_normal(shape) * rng.uniform(0.1, 3)).astype(np.float32))
        if cwd_loss(a, b) < 0:
            neg += 1

    t_val = math.log(3.0) * 1e-3
    teacher = Tensor4(np.array([t_val, 0, 0, 0], dtype=np.float32).reshape(1, 1, 2, 2))
    student = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32))
    kl_hand = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    expected = (1e-3) ** 2 * kl_hand
    hand_gap = abs(cwd_loss(teacher, student) - expected)
    ok = zero_ok and neg == 0 and hand_gap < 1e-6
    _report(4, ok, f"identical -> 0 ok = {zero_ok}, negatives = {neg}/500, "
                   f"hand 2x2 gap = {hand_gap:.2e} (tol 1e-6)")


def test_criterion_5_distill_schedule():
    schedule = DistillSchedule(stage1_epochs=284, stage2_epochs=16, w_start=0.5, w_end=0.0)
    e0 = abs(distill_weight(0, schedule) - 0.5)
    e142 = abs(distill_weight(142, schedule) - 0.25)
    tail = max(abs(distill_weight(e, schedule)) for e in range(284, 300))
    ok = e0 < 1e-12 and e142 < 1e-12 and tail < 1e-12
    _report(5, ok, f"|w(0)-0.5| = {e0:.1e}, |w(142)-0.25| = {e142:.1e}, "
                   f"max |w(284..299)| = {tail:.1e} (all < 1e-12)")


def test_criterion_6_flops_exactness_and_calibration():
    gb = GraphBuilder()
    x = gb.input((1, 64, 32, 32))
    y = gb.conv(x, 64, name="conv", kernel=3, bias=True, norm=False, act=None)
    g = gb.finish(outputs=(y,))
    exact = cost_report(g)
    exact_ok = exact.flops == 75_497_472 and exact.params == 36_928

    graph = build_graph(preset_genome("s"), input_res=(640, 640))
    report = cost_report(graph)
    flops, params = report.flops, report.params
    flops_err = abs(flops - 37.8e9) / 37.8e9
    params_err = abs(params - 16.3e6) / 16.3e6
    ok = exact_ok and flops_err < 0.15 and params_err < 0.15
    _report(6, ok, f"hand values ok = {exact_ok}, small genome {flops/1e9:.2f} GFLOPs "
                   f"(err {flops_err:.1%} < 15%), {params/1e6:.2f} M params "
                   f"(err {params_err:.1%} < 15%)")


def test_criterion_7_search_determinism_and_feasibility():
    start = time.monotonic()
    genome = preset_genome("tiny")
    seed_latency = cost_report(build_graph(genome), builtin_profile("t4-like")).latency_ms
    cfg = make_cfg(population=6, generations=20, seed=2024,
                   latency_budget_ms=1.3 * seed_latency)
    a1 = search(genome, cfg)
    a2 = search(genome, cfg)
    identical = a1.to_ndjson().encode() == a2.to_ndjson().encode()
    within = all(e.latency_ms <= cfg.latency_budget_ms for e in a1.entries)
    gen0 = [s for s, _, feasible in a1.history[0] if feasible]
    improves = a1.best.score.value >= max(gen0)
    elapsed = time.monotonic() - start
    ok = identical and within and improves and elapsed < 60.0
    _report(7, ok, f"byte-identical = {identical}, within budget = {within}, "
                   f"best >= gen-0 = {improves}, {elapsed:.1f}s (< 60s)")


def test_criterion_8_neck_ablation_structure():
    base = preset_genome("s")
    configs = [(2, (192, 192, 192)), (2, (128, 256, 512)), (4, (64, 128, 256)),
               (3, (96, 192, 384)), (3, (160, 160, 160))]

    def neck_flops(depth, widths, extra_up=False):
        g = replace(base, neck=NeckConfig(depth=depth, widths=widths,
                                          fusion_style="CspReparamElan",
                                          extra_upsample=extra_up))
        report = cost_report(build_graph(g))
        return sum(n.flops for n in report.per_node if n.name.startswith("neck."))

    # strict monotonicity in (depth, width): dominated variants always cost more
    monotone = True
    for depth, widths in configs:
        f = neck_flops(depth, widths)
        if neck_flops(depth + 1, widths) <= f:
            monotone = False
        wider = tuple(w + 32 for w in widths)
        if neck_flops(depth, wider) <= f:
            monotone = False

    # the five published configs rank in the published total-FLOPs order
    ranked = [neck_flops(d, w) for d, w in configs]
    ranking_ok = ranked == sorted(ranked) and len(set(ranked)) == len(ranked)

    up_delta = neck_flops(3, (96, 192, 384), extra_up=True) - neck_flops(3, (96, 192, 384))
    up_ok = up_delta > 0
    ok = monotone and ranking_ok and up_ok
    _report(8, ok, f"monotone in (depth, width) = {monotone}, published ranking ok = "
                   f"{ranking_ok}, extra upsample adds {up_delta/1e9:.3f} GFLOPs (> 0)")
