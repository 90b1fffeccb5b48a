"""Tests of the benchmark itself: its output checks catch corrupted outputs,
the measurement loop counts them as failures, and the tracer's bookkeeping.

    PYTHONPATH=src python -m pytest perfbench
"""
from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import workloads
from detkit import cli
from spans import Tracer, install, layer_metrics
from worker import measure
from workloads import CheckFailed


def _archive(entries) -> bytes:
    lines = [json.dumps({"manifest": "a.ndjson.manifest.json"})] + [json.dumps(e) for e in entries]
    return ("\n".join(lines) + "\n").encode()


def test_archive_check_rejects_over_budget_and_dominated_entries():
    good = [{"score": 10.0, "latency_ms": 4.0}, {"score": 9.0, "latency_ms": 3.0}]
    workloads.check_archive(_archive(good), budget_ms=4.5)
    with pytest.raises(CheckFailed):
        workloads.check_archive(_archive(good), budget_ms=3.5)
    with pytest.raises(CheckFailed):
        workloads.check_archive(_archive(good + [{"score": 8.0, "latency_ms": 4.0}]), budget_ms=4.5)
    with pytest.raises(CheckFailed):
        workloads.check_archive(_archive([]), budget_ms=4.5)


def test_search_repeat_mismatch_fails(tmp_path, monkeypatch):
    wl = workloads.SearchWorkload(0, tmp_path)
    wl.prepare()
    wl.load()
    monkeypatch.setattr(wl, "_config", lambda seed, pop, gen: json.dumps({
        "population": 2, "generations": 1, "mutations_per_child": 1,
        "latency_budget_ms": wl.budget_ms, "seed": seed}))
    inp = wl.next_input()
    wl.call(inp)
    wl.check(inp, None)
    wl.repeated = False
    inp["out"].write_bytes(inp["out"].read_bytes().replace(b'{"manifest"', b'{ "manifest"'))
    with pytest.raises(CheckFailed):
        wl.check(inp, None)


def test_cost_report_check_rejects_wrong_totals(tmp_path):
    wl = workloads.SweepWorkload(0, tmp_path)
    wl.prepare()
    wl.load()
    _, report, _ = wl.call(wl.next_input())
    workloads.check_cost_report(report)
    doc = json.loads(report)
    doc["flops"] += 1
    with pytest.raises(CheckFailed):
        workloads.check_cost_report(json.dumps(doc))


def test_measure_counts_corrupted_outputs_as_failures(tmp_path, monkeypatch):
    wl = workloads.SweepWorkload(0, tmp_path)
    wl.prepare()
    wl.load()
    clean = measure(wl, 0.02)
    assert clean.attempted >= 1 and clean.failed == 0 and clean.items == clean.attempted

    def corrupted(text):
        score, report, nodes = wl._evaluate(text)
        doc = json.loads(report)
        doc["per_node"][0]["params"] += 1
        return score, json.dumps(doc), nodes

    monkeypatch.setattr(wl, "call", corrupted)
    bad = measure(wl, 0.02)
    assert bad.attempted >= 1 and bad.failed == bad.attempted and bad.items == 0


def test_sweep_genomes_are_seeded_and_distinct():
    bases = {"s": {"backbone": [{"kind": "Res", "in_ch": 3, "out_ch": 32, "depth": 1}],
                   "neck": {"depth": 1, "widths": [32, 64, 96]}, "head": {"head_depth": 0}}}
    first = [t for t, _ in zip(workloads.sweep_genomes(3, bases), range(200))]
    again = [t for t, _ in zip(workloads.sweep_genomes(3, bases), range(200))]
    assert first == again
    assert len({text for text, _ in first}) == 200


def _assign(tmp_path, image, sinkhorn):
    path = tmp_path / "image.json"
    path.write_text(json.dumps({"images": [image]}))
    out = tmp_path / "out.ndjson"
    argv = ["assign", "--input", str(path), "--out", str(out)]
    if sinkhorn:
        argv += ["--solver", "sinkhorn", "--center-prior"]
    assert cli.main(argv) == 0
    return out.read_bytes(), oracle.assign_file(path, center_prior=sinkhorn)


@pytest.mark.parametrize("seed", range(3))
def test_assignment_matches_oracle_and_catches_corruption(tmp_path, seed):
    image = workloads.make_image(np.random.default_rng(seed), 6, size=128)
    data, expected = _assign(tmp_path, image, sinkhorn=False)
    workloads.check_assignment(data, expected, exact=True)
    assert any(a >= 0 for a in expected[0].assigned_gt)

    header, line = data.decode().splitlines()
    rec = json.loads(line)
    j = next(j for j, a in enumerate(rec["assigned_gt"]) if a >= 0)
    rec["assigned_gt"][j] = -1
    with pytest.raises(CheckFailed):
        workloads.check_assignment(f"{header}\n{json.dumps(rec)}\n".encode(), expected, exact=True)

    data, expected = _assign(tmp_path, image, sinkhorn=True)
    workloads.check_assignment(data, expected, exact=False)
    rec = json.loads(data.decode().splitlines()[1])
    j = next(j for j, a in enumerate(rec["assigned_gt"]) if a >= 0)
    rec["soft_labels"][j] += 0.125
    with pytest.raises(CheckFailed):
        workloads.check_assignment(f"{header}\n{json.dumps(rec)}\n".encode(), expected, exact=False)


def test_distill_check_catches_corruption():
    raw = workloads.make_step(np.random.default_rng(0), size=64, teacher_widths=(8, 8, 8),
                              student_widths=(4, 4, 4), rep_channels=4)
    step = workloads.build_step(raw)
    out = workloads.distill_step(step)
    workloads.check_step(out, step["epoch"])
    for corrupt in ({"total": out["total"] + 1e-6}, {"fold_gap": 1.0}, {"distill": -1.0}):
        with pytest.raises(CheckFailed):
            workloads.check_step({**out, **corrupt}, step["epoch"])


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 0],
                    ["leaf", 2.0, 3.0, 1, 0], ["inner", 5.0, 6.0, 0, 0]]
    self_s, calls = tracer.self_times()
    assert self_s == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_wrappers_restore_originals_and_skip_when_disabled():
    def double(x):
        return 2 * x

    owner = SimpleNamespace(double=double)
    table = {"double": double}
    tracer = Tracer()
    tracer.patch(owner, "double", "double")
    tracer.patch(table, "double", "double")
    assert owner.double(2) == 4 and table["double"](3) == 6
    assert [s[0] for s in tracer.spans] == ["double", "double"]
    tracer.enabled = False
    owner.double(1)
    assert len(tracer.spans) == 2
    tracer.uninstall()
    assert owner.double is double and table["double"] is double


def test_traced_sweep_call_reports_its_layers(tmp_path):
    wl = workloads.SweepWorkload(0, tmp_path)
    wl.prepare()
    wl.load()
    tracer = Tracer(budget_ms=wl.budget_ms)
    install(tracer)
    try:
        out = wl.call(wl.next_input())
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = layer_metrics(tracer, items=1, overhead_frac=0.0)
    assert metrics["graph.build_graph.calls"][0] == 1
    assert metrics["graph.nodes_per_graph"][0] == out[2]
    assert metrics["graph.topo_order.calls"][0] >= 1
    assert metrics["search.unique_frac"][0] == 1
    assert metrics["cost.to_json.self_ms"][0] > 0
    assert metrics["assign.pairs"][0] == 0
