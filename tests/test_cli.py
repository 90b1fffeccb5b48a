import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit.assign import Box, GroundTruth, Prediction, align_cost, dynamic_k_assign
from detkit.cli import main
from detkit.genome import genome_from_json, genome_to_json, preset_genome
from detkit.tensorops import Tensor4, save_raw_tensor


@pytest.fixture
def tiny_genome_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(genome_to_json(preset_genome("tiny")))
    return path


@pytest.fixture
def search_config_path(tmp_path):
    path = tmp_path / "search.json"
    path.write_text(json.dumps({
        "population": 4,
        "generations": 3,
        "mutations_per_child": 1,
        "latency_budget_ms": 50.0,
        "seed": 7,
        "device_profile": "t4-like",
    }))
    return path


def single_conv_genome_doc():
    return {
        "schema_version": 1,
        "num_classes": 80,
        "input_res": [32, 32],
        "backbone": [
            {"kind": "ConvBnAct", "in_ch": 64, "out_ch": 64, "stride": 1, "depth": 1, "kernel": 3},
        ],
        "neck": None,
        "head": None,
    }


# (fields overriding a valid search config, field path the error must name)
BAD_SEARCH_CONFIGS = [
    ({"tournament_size": 0}, "tournament_size"),
    ({"tournament_size": "2"}, "tournament_size"),
    ({"mutation_ops": []}, "mutation_ops"),
    ({"mutation_ops": "widen"}, "mutation_ops"),
    ({"mutation_ops": ["widen", "grow"]}, "mutation_ops"),
    ({"latency_budget_ms": "abc"}, "latency_budget_ms"),
    ({"latency_budget_ms": [5]}, "latency_budget_ms"),
    ({"width_step": 0}, "width_step"),
    ({"width_step": 8.5}, "width_step"),
    ({"width_min": 64, "width_max": 32}, "width_min"),
    ({"depth_max": 0}, "depth_max"),
    ({"population": "many"}, "population"),
]


class TestSearchCommand:
    def test_fixed_seed_byte_identical_archives(self, tmp_path, tiny_genome_path, search_config_path):
        out1 = tmp_path / "a1.ndjson"
        out2 = tmp_path / "a2.ndjson"
        assert main(["search", "--space", str(tiny_genome_path), "--config",
                     str(search_config_path), "--out", str(out1)]) == 0
        assert main(["search", "--space", str(tiny_genome_path), "--config",
                     str(search_config_path), "--out", str(out2)]) == 0
        b1 = out1.read_bytes()
        b2 = out2.read_bytes()
        # identical except the manifest reference line, which names the file
        l1 = b1.split(b"\n")
        l2 = b2.split(b"\n")
        assert l1[1:] == l2[1:]
        assert json.loads(l1[0])["manifest"] == "a1.ndjson.manifest.json"
        assert (tmp_path / "a1.ndjson.manifest.json").exists()
        # rerunning onto the same path reproduces the file byte for byte
        assert main(["search", "--space", str(tiny_genome_path), "--config",
                     str(search_config_path), "--out", str(out1)]) == 0
        assert out1.read_bytes() == b1

    def test_tiny_budget_exits_3_with_infeasible_message(self, tmp_path, capsys,
                                                         tiny_genome_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "population": 2, "generations": 1, "mutations_per_child": 1,
            "latency_budget_ms": 0.001, "seed": 0,
        }))
        code = main(["search", "--space", str(tiny_genome_path), "--config", str(cfg),
                     "--out", str(tmp_path / "x.ndjson")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err.lower()

    def test_archive_entries_within_budget_by_cost_replay(self, tmp_path, tiny_genome_path,
                                                          search_config_path):
        out = tmp_path / "archive.ndjson"
        hist = tmp_path / "history.csv"
        assert main(["search", "--space", str(tiny_genome_path), "--config",
                     str(search_config_path), "--out", str(out), "--history", str(hist)]) == 0
        budget = json.loads(search_config_path.read_text())["latency_budget_ms"]
        lines = out.read_text().splitlines()
        assert len(lines) >= 2
        for line in lines[1:]:
            record = json.loads(line)
            genome_path = tmp_path / "replay.json"
            genome_path.write_text(json.dumps(record["genome"]))
            cost_out = tmp_path / "replay_cost.json"
            assert main(["cost", "--genome", str(genome_path), "--out", str(cost_out)]) == 0
            replayed = json.loads(cost_out.read_text())
            assert replayed["flops"] == record["flops"]
            assert replayed["params"] == record["params"]
            assert replayed["latency_ms"] == pytest.approx(record["latency_ms"], rel=1e-12)
            assert record["latency_ms"] <= budget
        header, *rows = hist.read_text().splitlines()
        assert header == "generation,best_score,best_latency_ms"
        assert len(rows) == 3 + 1

    def test_config_error_exits_2(self, tmp_path, tiny_genome_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{\"population\": 2")
        assert main(["search", "--space", str(tiny_genome_path), "--config", str(cfg),
                     "--out", str(tmp_path / "x.ndjson")]) == 2


    @pytest.mark.parametrize("changes, where", BAD_SEARCH_CONFIGS,
                             ids=[f"{where}={changes[where]!r}" for changes, where in BAD_SEARCH_CONFIGS])
    def test_degenerate_config_exits_2_naming_the_field(self, tmp_path, capsys, search_config_path,
                                                        tiny_genome_path, changes, where):
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps({**json.loads(search_config_path.read_text()), **changes}))
        assert main(["search", "--space", str(tiny_genome_path), "--config", str(cfg),
                     "--out", str(tmp_path / "x.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err


class TestCostCommand:
    def test_single_conv_genome_hand_value(self, tmp_path, capsys):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(single_conv_genome_doc()))
        assert main(["cost", "--genome", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops"] == 75_497_472

    def test_res_320_vs_640_conv_flops_ratio_4(self, tmp_path, capsys):
        path = tmp_path / "conv.json"
        doc = single_conv_genome_doc()
        doc["input_res"] = [640, 640]
        path.write_text(json.dumps(doc))
        flops = {}
        for res in ("320", "640"):
            assert main(["cost", "--genome", str(path), "--res", res]) == 0
            flops[res] = json.loads(capsys.readouterr().out)["flops"]
        assert flops["640"] == 4 * flops["320"]

    def test_s_genome_near_published_budget(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main(["preset", "--name", "s", "--out", str(path)]) == 0
        assert main(["cost", "--genome", str(path), "--res", "640"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["flops"] - 37.8e9) / 37.8e9 < 0.15
        assert abs(doc["params"] - 16.3e6) / 16.3e6 < 0.15

    def test_schema_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1}))
        assert main(["cost", "--genome", str(path)]) == 2

    def test_table_format(self, tmp_path, capsys):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(single_conv_genome_doc()))
        assert main(["cost", "--genome", str(path), "--format", "table"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_profile_from_file(self, tmp_path, capsys):
        genome = tmp_path / "conv.json"
        genome.write_text(json.dumps(single_conv_genome_doc()))
        profile = tmp_path / "dev.json"
        profile.write_text(json.dumps({"name": "dev", "flops_per_ms": 75_497_472.0,
                                       "bytes_per_ms": 1e12, "per_op_overhead_ms": 0.0}))
        assert main(["cost", "--genome", str(genome), "--profile", str(profile)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latency_ms"] == pytest.approx(1.0)


class TestScoreCommand:
    def test_score_matches_library(self, tmp_path, capsys, tiny_genome_path):
        assert main(["score", "--genome", str(tiny_genome_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        from detkit.graph import build_graph
        from detkit.search import entropy_score
        expected = entropy_score(build_graph(preset_genome("tiny")))
        assert doc["value"] == pytest.approx(expected.value, rel=1e-12)
        assert doc["per_scale"] == pytest.approx(list(expected.per_scale), rel=1e-12)


def _pred(box=(0, 0, 4, 4), scores=(0.9,), **extra):
    return {"box": list(box), "cls_scores": list(scores), **extra}


def _gt(box=(0, 0, 4, 4), class_id=0):
    return {"box": list(box), "class_id": class_id}


def _image(preds=(), gts=()):
    return {"images": [{"predictions": list(preds), "ground_truths": list(gts)}]}


# (input document or raw text, extra flags, field path the error must name)
BAD_ASSIGN_INPUTS = [
    ([], [], "images"),
    ({"images": {}}, [], "images"),
    ({"images": [5]}, [], "images[0]"),
    ({"images": [{"predictions": {}}]}, [], "images[0].predictions"),
    ({"images": [{"ground_truths": [[0, 0, 4, 4]]}]}, [], "images[0].ground_truths[0]"),
    (_image([{"box": [0, 0, 1, 1]}]), [], "images[0].predictions[0]"),
    (_image([_pred(), _pred(scores=(0.5, 0.5))]), [], "images[0].predictions[1].cls_scores"),
    (_image([_pred(anchor_point=[1.0])]), ["--center-prior"], "images[0].predictions[0].anchor_point"),
    (_image([_pred(), _pred(anchor_point=["x", 1])]), [], "images[0].predictions[1].anchor_point"),
    (_image([_pred(), _pred(box=(2, 0, 1, 1))]), [], "images[0].predictions[1].box"),
    (_image([_pred(scores=(1.5,))]), [], "images[0].predictions[0].cls_scores"),
    (_image([_pred(), _pred(scores=(-0.1,))]), [], "images[0].predictions[1].cls_scores"),
    (_image([_pred(scores=())]), [], "images[0].predictions[0].cls_scores"),
    (_image([_pred()], [_gt(), _gt(box=(0, 0, 0, 4))]), [], "images[0].ground_truths[1].box"),
    (_image([_pred(box=("a", 0, 1, 1))]), [], "images[0].predictions[0].box"),
    (_image([_pred(box=(0, 0, None, 1))]), [], "images[0].predictions[0].box"),
    (_image([_pred(), _pred(box=(0, 0, 1))]), [], "images[0].predictions[1].box"),
    (_image([_pred(), _pred(box=(0, 0, 1, [1]))]), [], "images[0].predictions[1].box"),
    (_image([], [_gt(box=(0, 0, 1, 1, 1))]), [], "images[0].ground_truths[0].box"),
    (_image([_pred(scores=(0.5, 0.5))], [_gt(class_id=2)]), [], "images[0].ground_truths[0].class_id"),
    (_image([_pred()], [_gt(class_id=-1)]), [], "images[0].ground_truths[0].class_id"),
    (_image([_pred()], [_gt(class_id="abc")]), [], "images[0].ground_truths[0].class_id"),
    (_image([_pred()], [_gt(class_id=1.5)]), [], "images[0].ground_truths[0].class_id"),
    ('{"images": [{"predictions": [{"box": [0, 0, 1, 1], "cls_scores": [NaN]}]}]}', [],
     "images[0].predictions[0].cls_scores"),
    ('{"images": [{"predictions": [{"box": [0, 0, Infinity, 1], "cls_scores": [0.5]}]}]}', [],
     "images[0].predictions[0].box"),
    ({"images": [_image([_pred()])["images"][0], _image([_pred(box=(1, 1, 0, 0))])["images"][0]]},
     [], "images[1].predictions[0].box"),
]


def anchor_grid_image(rng, n_gt, size=640, classes=3):
    """One image on the 80^2 + 40^2 + 20^2 = 8400 anchor grid of a 640 input;
    predictions anchored inside a GT score its class high."""
    centres = []
    for stride in (8, 16, 32):
        ys, xs = np.mgrid[0:size // stride, 0:size // stride]
        centres.append(np.stack([(xs.ravel() + 0.5) * stride, (ys.ravel() + 0.5) * stride,
                                 np.full(xs.size, stride)], axis=1))
    grid = np.concatenate(centres).astype(np.float64)
    half = grid[:, 2:] * rng.uniform(1.0, 2.5, (len(grid), 2))
    boxes = np.concatenate([grid[:, :2] - half, grid[:, :2] + half], axis=1).clip(0, size).round(2)
    ctr = rng.uniform(0, size, (n_gt, 2))
    wh = rng.uniform(16, 200, (n_gt, 2))
    gt_boxes = np.concatenate([ctr - wh / 2, ctr + wh / 2], axis=1).clip(0, size).round(2)
    gt_cls = rng.integers(0, classes, n_gt)
    scores = rng.uniform(0, 0.2, (len(grid), classes))
    for box, c in zip(gt_boxes, gt_cls):
        inside = ((grid[:, 0] >= box[0]) & (grid[:, 0] <= box[2])
                  & (grid[:, 1] >= box[1]) & (grid[:, 1] <= box[3]))
        scores[inside, c] = rng.uniform(0.3, 1.0, int(inside.sum()))
    return {
        "predictions": [{"box": b, "cls_scores": s, "anchor_point": a}
                        for b, s, a in zip(boxes.tolist(), scores.round(5).tolist(), grid[:, :2].tolist())],
        "ground_truths": [{"box": b, "class_id": int(c)} for b, c in zip(gt_boxes.tolist(), gt_cls)],
    }


_json_scalars = (st.none() | st.booleans() | st.integers(-3, 100) | st.floats()
                 | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_coords = st.floats(-10, 80) | st.integers(-10, 80)


@st.composite
def assign_documents(draw):
    """Assign inputs that are mostly well formed, with any field replaced by
    arbitrary JSON now and then."""
    def maybe(strategy):
        return draw(st.one_of(strategy, _json_values) if draw(st.integers(0, 9)) == 0 else strategy)

    n_classes = draw(st.integers(1, 3))
    scores = st.lists(st.floats(0, 1), min_size=n_classes, max_size=n_classes)
    images = []
    for _ in range(draw(st.integers(0, 2))):
        preds = [{"box": maybe(st.lists(_coords, min_size=4, max_size=4)),
                  "cls_scores": maybe(scores),
                  "anchor_point": maybe(st.lists(_coords, min_size=2, max_size=2))}
                 for _ in range(draw(st.integers(0, 5)))]
        gts = [{"box": maybe(st.lists(_coords, min_size=4, max_size=4)),
                "class_id": maybe(st.integers(0, n_classes))}
               for _ in range(draw(st.integers(0, 3)))]
        images.append(maybe(st.just({"predictions": maybe(st.just(preds)),
                                     "ground_truths": maybe(st.just(gts))})))
    return maybe(st.just({"images": images}))


class TestAssignCommand:
    def test_perfect_pair_fixture(self, tmp_path, capsys):
        path = tmp_path / "images.json"
        path.write_text(json.dumps({
            "images": [{
                "predictions": [{"box": [0, 0, 4, 4], "cls_scores": [1.0],
                                 "anchor_point": [2, 2]}],
                "ground_truths": [{"box": [0, 0, 4, 4], "class_id": 0}],
            }]
        }))
        assert main(["assign", "--input", str(path)]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["assigned_gt"] == [0]
        assert record["per_gt_k"] == [1]
        assert record["soft_labels"][0] == pytest.approx(1.0)

    def test_output_file_with_manifest(self, tmp_path):
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [{"predictions": [], "ground_truths": []}]}))
        out = tmp_path / "assign.ndjson"
        assert main(["assign", "--input", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["manifest"] == "assign.ndjson.manifest.json"
        assert json.loads(lines[1])["image"] == 0

    def test_sinkhorn_solver_flag(self, tmp_path, capsys):
        path = tmp_path / "images.json"
        path.write_text(json.dumps({
            "images": [{
                "predictions": [{"box": [0, 0, 4, 4], "cls_scores": [1.0]}],
                "ground_truths": [{"box": [0, 0, 4, 4], "class_id": 0}],
            }]
        }))
        assert main(["assign", "--input", str(path), "--solver", "sinkhorn"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["assigned_gt"] == [0]

    def test_malformed_input_exits_2(self, tmp_path):
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [{"predictions": [{"box": [0, 0, 1, 1]}]}]}))
        assert main(["assign", "--input", str(path)]) == 2

    @pytest.mark.parametrize("doc, flags, where", BAD_ASSIGN_INPUTS,
                             ids=[case[2] for case in BAD_ASSIGN_INPUTS])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, doc, flags, where):
        path = tmp_path / "images.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["assign", "--input", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err

    def test_8400_anchor_image_matches_object_path(self, tmp_path, capsys):
        doc = anchor_grid_image(np.random.default_rng(3), n_gt=20)
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [doc]}))
        assert main(["assign", "--input", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        gts = [GroundTruth(Box(*g["box"]), g["class_id"]) for g in doc["ground_truths"]]
        preds = [Prediction(Box(*p["box"]), np.asarray(p["cls_scores"]), tuple(p["anchor_point"]))
                 for p in doc["predictions"]]
        expected = dynamic_k_assign(align_cost(gts, preds))
        assert record["assigned_gt"] == [-1 if a is None else a for a in expected.assigned_gt]
        assert record["per_gt_k"] == list(expected.per_gt_k)
        assert record["soft_labels"] == list(expected.soft_labels)
        assert record["warnings"] == list(expected.warnings)
        assert sum(a >= 0 for a in record["assigned_gt"]) >= 20

    @settings(max_examples=100, deadline=None)
    @given(doc=assign_documents(), flags=st.sampled_from(
        [[], ["--center-prior"], ["--solver", "sinkhorn", "--center-prior"]]))
    def test_fuzzed_documents_exit_0_or_2(self, tmp_path_factory, doc, flags):
        path = tmp_path_factory.mktemp("fuzz") / "images.json"
        path.write_text(json.dumps(doc))
        assert main(["assign", "--input", str(path), "--out", str(path.with_suffix(".out")),
                     *flags]) in (0, 2)


_GIOU_OK = {"pred_box": [0, 0, 2, 2], "gt_box": [0, 0, 2, 2]}

# (input document or raw text, field path the error must name)
BAD_LOSS_INPUTS = [
    ([1], "input"),
    ({"pairs": 5}, "pairs"),
    ({"pairs": [7]}, "pairs[0]"),
    ({"pairs": [{"qfl": {"target": 1.0}}]}, "pairs[0].qfl.pred"),
    ({"pairs": [{"qfl": 0.5}]}, "pairs[0].qfl"),
    ({"pairs": [{}, {"qfl": {"pred": "x", "target": 1.0}}]}, "pairs[1].qfl.pred"),
    ({"pairs": [{"giou": {**_GIOU_OK, "pred_box": [0, 0, 2]}}]}, "pairs[0].giou.pred_box"),
    ({"pairs": [{"giou": {**_GIOU_OK, "gt_box": [3, 0, 2, 2]}}]}, "pairs[0].giou.gt_box"),
    ('{"pairs": [{}, {"giou": {"pred_box": [NaN, 0, 2, 2], "gt_box": [0, 0, 2, 2]}}]}',
     "pairs[1].giou.pred_box"),
    ({"pairs": [{"dfl": {"probs": [0.5, "a"], "target": 0}}]}, "pairs[0].dfl.probs"),
    ({"pairs": [{"dfl": {"probs": [0.5, 0.5]}}]}, "pairs[0].dfl.target"),
    ({"weights": {"qfl": "abc"}, "components": {}}, "weights.qfl"),
    ({"weights": [], "components": {}}, "weights"),
    ({"components": {"giou": None}}, "components.giou"),
    ({"components": {}, "epoch": "x"}, "epoch"),
    ({"components": {}, "schedule": {"w_start": "half"}}, "schedule.w_start"),
    ({"components": {}, "distill": {"teacher": ["t.bin"]}}, "distill.student"),
    ({"components": {}, "distill": {"teacher": "t.bin", "student": []}}, "distill.teacher"),
]


class TestLossCommand:
    def test_component_fixture_totals_0_9(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({
            "weights": {"qfl": 1.0, "dfl": 0.25, "giou": 2.0},
            "components": {"qfl": 0.2, "dfl": 0.4, "giou": 0.3},
        }))
        assert main(["loss", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == pytest.approx(0.9)

    def test_pairs_mode(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({
            "weights": {"qfl": 1.0, "dfl": 0.0, "giou": 0.0},
            "pairs": [
                {"qfl": {"pred": 0.5, "target": 1.0}},
                {"qfl": {"pred": 1.0, "target": 1.0}},
            ],
        }))
        assert main(["loss", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["qfl"] == pytest.approx(0.173287 / 2, abs=1e-6)
        assert doc["total"] == pytest.approx(doc["qfl"])

    def test_distill_from_raw_tensor_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        feats = Tensor4(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        save_raw_tensor(tmp_path / "t.bin", feats)
        save_raw_tensor(tmp_path / "s.bin", feats)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({
            "components": {"qfl": 0.0, "dfl": 0.0, "giou": 0.0},
            "epoch": 0,
            "schedule": {"stage1_epochs": 284, "stage2_epochs": 16, "w_start": 0.5},
            "distill": {"kind": "cwd", "teacher": ["t.bin"], "student": ["s.bin"]},
        }))
        assert main(["loss", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distill"] == pytest.approx(0.0, abs=1e-12)
        assert doc["distill_weight"] == pytest.approx(0.5)

    def test_missing_both_modes_exits_2(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"weights": {}}))
        assert main(["loss", "--input", str(path)]) == 2

    @pytest.mark.parametrize("doc, where", BAD_LOSS_INPUTS, ids=[case[1] for case in BAD_LOSS_INPUTS])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, doc, where):
        path = tmp_path / "pairs.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["loss", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err

    def test_teacher_student_shape_mismatch_exits_2(self, tmp_path, capsys):
        save_raw_tensor(tmp_path / "t.bin", Tensor4(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        save_raw_tensor(tmp_path / "s.bin", Tensor4(np.zeros((1, 3, 4, 4), dtype=np.float32)))
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"components": {},
                                    "distill": {"teacher": ["t.bin"], "student": ["s.bin"]}}))
        assert main(["loss", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: distill: ")


class TestFoldCommand:
    def test_fold_then_numeric_replay(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        ch = 3
        doc = {
            "conv3": {
                "weight": rng.standard_normal((ch, ch, 3, 3)).tolist(),
                "bias": rng.standard_normal(ch).tolist(),
                "stride": 1, "padding": 1,
                "bn": {"gamma": rng.uniform(0.5, 1.5, ch).tolist(),
                       "beta": rng.standard_normal(ch).tolist(),
                       "mean": rng.standard_normal(ch).tolist(),
                       "var": rng.uniform(0.2, 2.0, ch).tolist(), "eps": 1e-5},
            },
            "conv1": {
                "weight": rng.standard_normal((ch, ch, 1, 1)).tolist(),
                "bias": None,
                "stride": 1, "padding": 0,
                "bn": {"gamma": rng.uniform(0.5, 1.5, ch).tolist(),
                       "beta": rng.standard_normal(ch).tolist(),
                       "mean": rng.standard_normal(ch).tolist(),
                       "var": rng.uniform(0.2, 2.0, ch).tolist(), "eps": 1e-5},
            },
            "identity_bn": {"gamma": rng.uniform(0.5, 1.5, ch).tolist(),
                            "beta": rng.standard_normal(ch).tolist(),
                            "mean": rng.standard_normal(ch).tolist(),
                            "var": rng.uniform(0.2, 2.0, ch).tolist(), "eps": 1e-5},
        }
        path = tmp_path / "branches.json"
        path.write_text(json.dumps(doc))
        assert main(["fold", "--block", str(path)]) == 0
        folded = json.loads(capsys.readouterr().out)

        from detkit.reparam import RepBranchParams, rep_branches_forward
        from detkit.tensorops import BnParams, ConvParams, Tensor4 as T4, conv2d_forward

        def conv_of(d):
            bias = d["bias"]
            w = np.asarray(d["weight"], dtype=np.float32)
            b = np.zeros(w.shape[0], dtype=np.float32) if bias is None else np.asarray(bias, dtype=np.float32)
            return ConvParams(w, b, stride=d["stride"], padding=d["padding"])

        def bn_of(d):
            return BnParams(np.asarray(d["gamma"]), np.asarray(d["beta"]),
                            np.asarray(d["mean"]), np.asarray(d["var"]), d["eps"])

        branches = RepBranchParams(conv_of(doc["conv3"]), bn_of(doc["conv3"]["bn"]),
                                   conv_of(doc["conv1"]), bn_of(doc["conv1"]["bn"]),
                                   bn_of(doc["identity_bn"]))
        folded_conv = ConvParams(np.asarray(folded["weight"], dtype=np.float32),
                                 np.asarray(folded["bias"], dtype=np.float32),
                                 stride=folded["stride"], padding=folded["padding"])
        x = T4(rng.standard_normal((1, ch, 6, 6)).astype(np.float32))
        multi = rep_branches_forward(x, branches)
        single = conv2d_forward(x, folded_conv)
        assert float(np.abs(multi.data - single.data).max()) < 1e-5

    def test_missing_branch_exits_2(self, tmp_path):
        path = tmp_path / "branches.json"
        path.write_text(json.dumps({"conv3": {}}))
        assert main(["fold", "--block", str(path)]) == 2


class TestPresetCommand:
    def test_presets_round_trip_through_parser(self, tmp_path, capsys):
        for name in ("s", "tiny"):
            assert main(["preset", "--name", name]) == 0
            text = capsys.readouterr().out
            genome = genome_from_json(text)
            assert genome == preset_genome(name)

    def test_missing_input_file_exits_2(self, tmp_path):
        assert main(["cost", "--genome", str(tmp_path / "nope.json")]) == 2
