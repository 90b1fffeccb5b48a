import contextlib
import gc
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit import cli
from detkit.assign import GroundTruthArrays, PredictionArrays, align_cost, dynamic_k_assign
from detkit.cli import main
from detkit.genome import genome_from_json, genome_to_json, preset_genome
from detkit.cost import builtin_profile
from detkit.search import MUTATION_OPS, SearchConfig, search
from detkit.tensorops import Tensor4, save_raw_tensor

from test_search import reference_evaluate


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


# rates so slow that the s genome's modeled latency overflows
OVERFLOWING_PROFILE = {"name": "x", "flops_per_ms": 1e-300, "bytes_per_ms": 1, "per_op_overhead_ms": 0}


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
    ({"mutation_ops": ["widen", "neck_width"]}, "mutation_ops"),  # the search edits the backbone only
    ({"latency_budget_ms": "abc"}, "latency_budget_ms"),
    ({"latency_budget_ms": [5]}, "latency_budget_ms"),
    ({"width_step": 0}, "width_step"),
    ({"width_step": 8.5}, "width_step"),
    ({"width_min": 64, "width_max": 32}, "width_min"),
    ({"depth_max": 0}, "depth_max"),
    ({"population": "many"}, "population"),
    ({"device_profile": 5}, "device_profile"),
    ({"generations": float("inf")}, "generations"),
    ({"population": 4.7}, "population"),
    ({"seed": True}, "seed"),
    ({"seed": 1.9}, "seed"),
    ({"scale_rule": "no"}, "scale_rule"),
    ({"scale_rule_depth": 4.5}, "scale_rule_depth"),
]

_PROFILE_OK = {"name": "p", "flops_per_ms": 1e10, "bytes_per_ms": 1e9}

# (device profile document, field path the error must name)
BAD_PROFILES = [
    ({**_PROFILE_OK, "flops_per_ms": "fast"}, "flops_per_ms"),
    ({**_PROFILE_OK, "flops_per_ms": float("nan")}, "flops_per_ms"),
    ({**_PROFILE_OK, "per_op_overhead_ms": "nan"}, "per_op_overhead_ms"),
    ({**_PROFILE_OK, "bytes_per_ms": True}, "bytes_per_ms"),
    # numbers that DeviceProfile rejects
    ({**_PROFILE_OK, "flops_per_ms": -1.0}, "flops_per_ms"),
    ({**_PROFILE_OK, "per_op_overhead_ms": -0.5}, "per_op_overhead_ms"),
]
_PROFILE_IDS = [f"{where}={profile[where]!r}" for profile, where in BAD_PROFILES]

_MISSING = object()


def _with(doc, field: str, value):
    """A copy of doc with the dotted field set to value, or removed for _MISSING."""
    doc = json.loads(json.dumps(doc))
    *parents, last = field.split(".")
    target = doc
    for key in parents:  # "backbone[4]" indexes a list
        name, _, index = key.partition("[")
        target = target[name][int(index[:-1])] if index else target[name]
    if value is _MISSING:
        del target[last]
    else:
        target[last] = value
    return doc


# (dotted field of the tiny genome, value it is set to); the error must name the field
BAD_GENOME_FIELDS = [
    ("csp_hidden_ratio", "abc"),
    ("csp_hidden_ratio", True),
    ("neck.extra_upsample", "no"),
    ("neck.extra_downsample", 1),
    # upper bounds of the integer fields
    ("backbone[4].out_ch", 10**320),
    ("backbone[0].in_ch", 65537),
    ("backbone[1].depth", 1025),
    ("backbone[1].kernel", 33),
    ("neck.depth", 1025),
    ("neck.widths", [24, 48, 10**320]),
    ("head.head_depth", 1025),
    ("head.reg_bins", 65537),
    ("num_classes", 10**6),
    ("input_res", [64, 32768]),
]

# a JSON integer literal longer than the 4300 digits Python converts
# two documents json.loads cannot read: an integer literal over its 4300-digit
# limit, and arrays nested deeper than its recursion limit (a RecursionError)
LONG_INTEGER_DOCUMENT = '{"schema_version": 1%s}' % ("0" * 4300)
DEEP_NESTING_DOCUMENT = "[" * 200000

# (argv, {doc} being a file holding such a document; the document the error names)
JSON_INPUTS = [
    (["cost", "--genome", "{doc}"], "genome"),
    (["score", "--genome", "{doc}"], "genome"),
    (["cost", "--genome", "{genome}", "--profile", "{doc}"], "profile"),
    (["search", "--space", "{genome}", "--config", "{doc}", "--out", "{out}"], "config"),
    (["search", "--space", "{doc}", "--config", "{config}", "--out", "{out}"], "genome"),
    (["assign", "--input", "{doc}"], "assign input"),
    (["loss", "--input", "{doc}"], "loss input"),
    (["fold", "--block", "{doc}"], "fold block"),
]

BAD_RES = ["0", "-64", "64x0", "32768", "64x32768", "1" * 400]


def _no_constants(name):
    raise AssertionError(f"{name} printed as a JSON value")


def strict_json(text: str):
    """Parse JSON output, failing on NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_no_constants)


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


_json_scalars = (st.none() | st.booleans() | st.integers(-3, 100) | st.floats()
                 | st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# integers stay small so that a perturbed population or generation count keeps a search short
_small_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def perturbed(draw, value, junk=_json_values):
    """value with any part now and then replaced by arbitrary JSON, or
    dropped from its object."""
    if draw(st.integers(0, 29)) == 0:
        return draw(junk)
    if isinstance(value, dict):
        return {k: perturbed(draw, v, junk) for k, v in value.items() if draw(st.integers(0, 39))}
    if isinstance(value, list):
        return [perturbed(draw, v, junk) for v in value]
    return value


@st.composite
def genome_documents(draw):
    return perturbed(draw, json.loads(genome_to_json(preset_genome("tiny"))))


@st.composite
def search_configs(draw):
    # positive rates of any size, so modeled latencies can overflow
    rate = st.floats(1e6, 1e12) | st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    profile = {"name": "p", "flops_per_ms": draw(rate), "bytes_per_ms": draw(rate),
               "per_op_overhead_ms": draw(st.floats(0, 0.01) | st.floats(min_value=0, allow_infinity=False))}
    config = {
        "population": draw(st.integers(2, 4)),
        "generations": draw(st.integers(0, 2)),
        "mutations_per_child": draw(st.integers(1, 2)),
        "latency_budget_ms": draw(st.sampled_from([50.0, 0.5, 1e-3, "inf", None])),
        "seed": draw(st.integers(0, 2 ** 32)),
        "device_profile": draw(st.sampled_from(["t4-like", "x86-like", profile])),
        "mutation_ops": draw(st.lists(st.sampled_from(MUTATION_OPS), min_size=1, max_size=3)),
        "width_step": draw(st.sampled_from([8, 16])),
        "width_min": 16,
        "width_max": draw(st.sampled_from([64, 1024])),
        "depth_max": draw(st.integers(1, 4)),
        "scale_rule": draw(st.booleans()),
        "tournament_size": draw(st.integers(1, 3)),
    }
    return perturbed(draw, config, _small_json_values)


@st.composite
def loss_documents(draw):
    unit = st.floats(0, 1)
    # finite values of any size, so weighted sums and box areas can overflow
    huge = st.floats(min_value=0, allow_infinity=False)

    def box():
        x, y = (draw(st.floats(-10, 10) | st.floats(allow_nan=False, allow_infinity=False)) for _ in "xy")
        return [x, y, x + draw(st.floats(0, 5) | huge), y + draw(st.floats(0, 5) | huge)]

    probs = draw(st.lists(st.floats(0.01, 1), min_size=1, max_size=4))
    weight = st.floats(0, 3) | huge
    doc = {"weights": {"qfl": draw(weight), "dfl": draw(weight), "giou": draw(st.floats(0.1, 3) | huge)},
           "epoch": draw(st.integers(0, 320)),
           "schedule": {"stage1_epochs": 284, "stage2_epochs": 16, "w_start": draw(unit),
                        "w_end": draw(unit), "mode": draw(st.sampled_from(["cosine", "constant"]))}}
    if draw(st.booleans()):
        doc["components"] = {"qfl": draw(unit | huge), "dfl": draw(unit), "giou": draw(st.floats(0, 2))}
    else:
        doc["pairs"] = [{"qfl": {"pred": draw(unit), "target": draw(unit), "beta": draw(st.floats(0, 4))},
                         "dfl": {"probs": [p / sum(probs) for p in probs],
                                 "target": draw(st.floats(0, len(probs) - 1))},
                         "giou": {"pred_box": box(), "gt_box": box()}}
                        for _ in range(draw(st.integers(0, 2)))]
    return perturbed(draw, doc)


def reference_history(history) -> str:
    """The `--history` CSV rebuilt from `ParetoArchive.history` by a rule of its
    own: per generation, the best feasible (score, latency) seen so far, ranked
    by score and then by lower latency."""
    rows = ["generation,best_score,best_latency_ms"]
    best_score = -float("inf")
    best_latency = float("inf")
    for gen, records in enumerate(history):
        feasible = [(s, l) for s, l, ok in records if ok]
        if feasible:
            top = max(feasible, key=lambda t: (t[0], -t[1]))
            if top[0] > best_score or (top[0] == best_score and top[1] < best_latency):
                best_score, best_latency = top
        rows.append(f"{gen},{best_score:.6f},{best_latency:.6f}")
    return "\n".join(rows) + "\n"


# `s` at 1.25x its latency and `tiny` with no budget, seeds 0-4, 1 and 2 mutations per child
HISTORY_CASES = [(name, seed, mutations) for name in ("s", "tiny") for seed in range(5)
                 for mutations in (1, 2)]


class TestSearchCommand:
    @pytest.mark.parametrize("name, seed, mutations", HISTORY_CASES,
                             ids=[f"{n}-seed{s}-m{m}" for n, s, m in HISTORY_CASES])
    def test_history_equals_the_reference_rebuild(self, tmp_path, name, seed, mutations):
        genome = preset_genome(name)
        budget = (1.25 * reference_evaluate(genome, builtin_profile("t4-like")).latency_ms
                  if name == "s" else "inf")
        doc = {"population": 8, "generations": 8, "mutations_per_child": mutations,
               "latency_budget_ms": budget, "seed": seed}
        space, config, hist = tmp_path / "space.json", tmp_path / "search.json", tmp_path / "hist.csv"
        space.write_text(genome_to_json(genome))
        config.write_text(json.dumps(doc))
        assert main(["search", "--space", str(space), "--config", str(config),
                     "--out", str(tmp_path / "archive.ndjson"), "--history", str(hist)]) == 0
        archive = search(genome, SearchConfig.from_json(json.dumps(doc)))
        assert hist.read_text() == reference_history(archive.history)

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

    @pytest.mark.parametrize("profile, where", BAD_PROFILES, ids=_PROFILE_IDS)
    def test_bad_inline_profile_exits_2_naming_the_field(self, tmp_path, capsys, search_config_path,
                                                         tiny_genome_path, profile, where):
        cfg = tmp_path / "inline.json"
        cfg.write_text(json.dumps({**json.loads(search_config_path.read_text()), "device_profile": profile}))
        assert main(["search", "--space", str(tiny_genome_path), "--config", str(cfg),
                     "--out", str(tmp_path / "x.ndjson")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: device_profile.{where}: "), err

    # a profile so slow that the s seed's modeled latency overflows to inf
    @pytest.mark.parametrize("budget", [100.0, "inf"])
    def test_overflowing_profile_exits_2_whatever_the_budget(self, tmp_path, capsys, search_config_path,
                                                             budget):
        space, cfg = tmp_path / "s.json", tmp_path / "overflow.json"
        space.write_text(genome_to_json(preset_genome("s")))
        cfg.write_text(json.dumps({**json.loads(search_config_path.read_text()),
                                   "device_profile": OVERFLOWING_PROFILE, "latency_budget_ms": budget}))
        out = tmp_path / "x.ndjson"
        assert main(["search", "--space", str(space), "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: device_profile: the seed genome's latency is not finite (inf ms): "
            "a rate or overhead is out of range\n")

    # tiny's seed costs ~2.4e307 ms at this profile, so widened children run to
    # hundreds of digits and, by 150 generations, overflow to inf
    def _widen_only_overflow_search(self, tmp_path, caplog, generations):
        space, cfg = tmp_path / "tiny.json", tmp_path / "overflow.json"
        space.write_text(genome_to_json(preset_genome("tiny")))
        doc = {"population": 4, "generations": generations, "mutations_per_child": 1,
               "latency_budget_ms": "inf", "seed": 0, "mutation_ops": ["widen"],
               "device_profile": OVERFLOWING_PROFILE}
        cfg.write_text(json.dumps(doc))
        out, hist = tmp_path / "archive.ndjson", tmp_path / "hist.csv"
        caplog.set_level(logging.INFO, logger="detkit.search")
        code = main(["search", "--space", str(space), "--config", str(cfg), "--out", str(out),
                     "--history", str(hist)])
        logged = [m.rsplit("best_latency_ms=", 1)[1] for m in caplog.messages if "best_latency_ms=" in m]
        leaders = search(preset_genome("tiny"), SearchConfig.from_json(json.dumps(doc))).leaders
        return code, out, hist.read_text().splitlines(), logged, leaders

    def test_overflowed_children_are_infeasible_under_an_inf_budget(self, tmp_path, caplog):
        code, out, hist, logged, leaders = self._widen_only_overflow_search(tmp_path, caplog, 150)
        assert code == 0
        records = [strict_json(line) for line in out.read_text().splitlines()[1:]]
        assert records and all(math.isfinite(r["latency_ms"]) for r in records)
        assert all(math.isfinite(e.latency_ms) for e in leaders)
        assert len(logged) == 151 and "inf" not in logged
        assert len(hist) == 152 and max(map(len, hist)) <= 80

    def test_huge_latencies_print_in_scientific_form(self, tmp_path, caplog):
        code, out, hist, logged, leaders = self._widen_only_overflow_search(tmp_path, caplog, 80)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 138
        assert max(leaders, key=lambda e: e.latency_ms).latency_ms > 1e300
        # 4 digits in the log and 6 in the history, each at most 16 characters
        for gen, (text, row, leader) in enumerate(zip(logged, hist[1:], leaders)):
            cell = row.split(",")[2]
            assert row.startswith(f"{gen},{leader.score.value:.6f},")
            assert (text, cell) == (f"{leader.latency_ms:.4e}", f"{leader.latency_ms:.6e}")
            assert len(text) <= 16 and len(cell) <= 16

    @settings(max_examples=100, deadline=None)
    @given(config=search_configs())
    def test_fuzzed_configs_exit_0_2_or_3(self, tmp_path_factory, config):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "tiny.json").write_text(genome_to_json(preset_genome("tiny")))
        (work / "config.json").write_text(json.dumps(config))
        out = work / "archive.ndjson"
        code = main(["search", "--space", str(work / "tiny.json"), "--config", str(work / "config.json"),
                     "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            for line in out.read_text().splitlines():
                strict_json(line)


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

    # rates so slow that the s genome's rows overflow, and rows that are finite but sum to inf
    @pytest.mark.parametrize("profile", [
        {"name": "slow", "flops_per_ms": 1e-300, "bytes_per_ms": 1e9},
        OVERFLOWING_PROFILE,
        {"name": "busy", "flops_per_ms": 1e9, "bytes_per_ms": 1e9, "per_op_overhead_ms": 1e307},
    ], ids=["rows-overflow", "search-overflow-profile", "sum-overflows"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_overflowing_latency_exits_2_in_either_format(self, tmp_path, capsys, profile, fmt):
        genome = tmp_path / "s.json"
        genome.write_text(genome_to_json(preset_genome("s")))
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        code, out = run_main(["cost", "--genome", str(genome), "--profile", str(path), "--format", fmt])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: the result is not finite: an input value is out of range\n"

    def test_huge_finite_latencies_keep_the_table_aligned(self, tmp_path):
        genome = tmp_path / "tiny.json"
        genome.write_text(genome_to_json(preset_genome("tiny")))
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"name": "slow", "flops_per_ms": 1e-300, "bytes_per_ms": 1e9}))
        code, out = run_main(["cost", "--genome", str(genome), "--profile", str(path), "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert {len(line) for line in lines} == {len(lines[0])}
        # a space still parts the bytes and latency columns
        assert all(line[-10] == " " for line in lines if not line.startswith("-"))
        assert "e+306" in out
        total = lines[-1].split()[-1]
        assert total == "2.30e+307"
        doc = json.loads(run_main(["cost", "--genome", str(genome), "--profile", str(path)])[1])
        assert float(total) == pytest.approx(doc["latency_ms"], rel=1e-3)

    @pytest.mark.parametrize("preset", ["s", "tiny"])
    def test_stdout_is_the_library_report_json(self, tmp_path, preset):
        from detkit.cost import builtin_profile, cost_report
        from detkit.graph import build_graph
        genome = tmp_path / f"{preset}.json"
        genome.write_text(genome_to_json(preset_genome(preset)))
        code, out = run_main(["cost", "--genome", str(genome)])
        assert code == 0
        assert out == cost_report(build_graph(preset_genome(preset)), builtin_profile("t4-like")).to_json()


    @pytest.mark.parametrize("profile, where", BAD_PROFILES, ids=_PROFILE_IDS)
    def test_bad_profile_file_exits_2_naming_the_field(self, tmp_path, capsys, tiny_genome_path,
                                                       profile, where):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        assert main(["cost", "--genome", str(tiny_genome_path), "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err

    @pytest.mark.parametrize("field, value", BAD_GENOME_FIELDS,
                             ids=[f"{field}={value!r}" for field, value in BAD_GENOME_FIELDS])
    def test_bad_genome_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        path = tmp_path / "genome.json"
        path.write_text(json.dumps(_with(json.loads(genome_to_json(preset_genome("tiny"))), field, value)))
        assert main(["cost", "--genome", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: "), err

    @settings(max_examples=100, deadline=None)
    @given(doc=genome_documents(), command=st.sampled_from(["cost", "score"]))
    def test_fuzzed_genomes_exit_0_or_2(self, tmp_path_factory, doc, command):
        path = tmp_path_factory.mktemp("fuzz") / "genome.json"
        path.write_text(json.dumps(doc))
        code, out = run_main([command, "--genome", str(path)])
        assert code in (0, 2)
        if code == 0:
            strict_json(out)


class TestInputLimits:
    @pytest.mark.parametrize("document", [LONG_INTEGER_DOCUMENT, DEEP_NESTING_DOCUMENT], ids=["long", "deep"])
    @pytest.mark.parametrize("argv, what", JSON_INPUTS, ids=[f"{a[0]} {w}" for a, w in JSON_INPUTS])
    def test_unreadable_document_exits_2(self, tmp_path, capsys, tiny_genome_path,
                                         search_config_path, argv, what, document):
        doc = tmp_path / "doc.json"
        doc.write_text(document)
        paths = {"doc": doc, "genome": tiny_genome_path, "config": search_config_path,
                 "out": tmp_path / "out.ndjson"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} is not valid JSON: "), err

    @pytest.mark.parametrize("document", [LONG_INTEGER_DOCUMENT, DEEP_NESTING_DOCUMENT], ids=["long", "deep"])
    def test_unreadable_sidecar_exits_2(self, tmp_path, capsys, document):
        feats = Tensor4(np.zeros((1, 2, 4, 4), dtype=np.float32))
        save_raw_tensor(tmp_path / "t.bin", feats)
        save_raw_tensor(tmp_path / "s.bin", feats)
        (tmp_path / "t.bin.json").write_text(document)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"components": {},
                                    "distill": {"teacher": ["t.bin"], "student": ["s.bin"]}}))
        assert main(["loss", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: t.bin.json is not valid JSON: ")

    def test_oversized_channels_exit_2_on_score(self, tmp_path, capsys):
        # `cost` on the same genome is a BAD_GENOME_FIELDS row
        path = tmp_path / "genome.json"
        doc = single_conv_genome_doc()
        doc["backbone"][0]["out_ch"] = 10**320
        path.write_text(json.dumps(doc))
        assert main(["score", "--genome", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: backbone[0].out_ch: ")

    @pytest.mark.parametrize("res", BAD_RES, ids=[r[:10] for r in BAD_RES])
    def test_res_out_of_range_exits_2(self, tmp_path, capsys, res):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(single_conv_genome_doc()))
        assert main(["cost", "--genome", str(path), "--res", res]) == 2
        assert capsys.readouterr().err.startswith("error: --res: ")

    def test_profile_file_is_hashed_into_the_manifest(self, tmp_path, tiny_genome_path):
        profile, out = tmp_path / "profile.json", tmp_path / "cost.json"
        hashes = []
        for rate in (1e10, 2e10):
            profile.write_text(json.dumps({**_PROFILE_OK, "flops_per_ms": rate}))
            argv = ["cost", "--genome", str(tiny_genome_path), "--profile", str(profile), "--out", str(out)]
            assert main(argv) == 0
            hashes.append(json.loads((tmp_path / "cost.json.manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    def test_options_are_hashed_into_the_manifest(self, tmp_path, tiny_genome_path):
        def config_hash(*argv):
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads((tmp_path / "out.manifest.json").read_text())["config_hash"]

        cost = ["cost", "--genome", str(tiny_genome_path)]
        low = config_hash(*cost, "--res", "64")
        assert config_hash(*cost, "--res", "128", "--profile", "x86-like") != low
        assert config_hash(*cost, "--res", "64") == low
        images = tmp_path / "images.json"
        images.write_text(json.dumps(_image([_pred()], [_gt()])))
        assign = ["assign", "--input", str(images)]
        assert config_hash(*assign, "--solver", "sinkhorn") != config_hash(*assign)


class TestInputEncoding:
    """Input documents are UTF-8 whatever the locale, and read without newline translation."""

    @staticmethod
    def non_ascii_inputs(tmp_path, note: bytes) -> tuple[Path, Path]:
        """A profile named "t4 <note> like" and a `loss` input whose teacher
        sidecar carries `note` in an extra key, both UTF-8 unless `note` is not."""
        profile = tmp_path / "profile.json"
        profile.write_bytes(json.dumps({**_PROFILE_OK, "name": "t4 NOTE like"}).encode().replace(b"NOTE", note))
        save_raw_tensor(tmp_path / "t.bin", Tensor4(np.zeros((1, 2, 4, 4), dtype=np.float32)))
        sidecar = tmp_path / "t.bin.json"
        sidecar.write_bytes(sidecar.read_bytes().replace(b"{", b'{"note": "' + note + b'", ', 1))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"components": {}, "distill": {"teacher": ["t.bin"], "student": ["t.bin"]}}))
        return profile, pairs

    def test_utf8_inputs_read_under_an_ascii_locale(self, tmp_path, tiny_genome_path):
        profile, pairs = self.non_ascii_inputs(tmp_path, "\u2014".encode())
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONCOERCECLOCALE": "0"}
        for argv in (["cost", "--genome", str(tiny_genome_path), "--profile", str(profile)],
                     ["loss", "--input", str(pairs)]):
            run = subprocess.run([sys.executable, "-m", "detkit.cli", *argv], capture_output=True, env=env,
                                 timeout=60)
            assert run.returncode == 0, run.stderr
            json.loads(run.stdout)

    def test_a_byte_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, tiny_genome_path):
        profile, pairs = self.non_ascii_inputs(tmp_path, b"\xff")
        assert main(["cost", "--genome", str(tiny_genome_path), "--profile", str(profile)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {profile} is not UTF-8: byte 13 (0xff): ")
        assert main(["loss", "--input", str(pairs)]) == 2
        assert capsys.readouterr().err.startswith("error: t.bin.json is not UTF-8: byte 10 (0xff): ")

    def test_a_crlf_genome_costs_byte_identically(self, tmp_path, tiny_genome_path):
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(tiny_genome_path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        outputs = []
        for genome in (tiny_genome_path, crlf):
            code, out = run_main(["cost", "--genome", str(genome)])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


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
    # an id too large for int64 is out of range, with or without predictions
    (_image([_pred()], [_gt(), _gt(class_id=2 ** 70)]), [], "images[0].ground_truths[1].class_id"),
    (_image([], [_gt(class_id=2 ** 70)]), [], "images[0].ground_truths[0].class_id"),
    ('{"images": [{"predictions": [{"box": [0, 0, 1, 1], "cls_scores": [NaN]}]}]}', [],
     "images[0].predictions[0].cls_scores"),
    ('{"images": [{"predictions": [{"box": [0, 0, Infinity, 1], "cls_scores": [0.5]}]}]}', [],
     "images[0].predictions[0].box"),
    ({"images": [_image([_pred()])["images"][0], _image([_pred(box=(1, 1, 0, 0))])["images"][0]]},
     [], "images[1].predictions[0].box"),
    # JSON true/false are not numbers, here as everywhere
    (_image([_pred(), _pred(), _pred(box=(0, 0, True, 1))]), [], "images[0].predictions[2].box"),
    (_image([_pred(), _pred(), _pred(scores=(True,))]), [], "images[0].predictions[2].cls_scores"),
    (_image([_pred(), _pred(), _pred(anchor_point=[False, 1])]), ["--center-prior"],
     "images[0].predictions[2].anchor_point"),
    (_image([_pred()], [_gt(), _gt(), _gt(box=(0, 0, 4, True))]), [], "images[0].ground_truths[2].box"),
    # a bad value is shown cut short, not as the whole 8400 x 80 block
    ({"images": [_image([_pred()])["images"][0], [[0.5] * 80] * 8400]}, [], "images[1]"),
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


def library_record(image: dict, idx: int) -> dict:
    """The NDJSON record `assign` should write for `image`, from the library's
    dynamic-k assignment of arrays built here."""
    gts = image["ground_truths"]
    result = dynamic_k_assign(align_cost(
        GroundTruthArrays(boxes=np.array([g["box"] for g in gts], dtype=np.float64).reshape(-1, 4),
                          class_ids=np.array([g["class_id"] for g in gts], dtype=int)),
        PredictionArrays(*(np.array([p[key] for p in image["predictions"]], dtype=np.float64)
                           for key in ("box", "cls_scores", "anchor_point")))))
    return {"image": idx,
            "assigned_gt": [-1 if a is None else a for a in result.assigned_gt],
            "per_gt_k": list(result.per_gt_k),
            "soft_labels": list(result.soft_labels),
            "warnings": list(result.warnings)}


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
        assert len(err) < 200, err

    def test_8400_anchor_image_matches_library_arrays(self, tmp_path, capsys):
        doc = anchor_grid_image(np.random.default_rng(3), n_gt=20)
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [doc]}))
        assert main(["assign", "--input", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == library_record(doc, 0)
        assert sum(a >= 0 for a in record["assigned_gt"]) >= 20

    @settings(max_examples=100, deadline=None)
    @given(doc=assign_documents(), flags=st.sampled_from(
        [[], ["--center-prior"], ["--solver", "sinkhorn", "--center-prior"]]))
    def test_fuzzed_documents_exit_0_or_2(self, tmp_path_factory, doc, flags):
        path = tmp_path_factory.mktemp("fuzz") / "images.json"
        path.write_text(json.dumps(doc))
        assert main(["assign", "--input", str(path), "--out", str(path.with_suffix(".out")),
                     *flags]) in (0, 2)

    def test_every_image_is_read_before_any_is_assigned(self, tmp_path, capsys):
        # image 0's class id is out of range (align_cost's check), image 1's box
        # is unordered (a read check): the read error wins
        doc = {"images": [_image([_pred()], [_gt(class_id=3)])["images"][0],
                          _image([_pred(box=(2, 0, 1, 1))])["images"][0]]}
        path = tmp_path / "images.json"
        path.write_text(json.dumps(doc))
        assert main(["assign", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: images[1].predictions[0].box: ")

    def test_three_images_match_the_library_per_image(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        docs = [anchor_grid_image(rng, n_gt=n, size=160) for n in (0, 1, 4)]
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": docs}))
        assert main(["assign", "--input", str(path)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records == [library_record(doc, idx) for idx, doc in enumerate(docs)]
        assert [sum(a >= 0 for a in r["assigned_gt"]) > 0 for r in records] == [False, True, True]


@contextlib.contextmanager
def collector(enabled: bool):
    """The cycle collector on or off for the block, as it was afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


_PAUSE_CASES = {
    "ok": json.dumps(_image([_pred()], [_gt()])),
    "malformed": '{"images": [',
    "bad_box": json.dumps(_image([_pred(box=(2, 0, 1, 1))])),
}


class TestPausedRead:
    """`assign` reads its input with the cycle collector paused."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", _PAUSE_CASES)
    def test_collector_state_is_restored(self, tmp_path, capsys, case, enabled):
        path = tmp_path / "images.json"
        path.write_text(_PAUSE_CASES[case])
        with collector(enabled):
            code = main(["assign", "--input", str(path)])
            assert gc.isenabled() is enabled
        assert code == (0 if case == "ok" else 2)

    def test_no_collection_runs_and_the_tree_is_gone_on_return(self, tmp_path):
        doc = anchor_grid_image(np.random.default_rng(3), n_gt=20, classes=80)
        path = tmp_path / "images.json"
        path.write_text(json.dumps({"images": [doc]}))
        del doc
        collections = []

        def hook(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        with collector(True):
            gc.collect()
            before = gc.get_count()
            gc.callbacks.append(hook)
            try:
                images = cli._read_images(path)
                after = gc.get_count()
            finally:
                gc.callbacks.remove(hook)
        assert collections == []
        assert images[0][1].scores.shape == (8400, 80)
        # the young count fell back below the threshold with no collection to
        # reset it (the older counts did not move): the ~34k-object JSON tree was
        # freed before the collector resumed
        assert after[0] < gc.get_threshold()[0]
        assert after[1:] == before[1:]


class TestPausedSearch:
    """`search` runs with the cycle collector paused."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("budget, expected", [(50.0, 0), (0.001, 3)], ids=["ok", "over_budget"])
    def test_collector_state_is_restored(self, tmp_path, tiny_genome_path, capsys, enabled,
                                         budget, expected):
        config = tmp_path / "search.json"
        config.write_text(json.dumps({"population": 4, "generations": 3, "mutations_per_child": 1,
                                      "latency_budget_ms": budget, "seed": 0}))
        with collector(enabled):
            code = main(["search", "--space", str(tiny_genome_path), "--config", str(config),
                         "--out", str(tmp_path / "archive.ndjson")])
            assert gc.isenabled() is enabled
        assert code == expected

    def test_no_collection_runs_during_the_search(self, tmp_path, monkeypatch):
        genome = preset_genome("s")
        budget = 1.25 * reference_evaluate(genome, builtin_profile("t4-like")).latency_ms
        space, config = tmp_path / "space.json", tmp_path / "search.json"
        space.write_text(genome_to_json(genome))
        config.write_text(json.dumps({"population": 16, "generations": 10, "mutations_per_child": 1,
                                      "latency_budget_ms": budget, "seed": 0}))
        collections, states = [], []

        def hook(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        def recorded(*args):
            states.append(gc.isenabled())
            gc.callbacks.append(hook)
            try:
                return search(*args)
            finally:
                gc.callbacks.remove(hook)

        monkeypatch.setattr(cli, "search", recorded)
        with collector(True):
            assert main(["search", "--space", str(space), "--config", str(config),
                         "--out", str(tmp_path / "archive.ndjson")]) == 0
        assert states == [False]
        assert collections == []

    def test_a_paused_search_leaves_no_cyclic_garbage(self):
        genome = preset_genome("s")
        budget = 1.25 * reference_evaluate(genome, builtin_profile("t4-like")).latency_ms
        cfg = SearchConfig(population=16, generations=10, mutations_per_child=1,
                           latency_budget_ms=budget, seed=0, device_profile=builtin_profile("t4-like"))
        with collector(False):
            gc.collect()
            archive = search(genome, cfg)
            assert gc.collect() == 0
        assert archive.entries


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
    ({"components": {}, "epoch": -7}, "epoch"),
    ({"components": {}, "epoch": -1, "schedule": {"stage1_epochs": 10}}, "epoch"),
    ({"components": {}, "schedule": {"w_start": "half"}}, "schedule.w_start"),
    ({"components": {}, "distill": {"teacher": ["t.bin"]}}, "distill.student"),
    ({"components": {}, "distill": {"teacher": "t.bin", "student": []}}, "distill.teacher"),
    ({"components": {}, "distill": {"teacher": [], "student": [], "kind": ["cwd"]}}, "distill.kind"),
    ({"components": {}, "schedule": {"stage1_epochs": 284.7}}, "schedule.stage1_epochs"),
    ({"components": {}, "schedule": {"mode": 5}}, "schedule.mode"),
]

# (sidecar of the teacher tensor t.bin, field path the error must name); the
# loss table above cannot take these, its test writes no tensor files
BAD_SIDECARS = [
    ({"dtype": "float32"}, "t.bin.json.shape"),
    ({"shape": 5}, "t.bin.json.shape"),
    ({"shape": [1, 2, "a", 4]}, "t.bin.json.shape[2]"),
    ({"shape": [1, -2, -4, 4]}, "t.bin.json.shape"),
    ([1, 2, 4, 4], "t.bin.json"),
    ({"shape": [1, 2, 4, 4], "byte_order": "big"}, "t.bin.json.byte_order"),
    ({"shape": [1, 2, 4, 4], "dtype": "float16"}, "t.bin.json.dtype"),
    ({"shape": [1, 2, 4, 4], "order": "F"}, "t.bin.json.order"),
    ({"shape": [1, 2, 4, 4], "dtype": 32}, "t.bin.json.dtype"),
]


# values the reading rule admits and the loss types reject: (input document, field path)
LOSS_VALUE_ERRORS = [
    pytest.param({"components": {}, "schedule": {"stage1_epochs": 0}}, "schedule.stage1_epochs",
                 id="stage1_epochs=0"),
    pytest.param({"components": {}, "schedule": {"stage2_epochs": -3}}, "schedule.stage2_epochs",
                 id="stage2_epochs=-3"),
    pytest.param({"components": {}, "schedule": {"mode": "linear"}}, "schedule.mode", id="mode=linear"),
    pytest.param({"components": {}, "schedule": {"w_start": -5}}, "schedule.w_start", id="w_start=-5"),
    pytest.param({"components": {}, "schedule": {"w_end": -0.1}}, "schedule.w_end", id="w_end=-0.1"),
    pytest.param({"weights": {"dfl": -1}, "components": {}}, "weights.dfl", id="weights.dfl=-1"),
    pytest.param({"weights": {"qfl": 0, "dfl": 0, "giou": 0}, "components": {}}, "weights", id="weights-all-0"),
    pytest.param({"components": {"qfl": -1}}, "components.qfl", id="components.qfl=-1"),
    pytest.param({"pairs": [{"qfl": {"pred": 1.5, "target": 1.0}}]}, "pairs[0].qfl", id="qfl.pred=1.5"),
    pytest.param({"pairs": [{"qfl": {"pred": 1.0, "target": 1.0, "beta": -1}}]}, "pairs[0].qfl",
                 id="qfl.beta=-1"),
    pytest.param({"pairs": [{}, {"dfl": {"probs": [0.6, 0.5], "target": 0.5}}]}, "pairs[1].dfl",
                 id="dfl.probs-sum-1.1"),
    pytest.param({"components": {}, "distill": {"teacher": [], "student": [], "kind": "xx"}}, "distill.kind",
                 id="distill.kind=xx"),
    # finite boxes whose areas overflow a float: no finite GIoU
    pytest.param({"pairs": [{}, {"giou": {"pred_box": [0, 0, 1e200, 1e200], "gt_box": [0, 0, 1e200, 1e200]}}]},
                 "pairs[1].giou", id="giou-area-overflow"),
    pytest.param({"pairs": [{"giou": {"pred_box": [0, 0, 1e308, 1e308], "gt_box": [-1e308, -1e308, 1, 1]}}]},
                 "pairs[0].giou", id="giou-hull-overflow"),
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

    @pytest.mark.parametrize("schedule", [None, {"stage1_epochs": 10}])
    def test_negative_epoch_message(self, tmp_path, capsys, schedule):
        doc = {"components": {}, "epoch": -7, **({"schedule": schedule} if schedule else {})}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["loss", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: epoch: epoch must be >= 0, got -7\n"

    def test_distill_error_reports_ahead_of_a_negative_epoch(self, tmp_path, capsys):
        # the epoch is checked where the breakdown is assembled, after the distill inputs are read
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"components": {}, "epoch": -1, "distill": {"teacher": ["t.bin"]}}))
        assert main(["loss", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: distill.student: ")

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

    @pytest.mark.parametrize("doc, where", LOSS_VALUE_ERRORS)
    def test_rejected_value_exits_2_naming_the_field(self, tmp_path, capsys, doc, where):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a rejected value is never computed with
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

    @pytest.mark.parametrize("sidecar, where", BAD_SIDECARS, ids=[repr(case[0]) for case in BAD_SIDECARS])
    def test_bad_sidecar_exits_2_naming_the_field(self, tmp_path, capsys, sidecar, where):
        feats = Tensor4(np.zeros((1, 2, 4, 4), dtype=np.float32))
        save_raw_tensor(tmp_path / "t.bin", feats)
        save_raw_tensor(tmp_path / "s.bin", feats)
        (tmp_path / "t.bin.json").write_text(json.dumps(sidecar))
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"components": {},
                                    "distill": {"teacher": ["t.bin"], "student": ["s.bin"]}}))
        assert main(["loss", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err

    @settings(max_examples=100, deadline=None)
    @given(doc=loss_documents())
    def test_fuzzed_documents_exit_0_or_2(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "pairs.json"
        path.write_text(json.dumps(doc))
        code, out = run_main(["loss", "--input", str(path)])
        assert code in (0, 2)
        if code == 0:
            strict_json(out)


_FOLD_BN = {"gamma": [1.0, 2.0], "beta": [0.0, 0.5], "mean": [0.1, 0.0], "var": [1.0, 0.5]}
_FOLD_BLOCK = {
    "conv3": {"weight": np.full((2, 2, 3, 3), 0.5).tolist(), "bn": _FOLD_BN},
    "conv1": {"weight": np.full((2, 2, 1, 1), 0.25).tolist(), "bn": _FOLD_BN},
    "identity_bn": _FOLD_BN,
}
_NAN_WEIGHT = np.full((2, 2, 3, 3), 0.5)
_NAN_WEIGHT[1, 0, 2, 1] = np.nan

# (dotted field of a valid block, value it is set to, field path the error must name)
BAD_FOLD_FIELDS = [
    pytest.param("conv3", 5, "conv3", id="conv3=5"),
    pytest.param("conv3.weight", [1.0, 2.0], "conv3.weight", id="conv3.weight-1d"),
    pytest.param("conv3.weight", _NAN_WEIGHT.tolist(), "conv3.weight", id="conv3.weight-nan"),
    pytest.param("conv3.stride", "x", "conv3.stride", id="conv3.stride='x'"),
    pytest.param("conv1.bn.gamma", ["1", "2"], "conv1.bn.gamma", id="conv1.bn.gamma-strings"),
    pytest.param("identity_bn.beta", _MISSING, "identity_bn.beta", id="identity_bn.beta-missing"),
    pytest.param("conv3.bias", [0.0, True], "conv3.bias", id="conv3.bias-bool"),
    pytest.param("conv1.weight", [[[[1.0]]], [[[1.0], [2.0]]]], "conv1.weight", id="conv1.weight-ragged"),
    pytest.param("conv3.bias", [0.0], "block", id="conv3.bias-length"),
    # values the reading rule admits and the conv, batchnorm or rep-block types reject
    pytest.param("conv3.stride", 0, "conv3.stride", id="conv3.stride=0"),
    pytest.param("conv1.padding", 1, "conv1.padding", id="conv1.padding=1"),
    pytest.param("conv3.weight", np.full((2, 2, 2, 2), 0.5).tolist(), "conv3.weight", id="conv3.weight-2x2"),
    pytest.param("conv3.bn.var", [-2.0, 0.5], "conv3.bn.var", id="conv3.bn.var=-2"),
]


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

    def test_valid_block_folds(self, tmp_path, capsys):
        path = tmp_path / "branches.json"
        path.write_text(json.dumps(_FOLD_BLOCK))
        code, out = run_main(["fold", "--block", str(path)])
        assert code == 0
        assert np.asarray(strict_json(out)["weight"]).shape == (2, 2, 3, 3)

    @pytest.mark.parametrize("field, value, where", BAD_FOLD_FIELDS)
    def test_bad_block_exits_2_naming_the_field(self, tmp_path, capsys, field, value, where):
        path = tmp_path / "branches.json"
        path.write_text(json.dumps(_with(_FOLD_BLOCK, field, value)))
        assert main(["fold", "--block", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: "), err


class TestPresetCommand:
    def test_presets_round_trip_through_parser(self, tmp_path, capsys):
        for name in ("s", "tiny"):
            assert main(["preset", "--name", name]) == 0
            text = capsys.readouterr().out
            genome = genome_from_json(text)
            assert genome == preset_genome(name)

    def test_missing_input_file_exits_2(self, tmp_path):
        assert main(["cost", "--genome", str(tmp_path / "nope.json")]) == 2

    def test_non_utf8_input_file_exits_2(self, tmp_path):
        path = tmp_path / "genome.json"
        path.write_bytes(b'\xff\xfe{"schema_version": 1}')
        assert main(["cost", "--genome", str(path)]) == 2

    def test_one_parser_serves_every_call(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        first = parser.parse_args(["assign", "--input", "a.json", "--solver", "sinkhorn"])
        second = parser.parse_args(["assign", "--input", "a.json"])
        assert (first.solver, second.solver) == ("sinkhorn", "dynamic-k")
        assert not hasattr(parser.parse_args(["preset", "--name", "s"]), "solver")
