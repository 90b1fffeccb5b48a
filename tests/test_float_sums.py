"""Outputs do not depend on how the interpreter's `sum` adds floats.

CPython 3.12 made a float `sum` compensated (Neumaier), so any float total
that reaches an output through `sum` reads differently there than on 3.10 and
3.11. Every such total is an in-order fold instead (`detkit.cost.fold_sum`).
These tests run the goldens with a compensated `sum` in every `detkit` module
and require the same bytes.
"""
import importlib
import numbers
import pkgutil

import pytest

import detkit
from detkit.cli import main
from detkit.cost import fold_sum
from detkit.genome import genome_to_json, preset_genome

from test_search import GOLDEN, MAKE_GOLDENS

builtin_sum = sum


def compensated_sum(values, start=0):
    """`sum` as CPython 3.12 computes it: integers exactly, floats with
    Neumaier compensation."""
    values = list(values)
    if all(isinstance(x, numbers.Integral) for x in [start, *values]):
        return builtin_sum(values, start)
    total = compensation = 0.0
    for x in [start, *values]:
        x = float(x)
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_compensated_sum_differs_from_an_in_order_sum():
    # the premise: the patched `sum` is not the in-order fold (nor, before
    # 3.12, the builtin `sum`)
    values = [0.1] * 10
    assert fold_sum(values) == 0.9999999999999999
    assert compensated_sum(values) == 1.0
    assert compensated_sum([2, 3], 4) == 9 and isinstance(compensated_sum([2, 3]), int)


def compensate(monkeypatch):
    """Give every `detkit` module the compensated `sum` in place of the builtin."""
    for info in pkgutil.iter_modules(detkit.__path__):
        module = importlib.import_module(f"detkit.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


@pytest.fixture
def compensated(monkeypatch):
    compensate(monkeypatch)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_search_golden(compensated):
    assert MAKE_GOLDENS.search_golden() == golden("search_s_seed0.ndjson")


@pytest.mark.parametrize("seed", MAKE_GOLDENS.BENCH_SEEDS)
def test_benchmark_search_golden(compensated, seed):
    assert MAKE_GOLDENS.bench_search_golden(seed) == golden(f"search_s_bench_seed{seed}.ndjson")


def test_score_golden(compensated):
    assert MAKE_GOLDENS.scores_golden() == golden("scores.ndjson")


@pytest.mark.parametrize("preset", ["s", "tiny"])
def test_cost_json(tmp_path, capsys, monkeypatch, preset):
    path = tmp_path / f"{preset}.json"
    path.write_text(genome_to_json(preset_genome(preset)))
    argv = ["cost", "--genome", str(path), "--profile", "t4-like"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    compensate(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
